"""The two-process path of ``interpret.sweep``.

A sweep that may fork starts a child before its unablated pass, and the
child runs about half of the ablated passes from the inputs alone, on a
trace of its own. The scores must be the same bits as the serial loop's,
whatever the child does, and neither the child nor the shared array it
writes its logits into may outlive the sweep, even when this process
fails first. The bit cases run the trace contracts' checker,
``sweep_problems`` in ``tests/helpers.py``, with the fork forced off and
on; the fault cases compare the forced sweep with the serial one. A fork
that copies live BLAS threads can deadlock the child, so the tests that
force the fork run in one child interpreter with BLAS pinned to one
thread (``run_pinned``). Run as a script, this file is that interpreter:
``python tests/test_sweep_processes.py`` prints one JSON report of the
problems found in each case.
"""

import json
import mmap
import os
import random
import signal
import sys
import threading
import warnings

import numpy as np
import pytest

from neuroview import interpret
from neuroview.cells import CellKind, InitKind, InitScheme
from neuroview.data import DataSet, synth_separable
from neuroview.interpret import AblationMode, AblationTarget
from neuroview.network import EncoderConfig, HeadKind
from neuroview.train import build_model

from helpers import _leftover_children, _patched, counted_sweep, run_pinned, sweep_problems

SHAPES = {"1-uni": (1, False), "2-uni": (2, False), "2-bidir": (2, True)}
BIT_CASES = [f"{cell.value}-{shape}" for cell in CellKind for shape in SHAPES]
FAULT_CASES = ["child-fails", "child-killed", "child-wrong-shape", "fork-raises",
               "mmap-raises", "empty-split", "parent-raises", "unablated-raises"]
CASES = BIT_CASES + FAULT_CASES + ["shared-maps-freed"]

POS, NEG = AblationMode.TOP_POSITIVE, AblationMode.TOP_NEGATIVE
INPUTS = AblationTarget.INPUTS
# With the weights set in ``_model``: class 0's top-positive sets end at
# the last step ({9}, {7, 8, 9}, {4..9}) and its top-negative ones start at
# step 0 ({0}, {0, 1, 2, 3}); class 1's top-positive sets all start at
# step 5 ({5}, {5, 9}, {5, 6, 9}).
ROWS = ([(0, k, POS, INPUTS) for k in (1, 3, 6)]
        + [(1, k, POS, INPUTS) for k in (1, 2, 3)]
        + [(0, k, NEG, INPUTS) for k in (1, 4)]
        + [(0, 0, POS, INPUTS), (0, 2, POS, AblationTarget.WEIGHTS), (1, 2, POS, INPUTS)])


def _model(cell, layers, bidir, T=10, d=2):
    enc = EncoderConfig(cell, 1, 4, T, layers=layers, bidirectional=bidir)
    model = build_model(enc, HeadKind.NEUROVIEW, d, InitScheme(InitKind.UNIFORM, 6))
    blocks = model.V.reshape(d, layers, T, enc.directions, -1)
    blocks[0, 0, :, 0] = np.arange(T)[:, None] * 0.1
    blocks[1, 0, :, 0] = -np.arange(T)[:, None] * 0.01
    blocks[1, 0, [5, 9, 6], 0] = np.array([3.0, 2.0, 1.0])[:, None]
    return model, synth_separable(d, T, 1, 4, seed=5)


def _scores(model, ds, two_processes):
    """Each row's logits and report from one ``sweep`` of ``ROWS`` with
    the fork forced on or off, as bytes, and the number of forks it made.
    Forced on, the child is forked before this process's unablated pass
    and runs its sets from the inputs, so none of its logits come from
    this process's trace."""
    results, scored, forks = counted_sweep(model, ds, ROWS, 0, 0, two_processes)
    return [logits.tobytes() for logits in scored] + [
        (repr(r.report.overall_accuracy), r.report.per_class_accuracy.tobytes(),
         r.report.confusion.tobytes()) for r in results], forks


def _shared_maps():
    """The number of anonymous shared mappings of this process."""
    with open("/proc/self/maps") as fh:
        return sum("/dev/zero" in line for line in fh)


def run_cases():
    """The report: every case id mapped to its list of problems."""
    report = {}
    threads = len(os.listdir("/proc/self/task"))
    if threads != 1:
        return {case: [f"{threads} threads: BLAS is not pinned"] for case in CASES}
    for cell in CellKind:
        for shape, (layers, bidir) in SHAPES.items():
            model, ds = _model(cell, layers, bidir)
            report[f"{cell.value}-{shape}"] = (sweep_problems(model, ds, ROWS, 0, 0, False)
                                              + sweep_problems(model, ds, ROWS, 0, 0, True))

    model, ds = _model(CellKind.GRU, 2, False)
    encode, head_forward = interpret.encode, interpret.head_forward
    parent = os.getpid()
    child_passes = []

    def fails_in_child(*args, **kwargs):
        if os.getpid() != parent:
            raise RuntimeError("child fault")
        return encode(*args, **kwargs)

    def killed_in_second_child_pass(*args, **kwargs):
        if os.getpid() != parent:
            child_passes.append(1)
            if len(child_passes) == 2:
                os.kill(os.getpid(), signal.SIGKILL)
        return encode(*args, **kwargs)

    def wrong_shape(model, trace):
        logits = head_forward(model, trace)
        return logits if os.getpid() == parent else logits[1:]

    def raises(*args):
        raise OSError("refused")

    # Each case: the name replaced, the split and the number of forks the
    # sweep makes. With no samples the child's array would be 0 bytes,
    # which mmap refuses, so this process runs both sides and reports NaN,
    # as the serial loop.
    empty = DataSet(ds.X[:0], ds.y[:0], ds.classes)
    for case, owner, names, data, want_forks in [
            ("child-fails", interpret, {"encode": fails_in_child}, ds, 1),
            ("child-killed", interpret, {"encode": killed_in_second_child_pass}, ds, 1),
            ("child-wrong-shape", interpret, {"head_forward": wrong_shape}, ds, 1),
            ("fork-raises", os, {"fork": raises}, ds, 1),
            ("mmap-raises", mmap, {"mmap": raises}, ds, 0),
            ("empty-split", mmap, {}, empty, 0)]:
        try:
            want, _ = _scores(model, data, False)
            with _patched(owner, **names):
                got, forks = _scores(model, data, True)
            report[case] = ([] if got == want else ["scores differ from the serial sweep's"]) + (
                [] if forks == want_forks else [f"{forks} forks"]) + _leftover_children()
        except Exception as e:
            report[case] = [f"sweep raised {e!r}"] + _leftover_children()

    # The parent's own passes fail: the error propagates, and the child
    # is killed and reaped first.
    calls = []

    def fails_on_second_pass(*args, **kwargs):
        if os.getpid() == parent and len(calls) == 1:
            raise RuntimeError("parent fault")
        calls.append(1)
        return encode(*args, **kwargs)

    try:
        with _patched(interpret, encode=fails_on_second_pass):
            _scores(model, ds, True)
        problems = ["the parent's error did not propagate"]
    except RuntimeError as e:
        problems = [] if str(e) == "parent fault" else [f"raised {e!r}"]
    report["parent-raises"] = problems + _leftover_children()

    # The parent's unablated pass fails, after the fork: the error
    # propagates, and neither the child nor its shared array is left.
    def fails_in_parent(*args, **kwargs):
        if os.getpid() == parent:
            raise RuntimeError("unablated fault")
        return encode(*args, **kwargs)

    maps, forks, real_fork = _shared_maps(), [], os.fork
    try:
        with _patched(interpret, encode=fails_in_parent), \
                _patched(os, fork=lambda: forks.append(1) or real_fork()):
            _scores(model, ds, True)
        problems = ["the parent's error did not propagate"]
    except RuntimeError as e:
        problems = [] if str(e) == "unablated fault" else [f"raised {e!r}"]
    if len(forks) != 1:
        problems.append(f"{len(forks)} forks")
    if _shared_maps() > maps:
        problems.append("the child's shared array outlived the sweep")
    report["unablated-raises"] = problems + _leftover_children()

    # Every sweep unmaps its child's array before it returns.
    want, _ = _scores(model, ds, False)
    before, problems = _shared_maps(), []
    for _ in range(30):
        got, forks = _scores(model, ds, True)
        if got != want or forks != 1:
            problems.append(f"scores differ or {forks} forks")
    after = _shared_maps()
    if after > before:
        problems.append(f"{after - before} shared mappings outlived their sweeps")
    report["shared-maps-freed"] = problems + _leftover_children()
    return report


@pytest.fixture(scope="module")
def report():
    report = run_pinned(__file__)
    assert sorted(report) == sorted(CASES)
    return report


needs_fork = pytest.mark.skipif(not sys.platform.startswith("linux") or not hasattr(os, "fork"),
                                reason="the two-process sweep runs only on Linux")


@needs_fork
@pytest.mark.parametrize("case", BIT_CASES)
def test_forked_sweep_scores_equal_serial_bits(report, case):
    assert report[case] == []


@needs_fork
@pytest.mark.parametrize("case", FAULT_CASES)
def test_forked_sweep_survives_a_fault_with_the_same_bits(report, case):
    assert report[case] == []


@needs_fork
def test_forked_sweeps_leave_no_shared_mapping(report):
    assert report["shared-maps-freed"] == []


@pytest.mark.parametrize("bidirectional", [False, True], ids=["uni", "bidir"])
def test_split_is_a_balanced_partition_in_descending_t0(bidirectional):
    T = 30
    rng = random.Random(0)
    for n in range(2, 40):
        sets = sorted({tuple(sorted(rng.sample(range(T), rng.randint(1, 5))))
                       for _ in range(n)})
        sides = interpret._split(sets, T, bidirectional)
        assert len(sides) == 2
        assert sorted(sides[0] + sides[1]) == sets
        loads = []
        for side in sides:
            t0s = [steps[0] for steps in side]
            assert t0s == sorted(t0s, reverse=True)
            loads.append(sum(T if bidirectional else T - t0 for t0 in t0s))
        assert abs(loads[0] - loads[1]) <= max(T if bidirectional else T - s[0] for s in sets)


def test_no_fork_for_one_set_or_with_a_second_thread():
    assert not interpret._two_processes(0)
    assert not interpret._two_processes(1)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not interpret._two_processes(16)
    finally:
        stop.set()
        thread.join()


if __name__ == "__main__":
    warnings.filterwarnings("error", category=DeprecationWarning, module="neuroview")
    print(json.dumps(run_cases()))
