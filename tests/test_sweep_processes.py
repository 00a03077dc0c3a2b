"""The two-process path of ``interpret.sweep``.

A sweep that may fork runs half of its ablated passes in a child; the
scores must be the same bits as the serial loop's, whatever the child
does, and no child may outlive the sweep. A fork that copies live BLAS
threads can deadlock the child, so the tests that force the fork run in
one child interpreter with BLAS pinned to one thread, as
``tests/test_checkpoint_fuzz.py`` runs its mutants. Run as a script, this
file is that interpreter: ``python tests/test_sweep_processes.py`` prints
one JSON report of the problems found in each case.
"""

import json
import os
import random
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from neuroview import interpret
from neuroview.cells import CellKind, InitKind, InitScheme
from neuroview.data import synth_separable
from neuroview.interpret import AblationMode, AblationTarget, sweep
from neuroview.network import EncoderConfig, HeadKind
from neuroview.train import build_model

SHAPES = {"1-uni": (1, False), "2-uni": (2, False), "2-bidir": (2, True)}
BIT_CASES = [f"{cell.value}-{shape}" for cell in CellKind for shape in SHAPES]
FAULT_CASES = ["child-fails", "child-sends-short", "fork-raises", "parent-raises"]

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
    """Each row's logits from one ``sweep`` with the fork forced on or off,
    and the number of forks it made."""
    scored, forks = [], []
    real_report, real_fork, real_pred = interpret.eval_report, os.fork, interpret._two_processes
    interpret.eval_report = lambda logits, *a: scored.append(logits) or real_report(logits, *a)
    os.fork = lambda: forks.append(1) or real_fork()
    interpret._two_processes = lambda n_sets: two_processes
    try:
        sweep(model, ds, ROWS)
    finally:
        interpret.eval_report, os.fork, interpret._two_processes = real_report, real_fork, real_pred
    return scored, len(forks)


def _problems(model, ds, want, **patches):
    """What is wrong with a forced two-process sweep of ``ROWS`` while
    ``interpret``'s names in ``patches`` are replaced: scores that are not
    ``want``'s bits, or a child left behind."""
    saved = {name: getattr(interpret, name) for name in patches}
    for name, value in patches.items():
        setattr(interpret, name, value)
    try:
        got, forks = _scores(model, ds, True)
    finally:
        for name, value in saved.items():
            setattr(interpret, name, value)
    problems = []
    if [g.tobytes() for g in got] != [w.tobytes() for w in want]:
        problems.append("scores differ from the serial sweep's")
    problems += _leftover_children()
    return problems, forks


def _leftover_children():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return []
    return ["a child outlived the sweep"]


def run_cases():
    """The report: every case id mapped to its list of problems."""
    report = {}
    threads = len(os.listdir("/proc/self/task"))
    if threads != 1:
        return {case: [f"{threads} threads: BLAS is not pinned"]
                for case in BIT_CASES + FAULT_CASES}
    for cell in CellKind:
        for shape, (layers, bidir) in SHAPES.items():
            model, ds = _model(cell, layers, bidir)
            want, serial_forks = _scores(model, ds, False)
            problems, forks = _problems(model, ds, want)
            if (serial_forks, forks) != (0, 1):
                problems.append(f"{serial_forks} and {forks} forks, not 0 and 1")
            report[f"{cell.value}-{shape}"] = problems

    model, ds = _model(CellKind.GRU, 2, False)
    want, _ = _scores(model, ds, False)
    encode, head_forward = interpret.encode, interpret.head_forward
    parent = os.getpid()

    def fails_in_child(*args, **kwargs):
        if os.getpid() != parent:
            raise RuntimeError("child fault")
        return encode(*args, **kwargs)

    def short(model, trace):
        logits = head_forward(model, trace)
        return logits if os.getpid() == parent else logits[1:]

    def no_fork():
        raise OSError("no fork")

    for case, patches in [("child-fails", {"encode": fails_in_child}),
                          ("child-sends-short", {"head_forward": short})]:
        problems, forks = _problems(model, ds, want, **patches)
        report[case] = problems + ([] if forks == 1 else [f"{forks} forks"])

    real_fork = os.fork
    os.fork = no_fork
    try:
        report["fork-raises"] = _problems(model, ds, want)[0]
    except OSError as e:
        report["fork-raises"] = [f"sweep raised {e!r}"]
    finally:
        os.fork = real_fork

    # The parent's own passes fail: the error propagates, and the child
    # is killed and reaped first.
    calls = []

    def fails_on_second_pass(*args, **kwargs):
        if os.getpid() == parent and len(calls) == 1:
            raise RuntimeError("parent fault")
        calls.append(1)
        return encode(*args, **kwargs)

    try:
        _problems(model, ds, want, encode=fails_on_second_pass)
        problems = ["the parent's error did not propagate"]
    except RuntimeError as e:
        problems = [] if str(e) == "parent fault" else [f"raised {e!r}"]
    report["parent-raises"] = problems + _leftover_children()
    return report


@pytest.fixture(scope="module")
def report():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert sorted(report) == sorted(BIT_CASES + FAULT_CASES)
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
