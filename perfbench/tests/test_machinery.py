"""Tests of the benchmark's own machinery (no library needed).

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from reference import Reference  # noqa: E402
from stats import (OpLog, per_reference, percentile, relative, supported,  # noqa: E402
                   tail_percentile)
from tracing import Hook, Tracer, self_times  # noqa: E402


# -- percentile rule ---------------------------------------------------------

@pytest.mark.parametrize("n, want", [
    (0, None), (19, None), (99, None), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, want):
    assert tail_percentile(n) == want


def test_median_needs_no_tail_but_p90_needs_100():
    assert not supported(99, 90)
    assert supported(100, 90)
    assert supported(20, 50) and not supported(19, 50)


def test_percentile_interpolates_like_numpy():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(xs, 50) == 3.0
    assert percentile(xs, 90) == pytest.approx(4.6)
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


# -- times relative to the reference kernel ----------------------------------

def test_relative_time_cancels_host_drift():
    cycles, refs = [0.2, 0.3], [0.1, 0.15]
    assert relative(cycles, refs, units=2) == pytest.approx([1.0, 1.0])
    slow = [1.5 * c for c in cycles], [1.5 * r for r in refs]
    assert relative(*slow, units=2) == pytest.approx(relative(cycles, refs, units=2))
    # A slower program with an unchanged host shows in full.
    assert relative([0.4, 0.6], refs) == pytest.approx([4.0, 4.0])
    assert per_reference(10, cycles, refs) == pytest.approx(2.5)
    assert per_reference(10, *slow) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        relative(cycles, refs[:1])


def test_reference_kernel_does_fixed_work():
    one = Reference(batch=3, horizon=5, reps=1)
    assert one.run() == Reference(batch=3, horizon=5, reps=1).run()
    assert Reference(batch=3, horizon=5, reps=2).run() == pytest.approx(2 * one.run())


# -- error-rate counting -----------------------------------------------------

def test_error_rate_counts_failed_ops_against_attempted():
    log = OpLog()
    assert log.error_rate == 0.0
    log.record("fit", 0.1, [])
    log.record("fit", 0.2, ["loss did not fall"])
    log.record("export", 0.3, ["exit code 1", "manifest missing"])
    log.record("export", 0.4, [])
    assert (log.attempted, log.failed) == (4, 2)
    assert log.error_rate == 0.5
    assert log.seconds == {"fit": [0.1, 0.2], "export": [0.3, 0.4]}
    assert log.failures == ["fit: loss did not fall",
                            "export: exit code 1; manifest missing"]


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    # 0: [0, 10] parent of 1: [1, 4] and 2: [3, 6] (overlapping) and
    # 3: [8, 9]; 1 is parent of 4: [2, 3].
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 9.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    got = self_times(start, end, parent)
    assert got == pytest.approx([10 - (5 + 1), 3 - 1, 3, 1, 1])


def test_self_time_clips_children_to_parent():
    got = self_times([0.0, -1.0], [2.0, 1.0], [-1, 0])
    assert got == pytest.approx([1.0, 2.0])


# -- hooks -------------------------------------------------------------------

@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.core`` defines ``work`` and ``Box.get``; ``fakepkg.user``
    imported ``work`` by name and ``fakepkg`` re-exports it."""
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x + 1

    class Box:
        def get(self):
            return core.work(1)

    def outer(x):
        return user.work(x) * 2

    core.work, core.Box = work, Box
    user.work, user.outer = work, outer
    pkg.work = work
    for name, mod in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    return types.SimpleNamespace(pkg=pkg, core=core, user=user, work=work, Box=Box)


def test_hook_patches_every_alias_once(fake_package):
    fp = fake_package
    tracer = Tracer([Hook("core.work", "fakepkg.core", "work"),
                     Hook("user.outer", "fakepkg.user", "outer")], package="fakepkg")
    with tracer.installed(op=0):
        assert fp.core.work is fp.user.work is fp.pkg.work is not fp.work
        assert fp.user.outer(1) == 4
        fp.pkg.work(0)
    assert fp.core.work is fp.user.work is fp.pkg.work is fp.work
    stats = tracer.summary(lambda op: True)
    assert stats["core.work"]["calls"] == 2
    assert stats["user.outer"]["calls"] == 1
    assert tracer.parent == [-1, 0, -1]


def test_method_hook_and_counter(fake_package):
    fp = fake_package
    tracer = Tracer([Hook("core.Box.get", "fakepkg.core", "Box.get",
                          lambda a, k, r: float(r))], package="fakepkg")
    with tracer.installed(op=3):
        assert fp.Box().get() == 2
    assert fp.Box.get.__name__ == "get" and not hasattr(fp.Box.get, "__wrapped__")
    stats = tracer.summary(lambda op: op == 3)
    assert stats["core.Box.get"]["calls"] == 1
    assert stats["core.Box.get"]["value"] == 2.0
    assert tracer.summary(lambda op: op != 3)["core.Box.get"]["calls"] == 0


def test_missing_hook_is_reported_absent(fake_package, tmp_path):
    tracer = Tracer([Hook("core.gone", "fakepkg.core", "gone"),
                     Hook("nomodule.f", "fakepkg.nomodule", "f"),
                     Hook("core.Box.gone", "fakepkg.core", "Box.gone"),
                     Hook("core.work", "fakepkg.core", "work")], package="fakepkg")
    assert tracer.absent == ["core.gone", "nomodule.f", "core.Box.gone"]
    with tracer.installed(op=0):
        fake_package.core.work(1)
    stats = tracer.summary(lambda op: True)
    assert set(stats) == {"core.work"}
    tracer.dump(tmp_path / "spans.json")
    doc = json.loads((tmp_path / "spans.json").read_text())
    assert doc["absent"] == tracer.absent and len(doc["spans"]) == 1


def test_failing_call_still_closes_its_span(fake_package):
    def boom(x):
        raise ValueError("no")

    fake_package.core.work = boom
    tracer = Tracer([Hook("core.work", "fakepkg.core", "work")], package="fakepkg")
    with tracer.installed(op=0):
        with pytest.raises(ValueError):
            fake_package.core.work(1)
    assert tracer.end[0] >= tracer.start[0] and not tracer._stack
    assert fake_package.core.work is boom


def test_calls_under_counts_only_nested_spans(fake_package):
    fp = fake_package
    tracer = Tracer([Hook("core.work", "fakepkg.core", "work"),
                     Hook("user.outer", "fakepkg.user", "outer")], package="fakepkg")
    with tracer.installed(op=0):
        fp.user.outer(1)
        fp.core.work(1)
    assert tracer.calls_under("core.work", "user.outer", lambda op: True) == 1
    assert tracer.calls_under("core.work", "user.missing", lambda op: True) == 0
