#!/usr/bin/env python3
"""Run one workload of the neuroview benchmark and print its metrics.

    python3 perfbench/run.py --workload train-long --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
``--trace 0`` measures end to end with nothing patched; after every cycle
of ops it also times a fixed reference kernel (``reference.py``), and the
gated time metrics are relative to it, so that drift in the shared host's
speed cancels. ``--trace 1``
alternates untraced and traced cycles of ops, reports per-layer metrics
from the traced ones and the tracing overhead from the pair, and checks
that tracing leaves trained weights bit-identical. Every op's output is
checked outside the timed interval; a failed check counts against the
run's ``failed``, it does not stop the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines above
it are the full report, and ``perfbench/out/`` receives a results file
(with the machine record) and, for traced runs, every span.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse
import contextlib
import enum
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import workloads
from stats import OpLog, per_reference, percentile, relative, tail_percentile
from tracing import Hook, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("linalg", "cells", "network", "train", "data", "interpret", "cli")
# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5
# Span op id for set-up and for the bit-identity check.
SETUP_OP = -1
IDENTITY_OP = -2

GATES = {"rnn": 1, "gru": 3, "lstm": 4}


def _cell_flops(args, kwargs, result) -> float:
    """Matmul flops of one cell step, from the argument shapes."""
    p, x = args[0], args[2]
    batch = x.shape[0] if x.ndim == 2 else 1
    n = p.hidden_dim
    return 2.0 * batch * GATES[p.kind.value] * n * (p.input_dim + n)


def _cell_backward_flops(args, kwargs, result) -> float:
    """Backward matmuls: input, state and both weight gradients."""
    p, x = args[0], args[3]
    batch = x.shape[0] if x.ndim == 2 else 1
    n = p.hidden_dim
    return 4.0 * batch * GATES[p.kind.value] * n * (p.input_dim + n)


def held_bytes(obj) -> int:
    """Bytes of every distinct array buffer reachable from ``obj``."""
    seen, total, todo = set(), 0, [obj]
    while todo:
        o = todo.pop()
        if isinstance(o, np.ndarray):
            while isinstance(o.base, np.ndarray):
                o = o.base
            if id(o) not in seen:
                seen.add(id(o))
                total += o.nbytes
        elif id(o) in seen or isinstance(o, (type, enum.Enum, str, bytes)):
            continue
        elif isinstance(o, (list, tuple)):
            seen.add(id(o))
            todo.extend(o)
        elif isinstance(o, dict):
            seen.add(id(o))
            todo.extend(o.values())
        elif hasattr(o, "__dict__"):
            seen.add(id(o))
            todo.extend(vars(o).values())
    return total


def _trace_bytes(args, kwargs, result) -> float:
    return float(held_bytes(result))


def _file_bytes(args, kwargs, result) -> float:
    return float(os.path.getsize(args[0]))


HOOKS = [
    Hook("linalg.sigmoid", "neuroview.linalg", "sigmoid"),
    Hook("cells.cell_forward", "neuroview.cells", "cell_forward", _cell_flops),
    Hook("cells.cell_backward", "neuroview.cells", "cell_backward", _cell_backward_flops),
    Hook("network.encode", "neuroview.network", "encode", _trace_bytes),
    Hook("network.head_forward", "neuroview.network", "head_forward"),
    Hook("network.network_backward", "neuroview.network", "network_backward"),
    Hook("network.Model.forward", "neuroview.network", "Model.forward"),
    Hook("train.softmax_xent", "neuroview.train", "softmax_xent"),
    Hook("train.adam_step", "neuroview.train", "adam_step"),
    Hook("train.fit", "neuroview.train", "fit"),
    Hook("train.evaluate", "neuroview.train", "evaluate"),
    Hook("data.DataSet.features", "neuroview.data", "DataSet.features"),
    Hook("data.load_ucr", "neuroview.data", "load_ucr"),
    Hook("interpret.time_analysis", "neuroview.interpret", "time_analysis"),
    Hook("interpret.export_report", "neuroview.interpret", "export_report"),
    Hook("cli.main", "neuroview.cli", "main"),
    Hook("cli.load_checkpoint", "neuroview.cli", "load_checkpoint"),
    Hook("cli.save_checkpoint", "neuroview.cli", "save_checkpoint", _file_bytes),
]

# Per-layer metrics read straight off one hook, per traced op:
# (metric, unit, hook label, field).
HOOK_METRICS = [
    ("linalg.sigmoid.calls", "count", "linalg.sigmoid", "calls"),
    ("linalg.sigmoid.ms", "ms", "linalg.sigmoid", "ms"),
    ("cells.cell_forward.calls", "count", "cells.cell_forward", "calls"),
    ("cells.cell_forward.self_ms", "ms", "cells.cell_forward", "self_ms"),
    ("cells.cell_backward.calls", "count", "cells.cell_backward", "calls"),
    ("cells.cell_backward.self_ms", "ms", "cells.cell_backward", "self_ms"),
    ("network.encode.calls", "count", "network.encode", "calls"),
    ("network.encode.self_ms", "ms", "network.encode", "self_ms"),
    ("network.head_forward.ms", "ms", "network.head_forward", "ms"),
    ("network.network_backward.self_ms", "ms", "network.network_backward", "self_ms"),
    ("train.softmax_xent.ms", "ms", "train.softmax_xent", "ms"),
    ("train.adam_step.calls", "count", "train.adam_step", "calls"),
    ("train.adam_step.ms", "ms", "train.adam_step", "ms"),
    ("train.fit.self_ms", "ms", "train.fit", "self_ms"),
    ("train.evaluate.calls", "count", "train.evaluate", "calls"),
    ("train.evaluate.self_ms", "ms", "train.evaluate", "self_ms"),
    ("data.DataSet.features.ms", "ms", "data.DataSet.features", "ms"),
    ("data.load_ucr.ms", "ms", "data.load_ucr", "ms"),
    ("interpret.time_analysis.calls", "count", "interpret.time_analysis", "calls"),
    ("interpret.time_analysis.self_ms", "ms", "interpret.time_analysis", "self_ms"),
    ("interpret.export_report.ms", "ms", "interpret.export_report", "ms"),
    ("cli.load_checkpoint.ms", "ms", "cli.load_checkpoint", "ms"),
]

END_TO_END = ("setup_s", "work_rel.p50", "work_per_ref", "peak_rss_mb")


def load_library():
    """Import every library module from this checkout's ``src/``."""
    sys.path.insert(0, str(SRC))
    nv = SimpleNamespace(**{
        m: importlib.import_module(f"neuroview.{m}") for m in MODULES
    })
    for m in MODULES:
        where = Path(getattr(nv, m).__file__).resolve()
        if SRC.resolve() not in where.parents:
            raise ImportError(f"neuroview.{m} came from {where}, not {SRC}")
    return nv


def measure(wl, seconds: float, log: OpLog, tracer=None) -> dict:
    """Closed loop of whole cycles until ``seconds`` have passed.

    Each cycle is followed by one timed run of the workload's reference
    kernel. With a tracer, even cycles run untraced and odd cycles traced,
    and at least one of each runs.
    Returns per-cycle times, the reference time after each cycle and the
    work done, split by traced/untraced.
    """
    clock = time.perf_counter
    n = len(wl.cycle)
    phase = {traced: {"cycles": [], "refs": [], "work": 0, "ops": 0, "seconds": 0.0}
             for traced in (False, True)}
    deadline = clock() + seconds
    op = 0
    while True:
        traced = tracer is not None and (op // n) % 2 == 1
        side = phase[traced]
        cycle_s = 0.0
        for _ in range(n):
            kind = wl.cycle[op % n]
            wl.before(op)
            ctx = tracer.installed(op) if traced else contextlib.nullcontext()
            out, problems = None, []
            with ctx:
                t0 = clock()
                try:
                    out = wl.op(op)
                except Exception as e:  # a failed op is counted, not fatal
                    problems = [f"{type(e).__name__}: {e}"]
                    if log.failed < 3:
                        traceback.print_exc(file=sys.stderr)
                dt = clock() - t0
            if not problems:
                try:
                    problems = wl.check(op, out)
                except Exception as e:  # an unreadable output fails the op
                    problems = [f"check raised {type(e).__name__}: {e}"]
            log.record(f"{kind}:traced" if traced else kind, dt, problems)
            cycle_s += dt
            side["work"] += wl.work(kind)
            side["ops"] += 1
            side["seconds"] += dt
            op += 1
        side["cycles"].append(cycle_s)
        t0 = clock()
        wl.reference.run()
        side["refs"].append(clock() - t0)
        if clock() >= deadline and (tracer is None or phase[True]["cycles"]):
            return phase


def timing(name: str, samples_ms, unit: str = "ms") -> dict:
    """The median and the highest tail percentile with at least ten samples
    beyond it (none for small samples), with the sample count."""
    n = len(samples_ms)
    out = {f"{name}.p50": {"value": percentile(samples_ms, 50), "unit": unit, "n": n}}
    tail = tail_percentile(n)
    if tail is not None:
        out[f"{name}.p{tail:g}"] = {"value": percentile(samples_ms, tail),
                                    "unit": unit, "n": n}
    return out


def end_to_end(wl, name: str, log: OpLog, untraced: dict, setup_s: float,
               setups: list) -> dict:
    """The gated metrics, then wall-clock figures under each workload's own
    names.

    The gated times are relative: each cycle's wall time is divided by that
    of the reference kernel timed right after it, in the unit ``ref``.
    The wall-clock figures move with the host's speed and are not gated.
    """
    m = {"setup_s": {"value": setup_s, "unit": "s", "n": len(setups)}}
    units = wl.units_per_cycle
    cycles, refs = untraced["cycles"], untraced["refs"]
    m.update(timing("work_rel", relative(cycles, refs, units), "ref"))
    m["work_per_ref"] = {"value": per_reference(untraced["work"], cycles, refs),
                         "unit": "1/ref", "n": untraced["ops"]}
    m["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": "MB", "n": 1}
    m["reference_ms.p50"] = {"value": statistics.median(refs) * 1e3, "unit": "ms",
                             "n": len(refs)}
    per_s = {"value": untraced["work"] / untraced["seconds"], "unit": "1/s",
             "n": untraced["ops"]}
    if name.startswith("train"):
        m.update(timing("epoch_ms", [c * 1e3 / units for c in cycles]))
        m["train_seq_per_s"] = per_s
    else:
        m.update(timing("cycle_ms", [c * 1e3 for c in cycles]))
        for kind in wl.cycle:
            m.update(timing(f"{kind}_ms", [s * 1e3 for s in log.seconds.get(kind, [])]))
        m["cf_rows_per_s"] = per_s
    m["error_rate"] = {"value": log.error_rate, "unit": "ratio", "n": log.attempted}
    return m


def per_layer(tracer: Tracer, traced: dict, untraced: dict) -> dict:
    """Per-layer metrics per traced op, plus set-up and tracing costs."""
    n_ops = max(traced["ops"], 1)
    st = tracer.summary(lambda op: op >= 0)
    m = {}
    for metric, unit, label, field in HOOK_METRICS:
        if label in st:
            m[metric] = {"value": st[label][field] / n_ops, "unit": unit}
    fwd, bwd = st.get("cells.cell_forward"), st.get("cells.cell_backward")
    if fwd and bwd:
        flops = fwd["value"] + bwd["value"]
        busy_s = (fwd["self_ms"] + bwd["self_ms"]) / 1e3
        m["cells.flops"] = {"value": flops / n_ops, "unit": "flop", "computed": True}
        m["cells.gflop_per_s"] = {"value": flops / busy_s / 1e9 if busy_s else 0.0,
                                  "unit": "Gflop/s", "computed": True}
    enc = st.get("network.encode")
    if enc:
        m["network.trace_bytes"] = {
            "value": enc["value"] / enc["calls"] if enc["calls"] else 0.0,
            "unit": "B", "computed": True}
    if "network.Model.forward" in st and "interpret.time_analysis" in st:
        forwards = tracer.calls_under("network.Model.forward",
                                      "interpret.time_analysis", lambda op: op >= 0)
        m["interpret.rows_per_forward"] = {
            "value": traced["work"] / forwards if forwards else 0.0,
            "unit": "rows/forward"}
    su = tracer.summary(lambda op: op == SETUP_OP)
    save = su.get("cli.save_checkpoint")
    if save:
        m["cli.save_checkpoint.ms"] = {"value": save["ms"] / SETUP_REPEATS, "unit": "ms"}
        m["cli.checkpoint_bytes"] = {
            "value": save["value"] / save["calls"] if save["calls"] else 0.0,
            "unit": "B"}
    base = statistics.median(untraced["cycles"])
    with_trace = statistics.median(traced["cycles"]) if traced["cycles"] else base
    m["tracing.overhead_pct"] = {"value": (with_trace / base - 1.0) * 100.0, "unit": "%",
                                 "n": len(traced["cycles"])}
    return m


def identical_trees(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes() for k in a)


def machine_record(seed: int) -> dict:
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(KeyError, TypeError, AttributeError):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "seed": seed,
    }


def report(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        n = f"  (n={m['n']})" if "n" in m else ""
        tag = "  [computed]" if m.get("computed") else ""
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}{n}{tag}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "neuroview" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'neuroview'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    nv = load_library()
    import_s = time.perf_counter() - T_START

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    try:
        wl = workloads.make(nv, args.workload)
        tracer = Tracer(HOOKS) if args.trace else None
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            with tracer.installed(SETUP_OP) if tracer else contextlib.nullcontext():
                wl.setup(args.seed, workdir)
                wl.warm_up()
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)

        wl.prepare_checks()
        log = OpLog()
        phase = measure(wl, args.seconds, log, tracer)

        metrics = end_to_end(wl, args.workload, log, phase[False], setup_s, setups)
        layers = {}
        if tracer:
            untraced_tree = wl.identity_fit()
            with tracer.installed(IDENTITY_OP):
                traced_tree = wl.identity_fit()
            same = identical_trees(untraced_tree, traced_tree)
            log.record("bit-identity", 0.0,
                       [] if same else ["traced fit weights differ from untraced"])
            layers = per_layer(tracer, phase[True], phase[False])
            tracer.dump(OUT / f"{stem}-spans.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_record(args.seed),
        "attempted": log.attempted, "failed": log.failed, "failures": log.failures,
        "end_to_end": metrics, "per_layer": layers,
    }
    if tracer:
        record["absent_hooks"] = tracer.absent
        record["hook_aliases"] = tracer.aliases()
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    report(f"{args.workload} seed={args.seed} trace={args.trace} "
           f"ops={log.attempted} failed={log.failed}", metrics)
    if tracer:
        report("per-layer (per traced op)", layers)
        if tracer.absent:
            print("  absent hooks: " + ", ".join(tracer.absent))
    for line in log.failures:
        print(f"  FAILED {line}")

    chosen = layers if args.trace else {k: metrics[k] for k in END_TO_END}
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
