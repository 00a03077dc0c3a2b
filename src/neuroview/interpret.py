"""Reading the classifier: timestep weight maps, class similarity, and
input-ablation counterfactuals.

Everything here takes a model with the per-timestep ("NeuroView") head
and works off its trained global matrix ``model.V``. Row i of V scores
class i as an inner product with the rectified, concatenated hidden
states, so the row decomposes exactly into one block per (layer,
timestep, direction). Those blocks are the raw material for:

* weight maps   -- a class's row viewed as its (layer, t, direction,
                   unit) blocks, and their means over the units;
* similarity    -- cosine similarity between any two classes' rows;
* time analysis -- zero the inputs (or the classifier blocks) at a
                   class's top-K (most positive or most negative)
                   timesteps and re-evaluate the model.

``sweep`` evaluates many such rows on one unablated forward pass: a
classifier-block row masks that pass's nv features in place, input rows
with the same zeroed steps share one pass, and each such pass writes into
the unablated pass's arrays, a unidirectional encoder's from its first
zeroed step on. On Linux with two usable CPUs, a process with a single
OS thread (BLAS pinned to one thread) forks one child before the
unablated pass; the child runs about half of the input passes from the
inputs alone, on arrays of its own, and writes their logits into an
array in shared memory. The results are the same bits either way.
"""

from __future__ import annotations

import csv
import enum
import json
import mmap
import os
import signal
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence

import numpy as np

from .network import HeadKind, Model, _integer, encode, head_forward
from .data import DataSet
from .train import EvalReport, eval_report


class AblationMode(enum.Enum):
    TOP_POSITIVE = "top-positive"
    TOP_NEGATIVE = "top-negative"


class AblationTarget(enum.Enum):
    INPUTS = "inputs"    # zero the input features at the chosen timesteps
    WEIGHTS = "weights"  # zero the classifier blocks at the chosen timesteps


@dataclass
class CounterfactualResult:
    class_index: int
    k: int
    zeroed_steps: List[int]
    mode: AblationMode
    target: AblationTarget
    report: EvalReport


def _require_nv(model: Model):
    if model.head_kind is not HeadKind.NEUROVIEW:
        raise ValueError(
            "interpretability requires the per-timestep (NeuroView) head; "
            f"got {model.head_kind.value!r}"
        )


def _index(name: str, value, stop: int) -> int:
    """``value`` as a plain int in ``[0, stop)``."""
    value = _integer(name, value)
    if not 0 <= value < stop:
        raise ValueError(f"{name} {value} outside [0, {stop})")
    return value


def weight_map(model: Model, class_index: int) -> np.ndarray:
    """A copy of class ``class_index``'s row of ``model.V`` as a
    ``(layers, T, directions, hidden_dim)`` array of per-timestep blocks;
    ``.mean(axis=3)`` gives each block's mean weight."""
    _require_nv(model)
    class_index = _index("class", class_index, model.num_classes)
    cfg = model.encoder
    return model.V[class_index].reshape(*cfg.nv_shape[:2], cfg.directions,
                                        cfg.hidden_dim).copy()


def class_similarity(model: Model) -> np.ndarray:
    """(d, d) cosine similarity between every pair of rows of the model's
    ``V``: symmetric, with a unit diagonal."""
    _require_nv(model)
    d = model.num_classes
    if d < 2:
        raise ValueError(f"similarity needs at least 2 classes, got {d}")
    norms = np.linalg.norm(model.V, axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise ValueError(f"class {int(zero[0])} has a zero weight row")
    R = model.V / norms[:, None]
    S = R @ R.T
    S = np.clip((S + S.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(S, 1.0)
    return S


def rank_timesteps(model: Model, class_index: int, mode: AblationMode,
                   layer: int = 0, direction: int = 0) -> np.ndarray:
    """Timesteps ordered by the class's mean block weight in one
    ``layer`` and ``direction`` of the model's ``V``.

    Descending for TOP_POSITIVE, ascending for TOP_NEGATIVE; ties resolve
    toward the lower timestep index, so rankings are reproducible.
    """
    cfg = model.encoder
    layer = _index("layer", layer, cfg.layers)
    direction = _index("direction", direction, cfg.directions)
    if not isinstance(mode, AblationMode):
        raise ValueError(f"mode must be an AblationMode, got {mode!r}")
    means = weight_map(model, class_index).mean(axis=3)[layer, :, direction]
    key = -means if mode is AblationMode.TOP_POSITIVE else means
    return np.argsort(key, kind="stable")


def sweep(model: Model, dataset: DataSet, rows: Sequence[tuple],
          layer: int = 0, direction: int = 0) -> List[CounterfactualResult]:
    """Counterfactual evaluations after silencing classes' top-K timesteps,
    one per row ``(class_index, k, mode, target)``, in row order.

    Timesteps are ranked by the row class's mean per-step weights (one
    layer/direction block; layer 0 forward by default). The INPUTS target
    zeroes the input features at those steps for every sample; the WEIGHTS
    target zeroes the classifier's weight blocks instead, which equals
    zeroing those (layer, step) blocks of the nv features ``q``.

    The unablated forward pass runs once, and every pass after it writes
    into its arrays. A WEIGHTS row zeroes its blocks of that pass's ``q``,
    scores it against ``V`` and restores them. INPUTS rows with the same
    step set share one pass, and an empty set reads the unablated scores.
    The sets run in descending order of their first zeroed step ``t0``,
    each resumed at ``t0`` (``encode``'s ``resume``): a pass writes only
    steps from its ``t0`` on, so every later one still finds the unablated
    states and ``q`` before its own. Sets that zero step 0, and every pass
    of a bidirectional encoder, rewrite the whole trace and run last. All
    scores are bit-identical to fresh full passes'.

    When ``_two_processes`` holds (Linux, two usable CPUs, two or more
    step sets and a process with one OS thread, as with BLAS pinned to
    one thread), a child forked before the unablated pass runs about half
    of the sets from the inputs alone, in descending ``t0`` on a trace of
    its own, and writes their logits into an array in shared memory. If
    it cannot start, or does not exit 0, this process runs its sets too,
    the same way. The scores do not depend on which process ran a set.
    """
    _require_nv(model)
    cfg = model.encoder
    plans = []
    for class_index, k, mode, target in rows:
        class_index = _index("class", class_index, model.num_classes)
        k = _integer("k", k)
        if not 0 <= k <= cfg.max_len:
            raise ValueError(f"k must be in [0, {cfg.max_len}], got {k}")
        if not isinstance(target, AblationTarget):
            raise ValueError(f"target must be an AblationTarget, got {target!r}")
        order = rank_timesteps(model, class_index, mode, layer, direction)
        steps = [int(t) for t in order[:k]]
        plans.append((class_index, k, steps, mode, target, tuple(sorted(steps))))

    X = dataset.features()
    ablated = sorted({steps for *_, target, steps in plans
                      if steps and target is AblationTarget.INPUTS},
                     key=lambda steps: (-steps[0], steps))
    mine, theirs, pid = ablated, [], None
    if _two_processes(len(ablated)):
        mine, theirs = _split(ablated, cfg.max_len, cfg.bidirectional)
        pid, shared = _fork(model, X, theirs)
    try:
        trace = encode(model, X, gates=False)
        base_logits = head_forward(model, trace)
        logits_of = {(target, ()): base_logits for target in AblationTarget}
        q = trace.q.reshape(len(X), *cfg.nv_shape)
        for *_, target, steps in plans:
            if target is AblationTarget.WEIGHTS and (target, steps) not in logits_of:
                kept = q[:, layer, steps]
                q[:, layer, steps] = 0.0
                logits_of[target, steps] = trace.q @ model.V.T
                q[:, layer, steps] = kept
        got = _passes(model, X, trace, mine)
    except BaseException:
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    if pid and os.waitpid(pid, 0)[1] == 0:
        got += list(shared.copy())
    else:
        got += _passes(model, X, None, theirs)
    for steps, logits in zip(mine + theirs, got):
        logits_of[AblationTarget.INPUTS, steps] = logits
    return [CounterfactualResult(class_index, k, steps, mode, target,
                                 eval_report(logits_of[target, key], dataset.labels(),
                                             model.num_classes))
            for class_index, k, steps, mode, target, key in plans]


def _two_processes(n_sets: int) -> bool:
    """Whether ``sweep`` forks a child for part of its ``n_sets`` ablated
    passes: on Linux with ``os.fork``, two or more usable CPUs and sets,
    and only in a process with one OS thread, since a fork that copies a
    live BLAS or OpenMP thread pool can deadlock the child."""
    if n_sets < 2 or not sys.platform.startswith("linux") or not hasattr(os, "fork"):
        return False
    try:
        return (len(os.sched_getaffinity(0)) >= 2
                and len(os.listdir("/proc/self/task")) == 1)
    except OSError:
        return False


def _split(sets: Sequence[tuple], T: int, bidirectional: bool) -> tuple:
    """The step sets as two lists that hold each set once, balanced by a
    longest-first greedy split on the steps each pass recomputes (``T -
    t0``, or ``T`` for a bidirectional encoder), each in descending
    ``t0``."""
    def load(steps):
        return T if bidirectional else T - steps[0]

    sides, loads = ([], []), [0, 0]
    for steps in sorted(sets, key=lambda steps: (-load(steps), steps)):
        side = 0 if loads[0] <= loads[1] else 1
        sides[side].append(steps)
        loads[side] += load(steps)
    return tuple(sorted(side, key=lambda steps: -steps[0]) for side in sides)


def _passes(model: Model, X: np.ndarray, trace, sets: Sequence[tuple]) -> List[np.ndarray]:
    """The logits of one forward pass per step set, over ``X`` with the
    set's steps zeroed, in the order given: descending first zeroed step
    ``t0``. Each pass writes into ``trace`` from its ``t0`` on (from 0 for
    a bidirectional encoder), so each finds the states before its ``t0``
    as ``trace`` had them. With no ``trace``, the first pass makes one."""
    out = []
    for steps in sets:
        Xa = X.copy()
        Xa[:, steps] = 0.0
        t0 = 0 if trace is None or model.encoder.bidirectional else steps[0]
        trace = encode(model, Xa, t0, trace, gates=False)
        out.append(head_forward(model, trace))
    return out


def _fork(model: Model, X: np.ndarray, sets: Sequence[tuple]) -> tuple:
    """``(pid, rows)``: a forked child that runs ``_passes(model, X, None,
    sets)`` and writes its logits, one row per set, into ``rows``, an
    array in shared memory, and exits 0 after the last row; ``(None,
    None)`` when the mapping or the fork raised ``OSError``."""
    shape = (len(sets), len(X), model.num_classes)
    try:
        rows = np.ndarray(shape, np.float64, buffer=mmap.mmap(-1, 8 * int(np.prod(shape))))
        pid = os.fork()
    except OSError:
        return None, None
    if pid == 0:
        # Only os._exit ends the child, and exit status 0 only once every
        # row is written: no atexit handler or stdio flush of the parent's.
        try:
            rows[...] = _passes(model, X, None, sets)
            os._exit(0)
        finally:
            os._exit(1)
    return pid, rows


def time_analysis(model: Model, dataset: DataSet, class_index: int, k: int,
                  mode: AblationMode = AblationMode.TOP_POSITIVE,
                  target: AblationTarget = AblationTarget.INPUTS,
                  layer: int = 0, direction: int = 0) -> CounterfactualResult:
    """``sweep`` of the one row ``(class_index, k, mode, target)``."""
    return sweep(model, dataset, [(class_index, k, mode, target)], layer, direction)[0]


def _write_csv(path: Path, header: List[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def export_weight_map_csv(m: np.ndarray, path) -> None:
    """One CSV per class: timestep, mean_weight, unit_0..unit_{n-1}, for a
    ``weight_map`` array ``m``.

    Single-layer unidirectional maps write exactly that schema; deeper or
    bidirectional maps prepend layer and direction columns. Floats are
    written with full round-trip precision.
    """
    layers, T, directions, n = m.shape
    means = m.mean(axis=3)
    lead_cols = ["layer", "direction"] if layers > 1 or directions > 1 else []
    header = lead_cols + ["timestep", "mean_weight"] + [f"unit_{u}" for u in range(n)]
    rows = []
    for layer in range(layers):
        for direction in range(directions):
            lead = [layer, direction] if lead_cols else []
            for t in range(T):
                rows.append(lead + [t, repr(float(means[layer, t, direction]))]
                            + [repr(float(v)) for v in m[layer, t, direction]])
    _write_csv(Path(path), header, rows)


def export_similarity_csv(sim: np.ndarray, path) -> None:
    d = sim.shape[0]
    header = ["class"] + [f"class_{j}" for j in range(d)]
    rows = [
        [i] + [repr(float(v)) for v in sim[i]]
        for i in range(d)
    ]
    _write_csv(Path(path), header, rows)


def counterfactual_rows(results: Sequence[CounterfactualResult]) -> List[dict]:
    rows = []
    for r in results:
        rows.append({
            "class": r.class_index,
            "k": r.k,
            "mode": r.mode.value,
            "target": r.target.value,
            "zeroed_steps": r.zeroed_steps,
            "overall_accuracy": r.report.overall_accuracy,
            "per_class_accuracy": [
                None if np.isnan(a) else float(a)
                for a in r.report.per_class_accuracy
            ],
        })
    return rows


def export_report(model: Model, classes: Sequence[int],
                  counterfactuals: Sequence[CounterfactualResult], out_dir) -> List[Path]:
    """Write the analysis bundle of ``model``: one weight-map CSV per class
    in ``classes``, the class-similarity CSV when the model has 2 or more
    classes, one JSON of counterfactual rows, plus a manifest listing
    them. The maps and the similarity are formed before any file is
    written, so a model they reject, or a class listed twice, leaves no
    file."""
    classes = list(classes)
    maps = [(c, weight_map(model, c)) for c in classes]
    for i, c in enumerate(classes):
        if c in classes[:i]:
            raise ValueError(f"class {c} is listed twice")
    similarity = class_similarity(model) if model.num_classes >= 2 else None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for c, m in maps:
        p = out / f"weight_map_class{c}.csv"
        export_weight_map_csv(m, p)
        written.append(p)
    if similarity is not None:
        p = out / "class_similarity.csv"
        export_similarity_csv(similarity, p)
        written.append(p)
    if counterfactuals:
        p = out / "counterfactuals.json"
        with open(p, "w") as fh:
            json.dump(counterfactual_rows(counterfactuals), fh, indent=2)
            fh.write("\n")
        written.append(p)
    manifest = out / "manifest.json"
    with open(manifest, "w") as fh:
        json.dump({"files": [f.name for f in written]}, fh, indent=2)
        fh.write("\n")
    written.append(manifest)
    return written
