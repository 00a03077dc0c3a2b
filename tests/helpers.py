"""Shared test utilities: the central finite-difference oracle, and the
one checker of the trace contracts, ``pass_problems`` and
``sweep_problems``, which the seeded property in
``tests/test_trace_contracts.py`` and the fixed cases both run."""

import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from neuroview import interpret
from neuroview.cells import CellKind, named_views
from neuroview.interpret import AblationTarget, rank_timesteps, sweep
from neuroview.network import HeadKind, encode, head_forward, network_backward


def rel_err(a, b, floor=1e-8):
    """Relative disagreement with an absolute floor on the denominator."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def finite_diff_tree(scalar_fn, arrays, eps=1e-5):
    """Central-difference gradient of ``scalar_fn()`` w.r.t. every entry of
    every array in the name -> ndarray map. Arrays are perturbed in place
    and restored, so ``scalar_fn`` must read them live."""
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            old = arr[idx]
            arr[idx] = old + eps
            up = scalar_fn()
            arr[idx] = old - eps
            down = scalar_fn()
            arr[idx] = old
            g[idx] = (up - down) / (2.0 * eps)
        grads[name] = g
    return grads


def max_tree_rel_err(analytic, numeric, floor=1e-8):
    assert set(analytic) == set(numeric)
    return max(rel_err(analytic[k], numeric[k], floor) for k in analytic)


def named_cell_grads(model, layer_grads):
    """Each cell's slices of ``network_backward``'s stacked per-layer
    gradient blocks, cell ``l*D + d`` taking layer l's ``[d]``, as a
    name -> view map."""
    cfg = model.encoder
    D = cfg.directions
    return [named_views(cfg.cell, cfg.hidden_dim, *(G[i % D] for G in layer_grads[i // D]))
            for i in range(cfg.num_cells())]


def grad_tree(model, grad_V, layer_grads):
    """``network_backward``'s gradients under ``param_tree``'s names."""
    tree = {f"cell{i}.{name}": g
            for i, grads in enumerate(named_cell_grads(model, layer_grads))
            for name, g in grads.items()}
    tree["head.V"] = grad_V
    return tree


# ------------------------------------------------------- trace contracts

ENCODER = ("a pass resumes into a trace of the same encoder, batch size and gates, "
           "and borrows only from a trace of as many layers")
FIELDS = ("xa", "ha", "gates", "aux", "y", "h0a", "c0")


def _refusal(model, B, gates, t0, lender):
    """The message of the error ``encode(model, x, t0, lender, gates)``
    must raise, for a (B, T, m) batch ``x`` and ``lender``, the
    ``(model, x, gates, trace)`` of an earlier pass or None; None if it
    must not raise."""
    cfg = model.encoder
    if not 0 <= t0 < cfg.max_len:
        return f"resume must be in [0, {cfg.max_len}), got {t0}"
    if t0 and cfg.bidirectional:
        return "only a unidirectional encoder can resume mid-sequence"
    if lender is None:
        return ENCODER if t0 else None
    other, x, lender_gates, _ = lender
    other = other.encoder
    if other.layers != cfg.layers:
        return ENCODER
    if t0 and ((other.cell, other.max_len, other.directions, len(x), other.hidden_dim,
                lender_gates) != (cfg.cell, cfg.max_len, 1, B, cfg.hidden_dim, gates)
               or gates and other.input_dim != cfg.input_dim):
        return "a run resumes into a trace of the same kind, shapes and gates"
    return None


def _buffers(trace):
    """Every array a trace holds by name, its layers' included."""
    arrays = dict(trace.buffers)
    arrays.update({(layer, name): a for layer, tr in enumerate(trace.gate_traces)
                   for name, a in tr.buffers.items()})
    return arrays


def _same(a, b):
    if a is None or b is None:
        return a is b
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def pass_problems(model, x, t0, lender, gates, gl):
    """What is wrong with ``encode(model, x, t0, lender's trace, gates)``,
    ``head_forward`` and, given the upstream gradient ``gl``,
    ``network_backward``: a refusal other than ``_refusal``'s; an array or
    gradient that is not a fresh pass's; an exposed array outside the
    trace's buffers; a lent buffer of the shape asked for allocated anew,
    or one of another shape written into. A lender is the ``(model, x,
    gates, trace)`` of an earlier pass, whose ``x`` equals this one before
    ``t0``, or None. Returns the problems and what the next pass may
    borrow: the lender after a refusal, else this pass, or None."""
    cfg = model.encoder
    refusal = _refusal(model, len(x), gates, t0, lender)
    lent = {} if lender is None else _buffers(lender[3])
    try:
        got = encode(model, x, t0, None if lender is None else lender[3], gates)
    except ValueError as e:
        # Nothing was written, so the next pass may borrow the same trace.
        return [] if str(e) == refusal else [f"raised {str(e)!r}, not {refusal!r}"], lender
    if refusal is not None:
        return [f"did not raise {refusal!r}"], None

    want = encode(model, x)
    want_logits = head_forward(model, want)
    logits = head_forward(model, got)
    # A forward-only pass keeps no inputs, no gates and, but for an lstm's
    # cell states, no aux, and its head forms no step logits.
    pairs = [("logits", logits, want_logits), ("q", got.q, want.q),
             ("step_logits", got.step_logits, want.step_logits if gates else None)]
    for layer, (tr, tw) in enumerate(zip(got.gate_traces, want.gate_traces)):
        for name in FIELDS:
            kept = gates or name in ("ha", "y", "h0a", "c0") or (
                name == "aux" and cfg.cell is CellKind.LSTM)
            pairs.append((f"layer {layer} {name}", getattr(tr, name),
                          getattr(tw, name) if kept else None))
    # Compared before the backward pass writes over q.
    problems = [f"{name} differs from a fresh pass's" for name, a, b in pairs
                if not _same(a, b)]
    # Every array the pass exposes lies in one it holds by name.
    exposed = [(got.buffers, got.q), (got.buffers, got.step_logits)] + [
        (tr.buffers, getattr(tr, name)) for tr in got.gate_traces for name in FIELDS[:5]]
    if gl is not None:
        grads = [np.empty_like(model.params) for _ in range(2)]
        network_backward(model, got, gl, grads[0])
        network_backward(model, want, gl, grads[1])
        if not _same(*grads):
            problems.append("the gradient differs from a fresh pass's")
        if model.head_kind is HeadKind.NEUROVIEW and got.q is not None:
            problems.append("the backward pass left q")
    problems += ["an array lies outside the trace's buffers" for buffers, a in exposed
                 if a is not None and not any(np.shares_memory(a, b)
                                              for b in buffers.values())]
    # Each lent array of the shape and dtype asked for is written over; any
    # other is allocated.
    for key, a in _buffers(got).items():
        old = lent.get(key)
        if old is not None and (old.shape, old.dtype) == (a.shape, a.dtype):
            if not np.shares_memory(a, old):
                problems.append(f"{key} was allocated, not borrowed")
        elif any(np.shares_memory(a, b) for b in lent.values()):
            problems.append(f"{key} was written into a lent array of another shape")
    return problems, (model, x, gates, got)


@contextlib.contextmanager
def _patched(owner, **names):
    """``owner``'s attributes in ``names`` replaced for the block."""
    saved = {name: getattr(owner, name) for name in names}
    for name, value in names.items():
        setattr(owner, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(owner, name, value)


def _leftover_children():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return []
    return ["a child outlived the sweep"]


def counted_sweep(model, ds, rows, layer, direction, two_processes):
    """``sweep``'s results, the logits it scored each row on and the number
    of forks it made, its fork forced on or off."""
    scored, forks = [], []
    real_report, real_fork = interpret.eval_report, os.fork
    with _patched(interpret, eval_report=lambda logits, *a: scored.append(logits)
                  or real_report(logits, *a), _two_processes=lambda *_: two_processes), \
            _patched(os, fork=lambda: forks.append(1) or real_fork()):
        return sweep(model, ds, rows, layer, direction), scored, len(forks)


def sweep_problems(model, ds, rows, layer, direction, two_processes):
    """What is wrong with ``sweep(model, ds, rows, layer, direction)``, its
    fork forced on or off: a row whose logits are not a fresh pass's bits,
    with its ``q`` blocks zeroed for a weights row; a row reported with the
    wrong steps; other than one fork for a forced sweep of two or more
    input step sets and none else; or a child left behind."""
    cfg, B = model.encoder, len(ds.X)
    results, scored, forks = counted_sweep(model, ds, rows, layer, direction, two_processes)
    problems, sets = _leftover_children() if two_processes else [], set()
    for row, result, logits in zip(rows, results, scored):
        c, k, mode, target = row
        steps = rank_timesteps(model, c, mode, layer, direction)[:k].tolist()
        if (result.class_index, result.k, result.mode, result.target,
                result.zeroed_steps) != (*row, steps):
            problems.append(f"row {row} reported as {result}")
        X = ds.features().copy()
        if target is AblationTarget.INPUTS:
            X[:, steps] = 0.0
            want, _ = model.forward(X)
            sets |= {tuple(sorted(steps))} - {()}
        else:
            _, trace = model.forward(X)
            trace.q.reshape(B, *cfg.nv_shape)[:, layer, steps] = 0.0
            want = trace.q @ model.V.T
        if not _same(logits, want):
            problems.append(f"row {row} differs from a fresh pass")
    if forks != (two_processes and len(sets) >= 2):
        problems.append(f"{forks} forks for {len(sets)} step sets")
    return problems


def run_pinned(script, *args, preexec_fn=None):
    """The JSON that ``python script *args`` prints, run with ``src`` on its
    path and BLAS pinned to one thread, so that it may fork; it must exit 0."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, script, *args], capture_output=True, text=True,
                          env=env, timeout=120, preexec_fn=preexec_fn)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)
