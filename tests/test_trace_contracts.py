"""The trace contracts, checked as one seeded property.

A pass may borrow the arrays of an earlier trace (``encode``'s ``out``),
resume one in place from step ``t0`` (``resume``) and run forward only
(``gates=False``), and ``sweep`` chains such passes, split over two
processes when it forks. Each pass must raise the one documented
``ValueError``, or give the bits of a fresh pass in every array. Rather
than hand-picked cases, each case is drawn from a seeded generator: a
cell, 1 or 2 layers, one or two directions, a batch size, a horizon around
``cells.CHUNK``, ``gates``, ``t0`` and a lender, which is no trace, an
earlier pass of the same model, or a pass of a model whose encoder differs
from its in one field or of another random model.

A fork that copies live BLAS threads can deadlock the child, so the sweeps
with the fork forced on run in one child interpreter with BLAS pinned to
one thread, as in ``tests/test_sweep_processes.py``. Run as a script, this
file is that interpreter: ``python tests/test_trace_contracts.py`` prints
the JSON list of the problems it found.
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from neuroview import interpret
from neuroview.cells import CHUNK, CellKind, InitKind, InitScheme
from neuroview.data import DataSet
from neuroview.interpret import AblationMode, AblationTarget, rank_timesteps, sweep
from neuroview.network import HeadKind, EncoderConfig, encode, head_forward, network_backward
from neuroview.train import build_model

from test_sweep_processes import _leftover_children, _patched

SEED = 0
CHAINS = 400
SWEEPS = 60
BATCHES = (1, 2, 3, 5, 58)

BIDIRECTIONAL = "only a unidirectional encoder can resume mid-sequence"
ENCODER = ("a pass resumes into a trace of the same encoder, batch size and gates, "
           "and borrows only from a trace of as many layers")
KERNEL = "a run resumes into a trace of the same kind, shapes and gates"
FIELDS = ("xa", "ha", "gates", "aux", "y", "h0a", "c0")


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _model(rng, head=None, enc=None):
    """A random model, of the encoder ``enc`` if given."""
    enc = enc or EncoderConfig(_pick(rng, list(CellKind)), int(rng.integers(1, 3)),
                               int(rng.integers(1, 5)), int(rng.integers(1, 2 * CHUNK + 3)),
                               layers=int(rng.integers(1, 3)),
                               bidirectional=rng.random() < 1 / 3)
    return build_model(enc, head or _pick(rng, list(HeadKind)), int(rng.integers(2, 4)),
                       InitScheme(InitKind.UNIFORM, int(rng.integers(100))),
                       bool(rng.integers(2)))


def _refusal(model, B, gates, t0, held):
    """The message of the error ``encode(model, x, t0, lender, gates)``
    must raise, for a (B, T, m) batch ``x`` and ``held``, the lender's
    ``(model, x, gates, trace)`` or None; None if it must not raise."""
    cfg = model.encoder
    if not 0 <= t0 < cfg.max_len:
        return f"resume must be in [0, {cfg.max_len}), got {t0}"
    if t0 and cfg.bidirectional:
        return BIDIRECTIONAL
    if held is None:
        return ENCODER if t0 else None
    lender, x, lender_gates, _ = held
    other = lender.encoder
    if other.layers != cfg.layers:
        return ENCODER
    if t0 and ((other.cell, other.max_len, other.directions, len(x), other.hidden_dim,
                lender_gates) != (cfg.cell, cfg.max_len, 1, B, cfg.hidden_dim, gates)
               or gates and other.input_dim != cfg.input_dim):
        return KERNEL
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


def _lender(rng, model):
    """``(model, x, gates, trace)`` of a pass of ``model``, of a model
    whose encoder differs from its in one field, or of another random
    model, with or without its head and backward pass; or None."""
    kind = _pick(rng, ("none", "same", "same", "variant", "other"))
    if kind == "none":
        return None
    if kind == "same":
        lender = model
    elif kind == "other":
        lender = _model(rng)
    else:
        cfg = model.encoder
        field, value = _pick(rng, [
            ("cell", _pick(rng, [c for c in CellKind if c is not cfg.cell])),
            ("input_dim", cfg.input_dim + 1), ("hidden_dim", cfg.hidden_dim + 1),
            ("max_len", cfg.max_len + 1), ("layers", 3 - cfg.layers),
            ("bidirectional", not cfg.bidirectional)])
        lender = _model(rng, enc=dataclasses.replace(cfg, **{field: value}))
    cfg = lender.encoder
    x = rng.normal(size=(_pick(rng, BATCHES), cfg.max_len, cfg.input_dim))
    gates = bool(rng.integers(2))
    trace = encode(lender, x, gates=gates)
    if rng.integers(3):
        logits = head_forward(lender, trace)
        if gates and rng.integers(2):
            network_backward(lender, trace, rng.normal(size=logits.shape))
    return lender, x, gates, trace


def _check_pass(rng, model, held, problems):
    """One drawn pass of ``model`` into ``held``'s trace, checked against a
    fresh pass; returns what the next pass may borrow."""
    cfg = model.encoder
    T = cfg.max_len
    keep = held is not None and rng.random() < 0.75
    B = len(held[1]) if keep else _pick(rng, BATCHES)
    gates = held[2] if keep else bool(rng.integers(2))
    t0 = int(rng.integers(T)) if rng.integers(2) else _pick(rng, (0,) * 8 + (-1, T))
    x = rng.normal(size=(B, T, cfg.input_dim))
    refusal = _refusal(model, B, gates, t0, held)
    if held is not None and held[0] is model and held[1].shape == x.shape:
        x[:, :max(t0, 0)] = held[1][:, :max(t0, 0)]
    elif t0 > 0 and refusal is None:
        # A trace of another model with the same shapes: nothing can tell,
        # so it may only lend its arrays.
        t0 = 0
    lent = {} if held is None else _buffers(held[3])
    try:
        got = encode(model, x, t0, None if held is None else held[3], gates)
    except ValueError as e:
        if str(e) != refusal:
            problems.append(f"raised {str(e)!r}, not {refusal!r}")
        # Nothing was written, so the next pass may borrow the same trace.
        return held
    if refusal is not None:
        problems.append(f"did not raise {refusal!r}")
        return None

    want = encode(model, x)
    want_logits = head_forward(model, want)
    logits = head_forward(model, got)
    # A forward-only pass keeps no inputs, no gates and, but for an lstm's
    # cell states, no aux, and its head forms no step logits.
    pairs = [("logits", logits, want_logits),
             ("q", got.q, want.q),
             ("step_logits", got.step_logits, want.step_logits if gates else None)]
    for layer, (tr, tw) in enumerate(zip(got.gate_traces, want.gate_traces)):
        for name in FIELDS:
            kept = gates or name in ("ha", "y", "h0a", "c0") or (
                name == "aux" and cfg.cell is CellKind.LSTM)
            pairs.append((f"layer {layer} {name}", getattr(tr, name),
                          getattr(tw, name) if kept else None))
    # Compared before the backward pass writes over q.
    problems += [f"{name} differs from a fresh pass's" for name, a, b in pairs
                 if not _same(a, b)]
    # Every array the pass exposes lies in one it holds by name.
    exposed = [(got.buffers, got.q), (got.buffers, got.step_logits)] + [
        (tr.buffers, getattr(tr, name)) for tr in got.gate_traces for name in FIELDS[:5]]
    if gates:
        gl = rng.normal(size=logits.shape)
        grads = [np.empty_like(model.params) for _ in range(2)]
        network_backward(model, got, gl, grads[0])
        network_backward(model, want, gl, grads[1])
        if not _same(*grads):
            problems.append("the gradient differs from a fresh pass's")
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
    return model, x, gates, got


def chain_problems(case):
    """What is wrong with chain ``case``: a lender, then one to three passes
    of one model, each borrowing the trace of the one before."""
    rng = np.random.default_rng([SEED, case])
    model = _model(rng)
    held = _lender(rng, model)
    problems = []
    for step in range(int(rng.integers(1, 4))):
        found = []
        held = _check_pass(rng, model, held, found)
        problems += [f"chain {case} pass {step}: {p}" for p in found]
    return problems


def sweep_problems(two_processes):
    """What is wrong with the drawn sweeps, their fork forced on or off:
    a row whose logits are not a fresh pass's bits, a row reported with the
    wrong steps, the wrong number of forks, or a child left behind."""
    problems = []
    for case in range(SWEEPS):
        rng = np.random.default_rng([SEED, CHAINS + case])
        model = _model(rng, HeadKind.NEUROVIEW)
        cfg, d = model.encoder, model.num_classes
        B = _pick(rng, BATCHES[:-1])
        ds = DataSet(rng.normal(size=(B, cfg.max_len, cfg.input_dim)),
                     rng.integers(d, size=B), np.arange(d))
        rows = [(int(rng.integers(d)), int(rng.integers(cfg.max_len + 1)),
                 _pick(rng, list(AblationMode)), _pick(rng, list(AblationTarget)))
                for _ in range(int(rng.integers(1, 13)))]
        layer, direction = int(rng.integers(cfg.layers)), int(rng.integers(cfg.directions))
        scored, forks = [], []
        real_report, real_fork = interpret.eval_report, os.fork
        with _patched(interpret, eval_report=lambda logits, *a: scored.append(logits)
                      or real_report(logits, *a), _two_processes=lambda n: two_processes), \
                _patched(os, fork=lambda: forks.append(1) or real_fork()):
            results = sweep(model, ds, rows, layer, direction)
        found, sets = _leftover_children() if two_processes else [], set()
        for row, result, logits in zip(rows, results, scored):
            c, k, mode, target = row
            steps = rank_timesteps(model, c, mode, layer, direction)[:k].tolist()
            if (result.class_index, result.k, result.mode, result.target,
                    result.zeroed_steps) != (*row, steps):
                found.append(f"row {row} reported as {result}")
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
                found.append(f"row {row} differs from a fresh pass")
        if len(forks) != (two_processes and len(sets) >= 2):
            found.append(f"{len(forks)} forks for {len(sets)} step sets")
        problems += [f"sweep {case}: {p}" for p in found]
    return problems


def test_every_pass_raises_the_one_error_or_equals_a_fresh_pass():
    assert [p for case in range(CHAINS) for p in chain_problems(case)] == []


def test_serial_sweeps_equal_fresh_passes():
    assert sweep_problems(False) == []


@pytest.mark.skipif(not sys.platform.startswith("linux") or not hasattr(os, "fork"),
                    reason="the two-process sweep runs only on Linux")
def test_forked_sweeps_equal_fresh_passes():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


if __name__ == "__main__":
    threads = len(os.listdir("/proc/self/task"))
    print(json.dumps(sweep_problems(True) if threads == 1
                     else [f"{threads} threads: BLAS is not pinned"]))
