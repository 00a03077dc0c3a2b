"""The trace contracts, checked as one seeded property.

A pass may borrow the arrays of an earlier trace (``encode``'s ``out``),
resume one in place from step ``t0`` (``resume``) and run forward only
(``gates=False``), and ``sweep`` chains such passes, split over two
processes when it forks. Each pass must raise the one documented
``ValueError``, or give the bits of a fresh pass in every array. The
checker, ``pass_problems`` and ``sweep_problems`` in ``tests/helpers.py``,
also runs the fixed cases of the other test modules; here each case is
drawn: a cell, 1 or 2 layers, one or two directions, a batch size, a
horizon around ``cells.CHUNK``, ``gates``, ``t0`` and a lender, which is
no trace, an earlier pass of the same model, or a pass of a model whose
encoder differs from its in one field or of another random model.

A fork that copies live BLAS threads can deadlock the child, so the sweeps
with the fork forced on run in one child interpreter with BLAS pinned to
one thread, as in ``tests/test_sweep_processes.py``. Run as a script, this
file is that interpreter: ``python tests/test_trace_contracts.py`` prints
the JSON list of the problems it found.
"""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

from neuroview.cells import CHUNK, CellKind, InitKind, InitScheme
from neuroview.data import DataSet
from neuroview.interpret import AblationMode, AblationTarget
from neuroview.network import HeadKind, EncoderConfig, encode, head_forward, network_backward
from neuroview.train import build_model

from helpers import _refusal, pass_problems, run_pinned, sweep_problems

SEED = 0
CHAINS = 400
SWEEPS = 60
BATCHES = (1, 2, 3, 5, 58)


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


def chain_problems(case):
    """What is wrong with chain ``case``: a lender, then one to three drawn
    passes of one model, each borrowing the trace of the one before."""
    rng = np.random.default_rng([SEED, case])
    model = _model(rng)
    held = _lender(rng, model)
    T, m, problems = model.encoder.max_len, model.encoder.input_dim, []
    for step in range(int(rng.integers(1, 4))):
        keep = held is not None and rng.random() < 0.75
        B = len(held[1]) if keep else _pick(rng, BATCHES)
        gates = held[2] if keep else bool(rng.integers(2))
        t0 = int(rng.integers(T)) if rng.integers(2) else _pick(rng, (0,) * 8 + (-1, T))
        x = rng.normal(size=(B, T, m))
        refusal = _refusal(model, B, gates, t0, held)
        if held is not None and held[0] is model and held[1].shape == x.shape:
            x[:, :max(t0, 0)] = held[1][:, :max(t0, 0)]
        elif t0 > 0 and refusal is None:
            # A trace of another model with the same shapes: nothing can
            # tell, so it may only lend its arrays.
            t0 = 0
        gl = rng.normal(size=(B, model.num_classes)) if gates and refusal is None else None
        found, held = pass_problems(model, x, t0, held, gates, gl)
        problems += [f"chain {case} pass {step}: {p}" for p in found]
    return problems


def drawn_sweep_problems(two_processes):
    """What is wrong with the drawn sweeps, their fork forced on or off."""
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
        problems += [f"sweep {case}: {p}" for p in
                     sweep_problems(model, ds, rows, layer, direction, two_processes)]
    return problems


def test_every_pass_raises_the_one_error_or_equals_a_fresh_pass():
    assert [p for case in range(CHAINS) for p in chain_problems(case)] == []


def test_serial_sweeps_equal_fresh_passes():
    assert drawn_sweep_problems(False) == []


@pytest.mark.skipif(not sys.platform.startswith("linux") or not hasattr(os, "fork"),
                    reason="the two-process sweep runs only on Linux")
def test_forked_sweeps_equal_fresh_passes():
    assert run_pinned(__file__) == []


if __name__ == "__main__":
    threads = len(os.listdir("/proc/self/task"))
    print(json.dumps(drawn_sweep_problems(True) if threads == 1
                     else [f"{threads} threads: BLAS is not pinned"]))
