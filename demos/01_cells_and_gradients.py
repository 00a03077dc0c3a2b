#!/usr/bin/env python3
"""Run the three recurrence cells over a short sequence and verify their
analytic gradients against central finite differences.

Every gradient in this library is a closed-form derivation, not an
autodiff tape, so the one check that matters is agreement with the
difference quotient. This script reproduces that check interactively.
"""

import numpy as np

from neuroview import (
    CellKind,
    InitKind,
    InitScheme,
    init_params,
    sequence_backward,
    sequence_forward,
)
from neuroview.cells import named_views

rng = np.random.default_rng(0)

# Inputs are (T, B, m) time-major batches; one sequence is a batch of one.
print("=== running each cell over a tiny input sequence ===")
for kind in CellKind:
    p = init_params(kind, input_dim=2, hidden_dim=4, scheme=InitScheme(InitKind.UNIFORM, 1))
    trace = sequence_forward([p], rng.normal(size=(3, 1, 2)))
    print(f"{kind.value:5s} h after 3 steps: {np.round(trace.h[-1, 0, 0], 4)}")

print()
print("=== analytic vs finite-difference gradients (BPTT over 3 steps) ===")
eps = 1e-5
for kind in CellKind:
    p = init_params(kind, 2, 4, InitScheme(InitKind.UNIFORM, 2))
    h0 = rng.uniform(-0.5, 0.5, (1, 1, 4))
    c0 = rng.uniform(-0.5, 0.5, (1, 1, 4)) if kind is CellKind.LSTM else None
    X = rng.normal(size=(3, 1, 2))
    w = rng.normal(size=(3, 1, 4))  # random readout of every step's state

    def scalar():
        return float(np.sum(w * sequence_forward([p], X, h0, c0).h[:, 0]))

    grads = sequence_backward([p], sequence_forward([p], X, h0, c0), w)[0]
    grads = named_views(kind, 4, *grads[0])

    worst = 0.0
    for name, arr in p.arrays.items():
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            keep = arr[i]
            arr[i] = keep + eps
            up = scalar()
            arr[i] = keep - eps
            down = scalar()
            arr[i] = keep
            fd = (up - down) / (2 * eps)
            worst = max(worst, abs(fd - grads[name][i]) / max(abs(fd), abs(grads[name][i]), 1e-8))
    print(f"{kind.value:5s} worst relative disagreement over all parameters: {worst:.2e}")

print()
print("=== initialization schemes ===")
for scheme in InitKind:
    p = init_params(CellKind.SIMPLE_RNN, 2, 6, InitScheme(scheme, 3))
    W = p.arrays["W"]
    ortho = np.max(np.abs(W.T @ W - np.eye(6)))
    print(f"{scheme.value:10s} hidden matrix: |W|_max={np.abs(W).max():.3f}  "
          f"max|W'W - I|={ortho:.2e}")
