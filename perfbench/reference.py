"""A fixed reference kernel that measures how fast the host runs right now.

The machine this benchmark runs on is a few cores of a shared host whose
speed drifts by tens of percent over minutes (see README.md, "Noise").
Wall time alone then measures the host as much as the program. So after
every cycle of ops the harness times this kernel, and the gated time
metrics are the cycle's wall time divided by the kernel's: a drift that
slows both cancels, and a change to the library moves only the cycle.

The kernel depends on numpy alone, never on the library, so no change to
the library can move it. It runs a small LSTM forward and backward pass,
the same mix of small numpy calls and Python loop overhead that the
workloads spend their time in, at a batch and horizon close to the
workload's own.
"""

from __future__ import annotations

import numpy as np

HIDDEN = 32


class Reference:
    """``reps`` forward and backward passes of a numpy-only LSTM over
    ``horizon`` steps of a ``batch`` of one-feature sequences."""

    def __init__(self, batch: int, horizon: int, reps: int):
        rng = np.random.default_rng(0)
        self.w = rng.standard_normal((4 * HIDDEN, HIDDEN + 1)) * 0.1
        self.x = rng.standard_normal((horizon, batch, 1))
        self.reps = reps

    def run(self) -> float:
        """Run the kernel; the returned checksum keeps every result live."""
        total = 0.0
        for _ in range(self.reps):
            total += float(self._pass().sum())
        return total

    def _pass(self) -> np.ndarray:
        w, x = self.w, self.x
        batch = x.shape[1]
        h = np.zeros((batch, HIDDEN))
        c = np.zeros((batch, HIDDEN))
        saved = []
        for xt in x:
            hx = np.concatenate([xt, h], axis=1)
            z = hx @ w.T
            i, f, o, g = np.split(z, 4, axis=1)
            i, f, o = (1.0 / (1.0 + np.exp(-v)) for v in (i, f, o))
            g = np.tanh(g)
            c = f * c + i * g
            h = o * np.tanh(c)
            saved.append((hx, i, f, o, g, c))
        dw = np.zeros_like(w)
        dh = np.ones((batch, HIDDEN))
        dc = np.zeros((batch, HIDDEN))
        c_prev = [np.zeros((batch, HIDDEN))] + [s[5] for s in saved[:-1]]
        for (hx, i, f, o, g, c), cp in zip(reversed(saved), reversed(c_prev)):
            tc = np.tanh(c)
            dc = dc + dh * o * (1.0 - tc * tc)
            dz = np.concatenate([
                dc * g * i * (1.0 - i), dc * cp * f * (1.0 - f),
                dh * tc * o * (1.0 - o), dc * i * (1.0 - g * g)], axis=1)
            dw += dz.T @ hx
            dh = (dz @ w)[:, 1:]
            dc = dc * f
        return dw
