"""The float64 dtype, the sigmoid shared by the numerical modules, and
the rule by which they reuse work arrays.

The sigmoid never mutates its input unless asked to write over it, and
identical inputs produce bit-identical outputs.
"""

from __future__ import annotations

import numpy as np

DTYPE = np.float64


def sigmoid(x: np.ndarray, out=None, work=None) -> np.ndarray:
    """Numerically stable logistic function, finite for all finite inputs.

    Branch-free form of ``1 / (1 + exp(-x))`` for ``x >= 0`` and
    ``exp(x) / (1 + exp(x))`` otherwise: both share ``e = exp(-|x|)``, and
    since ``e <= 1`` the numerator ``max(e, x >= 0)`` is 1 or ``e`` as
    needed. The result is bit-identical to evaluating the two branches
    separately.

    Given ``out`` (``x`` itself or a strided view will do) and ``work``
    of ``x``'s shape, it allocates nothing and returns ``out``; either one
    omitted is allocated, and with ``out`` omitted it is pure.
    """
    x = np.asarray(x, dtype=DTYPE)
    out = np.empty(x.shape, dtype=DTYPE) if out is None else out
    e = np.empty(x.shape, dtype=DTYPE) if work is None else work
    np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.greater_equal(x, 0, out=out)
    np.maximum(e, out, out=out)
    np.add(1.0, e, out=e)
    return np.divide(out, e, out=out)


class Buffered:
    """Mixin for a record whose ``buffers`` dict holds its arrays by name:
    a record built on another's dict reuses them, the one way arrays pass
    from one pass to the next."""

    def buffer(self, name: str, shape: tuple, dtype=DTYPE) -> np.ndarray:
        """The buffer ``name``, reused when it has this shape and dtype and
        allocated fresh otherwise; the caller overwrites its contents."""
        old = self.buffers.get(name)
        if old is None or old.shape != shape or old.dtype != dtype:
            old = self.buffers[name] = np.empty(shape, dtype=dtype)
        return old
