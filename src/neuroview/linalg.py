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


def scratch(old, shape: tuple, dtype=DTYPE) -> np.ndarray:
    """``old`` when it is a C-contiguous array of ``shape`` and ``dtype``,
    else a fresh one; the caller overwrites its contents."""
    if (old is not None and old.shape == shape and old.dtype == dtype
            and old.flags.c_contiguous):
        return old
    return np.empty(shape, dtype=dtype)


class Buffered:
    """Mixin for a record whose ``buffers`` dict holds reusable work
    arrays by name."""

    def buffer(self, name: str, shape: tuple, dtype=DTYPE) -> np.ndarray:
        """The buffer ``name``, reused when it has this shape and dtype and
        fresh otherwise; the caller overwrites its contents."""
        self.buffers[name] = scratch(self.buffers.get(name), shape, dtype)
        return self.buffers[name]
