"""Dense float64 kernels shared by the numerical modules.

Matrices are 2-D row-major ``numpy`` arrays, vectors are 1-D. Everything
here is a pure function: no kernel mutates its inputs, and identical
inputs produce bit-identical outputs.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

DTYPE = np.float64


def as_vector(data) -> np.ndarray:
    """Coerce to a 1-D float64 array, rejecting non-finite entries."""
    v = np.asarray(data, dtype=DTYPE)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains non-finite entries")
    return v


def as_matrix(data) -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting non-finite entries."""
    m = np.asarray(data, dtype=DTYPE)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product ``result[i] = sum_j m[i, j] * v[j]``."""
    m = np.asarray(m, dtype=DTYPE)
    v = np.asarray(v, dtype=DTYPE)
    if m.ndim != 2 or v.ndim != 1 or m.shape[1] != v.shape[0]:
        raise ValueError(
            f"matvec dimension mismatch: matrix {m.shape} vs vector {v.shape}"
        )
    return m @ v


def elementwise(v: np.ndarray, f: Callable[[float], float]) -> np.ndarray:
    """Apply a scalar function entry-by-entry to a vector."""
    v = np.asarray(v, dtype=DTYPE)
    return np.array([f(float(x)) for x in v], dtype=DTYPE)


def concat(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate vectors in argument order into one contiguous vector."""
    arrays = [np.asarray(p, dtype=DTYPE).ravel() for p in parts]
    if not arrays:
        return np.zeros(0, dtype=DTYPE)
    return np.concatenate(arrays)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, finite for all finite inputs.

    Branch-free form of ``1 / (1 + exp(-x))`` for ``x >= 0`` and
    ``exp(x) / (1 + exp(x))`` otherwise: both share ``e = exp(-|x|)``, and
    since ``e <= 1`` the numerator ``max(e, x >= 0)`` is 1 or ``e`` as
    needed. The result is bit-identical to evaluating the two branches
    separately.
    """
    x = np.asarray(x, dtype=DTYPE)
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=DTYPE), 0.0)


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(np.asarray(x, dtype=DTYPE))
