"""Shared test utilities: the central finite-difference oracle."""

import numpy as np

from neuroview.cells import named_views


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
