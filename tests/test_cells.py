import math

import numpy as np
import pytest

from neuroview.cells import (
    CellKind,
    CellParams,
    CellState,
    InitKind,
    InitScheme,
    cell_backward,
    cell_forward,
    init_params,
    param_shapes,
    scheme_matrix,
    sequence_backward,
    sequence_forward,
    zero_state,
    _weights,
)
from neuroview.network import EncoderConfig, HeadKind
from neuroview.train import build_model

from helpers import finite_diff_tree, max_tree_rel_err, rel_err


def zero_params(kind, m, n):
    shapes = param_shapes(kind, m, n)
    return CellParams(kind, m, n, {k: np.zeros(s) for k, s in shapes.items()})


def random_params(kind, m, n, seed):
    return init_params(kind, m, n, InitScheme(InitKind.UNIFORM, seed))


# ---------------------------------------------------------------- forward

def test_rnn_zero_params_gives_half():
    p = zero_params(CellKind.SIMPLE_RNN, 3, 4)
    state, trace = cell_forward(p, zero_state(p.kind, 4), np.array([9.0, -2.0, 1.0]))
    np.testing.assert_array_equal(state.h, np.full(4, 0.5))
    np.testing.assert_array_equal(trace.cached["pre"], np.zeros(4))


def test_lstm_zero_params_gives_zero_state():
    p = zero_params(CellKind.LSTM, 2, 3)
    state, trace = cell_forward(p, zero_state(p.kind, 3), np.array([1.0, 2.0]))
    np.testing.assert_array_equal(state.c, np.zeros(3))
    np.testing.assert_array_equal(state.h, np.zeros(3))
    np.testing.assert_array_equal(trace.cached["f"], np.full(3, 0.5))


def test_gru_scalar_hand_evaluation():
    # Independent oracle: evaluate the 1x1 gate recurrence with plain
    # Python math and compare against the vectorized implementation.
    vals = {
        "W_ir": 0.5, "W_iz": -0.3, "W_in": 0.8,
        "W_hr": 0.2, "W_hz": 0.4, "W_hn": -0.6,
        "b_ir": 0.1, "b_iz": -0.2, "b_in": 0.05,
        "b_hr": 0.3, "b_hz": 0.15, "b_hn": -0.1,
    }
    x, h_prev = 0.7, 0.3

    def sig(a):
        return 1.0 / (1.0 + math.exp(-a))

    r = sig(vals["W_ir"] * x + vals["b_ir"] + vals["W_hr"] * h_prev + vals["b_hr"])
    z = sig(vals["W_iz"] * x + vals["b_iz"] + vals["W_hz"] * h_prev + vals["b_hz"])
    n = math.tanh(
        vals["W_in"] * x + vals["b_in"]
        + r * (vals["W_hn"] * h_prev + vals["b_hn"])
    )
    expected = (1.0 - z) * n + z * h_prev

    arrays = {
        k: np.array([[v]]) if k.startswith("W") else np.array([v])
        for k, v in vals.items()
    }
    p = CellParams(CellKind.GRU, 1, 1, arrays)
    state, trace = cell_forward(p, CellState(np.array([h_prev])), np.array([x]))
    assert state.h[0] == pytest.approx(expected, rel=1e-14)
    assert trace.cached["r"][0] == pytest.approx(r, rel=1e-14)
    assert trace.cached["z"][0] == pytest.approx(z, rel=1e-14)
    assert trace.cached["n"][0] == pytest.approx(n, rel=1e-14)


def test_forward_is_deterministic_and_pure():
    p = random_params(CellKind.GRU, 3, 5, 0)
    before = {k: v.copy() for k, v in p.arrays.items()}
    x = np.linspace(-1, 1, 3)
    s1, _ = cell_forward(p, zero_state(p.kind, 5), x)
    s2, _ = cell_forward(p, zero_state(p.kind, 5), x)
    np.testing.assert_array_equal(s1.h, s2.h)
    for k in before:
        np.testing.assert_array_equal(p.arrays[k], before[k])


def test_hidden_state_ranges():
    rng = np.random.default_rng(4)
    for kind, lo, hi in [
        (CellKind.SIMPLE_RNN, 0.0, 1.0),
        (CellKind.GRU, -1.0, 1.0),
        (CellKind.LSTM, -1.0, 1.0),
    ]:
        p = random_params(kind, 3, 6, 7)
        state = zero_state(kind, 6)
        for _ in range(20):
            state, trace = cell_forward(p, state, rng.normal(size=3) * 3)
            assert np.all(state.h > lo) and np.all(state.h < hi)
            for key, v in trace.cached.items():
                if key in ("r", "z", "i", "f", "o"):
                    assert np.all(v > 0) and np.all(v < 1)
                if key in ("n", "g"):
                    assert np.all(v > -1) and np.all(v < 1)


def test_gru_carry_gate_identity():
    # Saturating the carry gate (z == 1.0 exactly in float64) must return
    # the previous hidden state bit-for-bit.
    p = random_params(CellKind.GRU, 2, 4, 3)
    p.arrays["b_iz"][:] = 50.0  # views into the packed blocks the kernel reads
    p.arrays["b_hz"][:] = 50.0
    h_prev = np.random.default_rng(5).uniform(-0.9, 0.9, 4)
    state, trace = cell_forward(p, CellState(h_prev.copy()), np.array([0.3, -0.7]))
    np.testing.assert_array_equal(trace.cached["z"], np.ones(4))
    np.testing.assert_array_equal(state.h, h_prev)


def test_forward_dimension_errors_name_offender():
    p = random_params(CellKind.SIMPLE_RNN, 3, 4, 0)
    with pytest.raises(ValueError, match="x_t"):
        cell_forward(p, zero_state(p.kind, 4), np.zeros(5))
    with pytest.raises(ValueError, match="state h"):
        cell_forward(p, CellState(np.zeros(3)), np.zeros(3))


def test_lstm_requires_cell_state():
    p = random_params(CellKind.LSTM, 2, 3, 0)
    with pytest.raises(ValueError, match="cell vector c"):
        cell_forward(p, CellState(np.zeros(3), None), np.zeros(2))


# ---------------------------------------------------------------- backward

def test_backward_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(6)
    for kind in CellKind:
        p = random_params(kind, 3, 4, 11)
        prev = CellState(
            rng.uniform(-0.5, 0.5, 4),
            rng.uniform(-0.5, 0.5, 4) if kind is CellKind.LSTM else None,
        )
        x = rng.normal(size=3)
        _, trace = cell_forward(p, prev, x)
        gc = np.zeros(4) if kind is CellKind.LSTM else None
        grads, dh, dc, dx = cell_backward(p, trace, prev, x, np.zeros(4), gc)
        for g in grads.values():
            assert not g.any()
        assert not dh.any() and not dx.any()
        if kind is CellKind.LSTM:
            assert not dc.any()


def test_backward_trace_kind_mismatch():
    p = random_params(CellKind.GRU, 2, 3, 0)
    q = random_params(CellKind.SIMPLE_RNN, 2, 3, 0)
    prev = zero_state(CellKind.SIMPLE_RNN, 3)
    _, trace = cell_forward(q, prev, np.zeros(2))
    with pytest.raises(ValueError, match="does not match"):
        cell_backward(p, trace, prev, np.zeros(2), np.zeros(3))


def _fd_check_one_step(kind, m, n, seed, tol=1e-6):
    """Gradients of a weighted sum of the step outputs vs central
    differences, for parameters, previous state, and input."""
    rng = np.random.default_rng(seed)
    p = random_params(kind, m, n, seed)
    h_prev = rng.uniform(-0.6, 0.6, n)
    c_prev = rng.uniform(-0.6, 0.6, n) if kind is CellKind.LSTM else None
    x = rng.normal(size=m)
    w_h = rng.normal(size=n)
    w_c = rng.normal(size=n) if kind is CellKind.LSTM else None

    inputs = {"h_prev": h_prev, "x": x}
    if c_prev is not None:
        inputs["c_prev"] = c_prev

    def scalar():
        state, _ = cell_forward(p, CellState(h_prev, c_prev), x)
        total = float(w_h @ state.h)
        if w_c is not None:
            total += float(w_c @ state.c)
        return total

    prev = CellState(h_prev, c_prev)
    _, trace = cell_forward(p, prev, x)
    grads, dh, dc, dx = cell_backward(p, trace, prev, x, w_h, w_c)

    fd_params = finite_diff_tree(scalar, p.arrays)
    assert max_tree_rel_err(grads, fd_params) < tol
    fd_inputs = finite_diff_tree(scalar, inputs)
    assert rel_err(dh, fd_inputs["h_prev"]) < tol
    assert rel_err(dx, fd_inputs["x"]) < tol
    if c_prev is not None:
        assert rel_err(dc, fd_inputs["c_prev"]) < tol


def test_rnn_backward_matches_finite_differences():
    _fd_check_one_step(CellKind.SIMPLE_RNN, 2, 2, seed=0)


def test_gru_backward_matches_finite_differences():
    _fd_check_one_step(CellKind.GRU, 2, 3, seed=1)


def test_lstm_backward_matches_finite_differences():
    _fd_check_one_step(CellKind.LSTM, 2, 3, seed=2)


def test_backward_finite_differences_across_sizes():
    # Module invariant: every gradient entry agrees for n <= 8, m <= 4.
    # Seeds avoid near-zero true gradients, where the difference quotient
    # itself is dominated by float64 cancellation noise.
    for kind, seed in [(CellKind.SIMPLE_RNN, 0), (CellKind.GRU, 3),
                       (CellKind.LSTM, 0)]:
        _fd_check_one_step(kind, 4, 8, seed=seed)


def test_batched_backward_sums_over_batch():
    rng = np.random.default_rng(13)
    for kind in CellKind:
        p = random_params(kind, 3, 4, 21)
        B = 3
        hp = rng.uniform(-0.5, 0.5, (B, 4))
        cp = rng.uniform(-0.5, 0.5, (B, 4)) if kind is CellKind.LSTM else None
        x = rng.normal(size=(B, 3))
        gh = rng.normal(size=(B, 4))
        gc = rng.normal(size=(B, 4)) if kind is CellKind.LSTM else None

        prev = CellState(hp, cp)
        _, trace = cell_forward(p, prev, x)
        grads, dh, dc, dx = cell_backward(p, trace, prev, x, gh, gc)

        summed = {k: np.zeros_like(v) for k, v in grads.items()}
        for b in range(B):
            prev_b = CellState(hp[b], None if cp is None else cp[b])
            _, tr_b = cell_forward(p, prev_b, x[b])
            g_b, dh_b, dc_b, dx_b = cell_backward(
                p, tr_b, prev_b, x[b], gh[b], None if gc is None else gc[b]
            )
            for k in summed:
                summed[k] += g_b[k]
            np.testing.assert_allclose(dh[b], dh_b, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(dx[b], dx_b, rtol=1e-12, atol=1e-15)
        for k in summed:
            np.testing.assert_allclose(grads[k], summed[k], rtol=1e-12, atol=1e-15)


# ------------------------------------------------------------ initializers

def test_identity_init_is_exact():
    p = init_params(CellKind.SIMPLE_RNN, 3, 4, InitScheme(InitKind.IDENTITY, 0))
    np.testing.assert_array_equal(p.arrays["W"], np.eye(4))


def test_orthogonal_init_is_orthogonal():
    for n in (4, 32, 128):
        p = init_params(
            CellKind.SIMPLE_RNN, 2, n, InitScheme(InitKind.ORTHOGONAL, 1)
        )
        W = p.arrays["W"]
        assert np.max(np.abs(W.T @ W - np.eye(n))) < 1e-10


def test_same_seed_is_bit_identical():
    for kind in CellKind:
        for init_kind in InitKind:
            a = init_params(kind, 3, 5, InitScheme(init_kind, 42))
            b = init_params(kind, 3, 5, InitScheme(init_kind, 42))
            for name in a.arrays:
                np.testing.assert_array_equal(a.arrays[name], b.arrays[name])


def test_uniform_bound_is_fan_in():
    n = 16
    p = init_params(CellKind.GRU, 3, n, InitScheme(InitKind.UNIFORM, 9))
    bound = 1.0 / math.sqrt(n)
    for name, arr in p.arrays.items():
        assert np.max(np.abs(arr)) <= bound


def test_special_schemes_touch_only_hidden_matrices():
    n = 16
    bound = 1.0 / math.sqrt(n)
    for init_kind in (InitKind.ORTHOGONAL, InitKind.IDENTITY, InitKind.NORMAL):
        p = init_params(CellKind.LSTM, 3, n, InitScheme(init_kind, 5))
        for name, arr in p.arrays.items():
            if not (name.startswith("W_h")):
                assert np.max(np.abs(arr)) <= bound, name


def test_normal_scheme_variance():
    n = 64
    p = init_params(CellKind.SIMPLE_RNN, 2, n, InitScheme(InitKind.NORMAL, 8))
    W = p.arrays["W"]
    # var 1/n, n*n samples: the sample variance should sit near 1/n
    assert abs(W.var() * n - 1.0) < 0.15


def test_identity_requires_square():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="square"):
        scheme_matrix(InitKind.IDENTITY, (3, 2), rng)
    with pytest.raises(ValueError, match="square"):
        scheme_matrix(InitKind.ORTHOGONAL, (3, 2), rng)


def test_init_rejects_bad_dims():
    with pytest.raises(ValueError, match=">= 1"):
        init_params(CellKind.GRU, 0, 4, InitScheme())


def test_params_shape_validation():
    shapes = param_shapes(CellKind.SIMPLE_RNN, 3, 4)
    arrays = {k: np.zeros(s) for k, s in shapes.items()}
    arrays["W"] = np.zeros((4, 3))
    with pytest.raises(ValueError, match="'W'"):
        CellParams(CellKind.SIMPLE_RNN, 3, 4, arrays)


# ------------------------------------------------- one loop for two directions

def _layer_run(cells, X, h0, c0, dH, grad_c, dX):
    """One forward and backward pass of the kernel; ``dX`` is added into."""
    trace = sequence_forward(cells, X, h0, c0)
    grads, gh0, gc0 = sequence_backward(cells, trace, dH, grad_c, dX)
    return trace, grads, gh0, gc0


@pytest.mark.parametrize("shared", [True, False], ids=["model-buffer", "own-arrays"])
@pytest.mark.parametrize("B", [1, 4, 8, 58])
@pytest.mark.parametrize("kind", list(CellKind), ids=lambda k: k.value)
def test_two_direction_loop_equals_two_one_direction_runs(kind, B, shared):
    # The stacked loop changes no bit: each direction's states, gradients
    # and input-gradient share equal a one-direction run's, the reverse
    # one's on the time-reversed input.
    T, m, n = 7, 3, 5
    enc = EncoderConfig(kind, m, n, T, bidirectional=True)
    model = build_model(enc, HeadKind.AVERAGE_POOL, 2, InitScheme(InitKind.UNIFORM, B))
    cells = model.cells
    if shared:
        # A layer's cells in a model's buffer lend the loop their weights
        # as one view; loose cells get a stacked copy.
        for block in (0, 1):
            assert np.shares_memory(_weights(cells, block), model.params)
    else:
        cells = [p.copy() for p in cells]
    rng = np.random.default_rng(B)
    X = rng.normal(size=(T, B, m))
    h0 = rng.normal(size=(2, B, n))
    lstm = kind is CellKind.LSTM
    c0, grad_c = (rng.normal(size=(2, B, n)) for _ in range(2)) if lstm else (None, None)
    dH = rng.normal(size=(T, B, 2 * n))
    dX0 = rng.normal(size=(T, B, m))

    dX = dX0.copy()
    both = _layer_run(cells, X, h0, c0, dH, grad_c, dX)
    dXf = dX0.copy()
    fwd = _layer_run(cells[:1], X, h0[:1], c0 if c0 is None else c0[:1],
                     dH[..., :n], grad_c if grad_c is None else grad_c[:1], dXf)
    dXr = np.zeros_like(dX0)
    rev = _layer_run(cells[1:], X[::-1].copy(), h0[1:], c0 if c0 is None else c0[1:],
                     dH[::-1, :, n:].copy(), grad_c if grad_c is None else grad_c[1:], dXr)

    for d, single in enumerate((fwd, rev)):
        # The direction axis: (T, D, B, .) for xa and ha, (T, ., D, B) else.
        for name, axis in (("xa", 1), ("ha", 1), ("gates", 2), ("aux", 2)):
            np.testing.assert_array_equal(np.take(getattr(both[0], name), d, axis),
                                          np.take(getattr(single[0], name), 0, axis))
        for got, want in zip(both[1][d], single[1][0]):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(both[2][d], single[2][0])
        if lstm:
            np.testing.assert_array_equal(both[3][d], single[3][0])
    # The forward direction's share of the input gradient is added first.
    np.testing.assert_array_equal(dX, dXf + dXr[::-1])
