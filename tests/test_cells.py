import math

import numpy as np
import pytest

from neuroview.cells import (
    CellKind,
    InitKind,
    InitScheme,
    cell_backward,
    cell_forward,
    init_params,
    named_views,
    pack,
    param_shapes,
    scheme_matrix,
    sequence_backward,
    sequence_forward,
    stack_cells,
)
from neuroview.network import EncoderConfig, HeadKind
from neuroview.train import build_model

from helpers import finite_diff_tree, max_tree_rel_err, rel_err


def zero_params(kind, m, n):
    shapes = param_shapes(kind, m, n)
    return pack(kind, m, n, {k: np.zeros(s) for k, s in shapes.items()})


def random_params(kind, m, n, seed):
    return init_params(kind, m, n, InitScheme(InitKind.UNIFORM, seed))


# Gate names in packed row order (the rnn's one block is ``h``).
GATES = {CellKind.SIMPLE_RNN: "h", CellKind.GRU: "rzn", CellKind.LSTM: "ifog"}


def gate(trace, name, t=0, d=0):
    """Gate ``name`` at processing step ``t`` of direction ``d``, (B, n)."""
    n = trace.ha.shape[-1] - 1
    j = GATES[trace.kind].index(name)
    return trace.gates[t, j * n:(j + 1) * n, d].T


def cell_state(trace, t=-1, d=0):
    """The lstm's cell state after processing step ``t`` of direction ``d``, (B, n)."""
    return trace.aux[t, :, d].T


# ---------------------------------------------------------------- forward

def test_rnn_zero_params_gives_half():
    p = zero_params(CellKind.SIMPLE_RNN, 3, 4)
    trace = sequence_forward(CellKind.SIMPLE_RNN, stack_cells([p]), np.array([[[9.0, -2.0, 1.0]]]))
    np.testing.assert_array_equal(trace.h[0, 0], np.full((1, 4), 0.5))
    np.testing.assert_array_equal(trace.aux[0, :, 0], np.zeros((4, 1)))  # pre-activation


def test_lstm_zero_params_gives_zero_state():
    p = zero_params(CellKind.LSTM, 2, 3)
    trace = sequence_forward(CellKind.LSTM, stack_cells([p]), np.array([[[1.0, 2.0]]]))
    np.testing.assert_array_equal(cell_state(trace), np.zeros((1, 3)))
    np.testing.assert_array_equal(trace.h[0, 0], np.zeros((1, 3)))
    np.testing.assert_array_equal(gate(trace, "f"), np.full((1, 3), 0.5))


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
    p = pack(CellKind.GRU, 1, 1, arrays)
    trace = sequence_forward(CellKind.GRU, stack_cells([p]), np.array([[[x]]]),
                             np.array([[[h_prev]]]))
    assert trace.h[0, 0, 0, 0] == pytest.approx(expected, rel=1e-14)
    assert gate(trace, "r")[0, 0] == pytest.approx(r, rel=1e-14)
    assert gate(trace, "z")[0, 0] == pytest.approx(z, rel=1e-14)
    assert gate(trace, "n")[0, 0] == pytest.approx(n, rel=1e-14)


def test_forward_is_deterministic_and_pure():
    p = random_params(CellKind.GRU, 3, 5, 0)
    before = [W.copy() for W in p]
    X = np.linspace(-1, 1, 3).reshape(1, 1, 3)
    t1 = sequence_forward(CellKind.GRU, stack_cells([p]), X)
    t2 = sequence_forward(CellKind.GRU, stack_cells([p]), X)
    np.testing.assert_array_equal(t1.h, t2.h)
    for W, W0 in zip(p, before):
        np.testing.assert_array_equal(W, W0)


@pytest.mark.parametrize("D", [1, 2])
@pytest.mark.parametrize("kind", list(CellKind), ids=lambda k: k.value)
def test_kernels_leave_inputs_and_trace_unchanged(kind, D):
    # The time loops write only into work arrays of their own: the
    # weights, the inputs, the upstream gradients and every array of the
    # trace keep their bytes through a gated, a forward-only and a
    # backward pass.
    T, B, m, n = 11, 3, 2, 4
    rng = np.random.default_rng(D)
    weights = stack_cells([random_params(kind, m, n, d) for d in range(D)])
    X, h0, dH = (rng.normal(size=shape) for shape in ((T, B, m), (D, B, n), (T, B, D * n)))
    lstm = kind is CellKind.LSTM
    c0, grad_c = (rng.normal(size=(D, B, n)) for _ in range(2)) if lstm else (None, None)

    def snapshot(arrays):
        return [None if a is None else a.tobytes() for a in arrays]

    inputs = [*weights, X, h0, c0, dH, grad_c]
    before = snapshot(inputs)
    trace = sequence_forward(kind, weights, X, h0, c0)
    fields = [trace.xa, trace.ha, trace.gates, trace.aux, trace.y, trace.h0a, trace.c0]
    kept = snapshot(fields)
    sequence_forward(kind, weights, X, h0, c0, gates=False)
    sequence_backward(kind, weights, trace, dH, grad_c, np.zeros_like(X))
    assert snapshot(inputs) == before
    assert snapshot(fields) == kept


def test_hidden_state_ranges():
    rng = np.random.default_rng(4)
    for kind, lo, hi in [
        (CellKind.SIMPLE_RNN, 0.0, 1.0),
        (CellKind.GRU, -1.0, 1.0),
        (CellKind.LSTM, -1.0, 1.0),
    ]:
        p = random_params(kind, 3, 6, 7)
        trace = sequence_forward(kind, stack_cells([p]), rng.normal(size=(20, 1, 3)) * 3)
        assert np.all(trace.h > lo) and np.all(trace.h < hi)
        for t in range(20):
            for name in GATES[kind]:
                v = gate(trace, name, t)
                if name in ("r", "z", "i", "f", "o"):
                    assert np.all(v > 0) and np.all(v < 1)
                if name in ("n", "g"):
                    assert np.all(v > -1) and np.all(v < 1)


def test_gru_carry_gate_identity():
    # Saturating the carry gate (z == 1.0 exactly in float64) must return
    # the previous hidden state bit-for-bit.
    p = random_params(CellKind.GRU, 2, 4, 3)
    arrays = named_views(CellKind.GRU, 4, *p)  # views into the blocks stack_cells reads
    arrays["b_iz"][:] = 50.0
    arrays["b_hz"][:] = 50.0
    h_prev = np.random.default_rng(5).uniform(-0.9, 0.9, (1, 1, 4))
    trace = sequence_forward(CellKind.GRU, stack_cells([p]), np.array([[[0.3, -0.7]]]),
                             h_prev.copy())
    np.testing.assert_array_equal(gate(trace, "z"), np.ones((1, 4)))
    np.testing.assert_array_equal(trace.h[0], h_prev)


def test_cell_step_is_the_one_step_kernel():
    # ``cell_forward``/``cell_backward`` are sequence_forward/backward at
    # T = 1, D = 1, on (B, .) arrays.
    rng = np.random.default_rng(9)
    for kind in CellKind:
        p = random_params(kind, 3, 4, 5)
        lstm = kind is CellKind.LSTM
        x, h0, c0, dh, dc = (rng.normal(size=(2, s)) for s in (3, 4, 4, 4, 4))
        c0, dc = (c0, dc) if lstm else (None, None)
        trace = cell_forward(kind, p, x, h0, c0)
        want = sequence_forward(kind, stack_cells([p]), x[None], h0[None],
                                None if c0 is None else c0[None])
        np.testing.assert_array_equal(trace.ha, want.ha)
        np.testing.assert_array_equal(trace.gates, want.gates)
        grads, dh0, dc0, dx = cell_backward(kind, p, trace, dh, dc)
        dX = np.zeros((1, 2, 3))
        want_grads, want_dh0, want_dc0 = sequence_backward(
            kind, stack_cells([p]), want, dh[None], None if dc is None else dc[None], dX)
        for got, w in zip(grads, want_grads):
            np.testing.assert_array_equal(got, w[0])
        np.testing.assert_array_equal(dh0, want_dh0[0])
        np.testing.assert_array_equal(dx, dX[0])
        if lstm:
            np.testing.assert_array_equal(dc0, want_dc0[0])
        else:
            assert dc0 is None
        # Zero states are the default.
        zeros = np.zeros_like(h0)
        np.testing.assert_array_equal(cell_forward(kind, p, x).ha,
                                      cell_forward(kind, p, x, zeros, zeros if lstm else None).ha)


# ---------------------------------------------------------------- backward

def test_backward_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(6)
    for kind in CellKind:
        p = random_params(kind, 3, 4, 11)
        lstm = kind is CellKind.LSTM
        h0 = rng.uniform(-0.5, 0.5, (1, 1, 4))
        c0 = rng.uniform(-0.5, 0.5, (1, 1, 4)) if lstm else None
        X = rng.normal(size=(1, 1, 3))
        trace = sequence_forward(kind, stack_cells([p]), X, h0, c0)
        dX = np.zeros_like(X)
        grads, dh, dc = sequence_backward(kind, stack_cells([p]), trace, np.zeros((1, 1, 4)),
                                          np.zeros((1, 1, 4)) if lstm else None, dX)
        for g in grads:
            assert not g.any()
        assert not dh.any() and not dX.any()
        if lstm:
            assert not dc.any()


def _fd_check(kind, m, n, seed, T=1, D=1, B=1, tol=1e-6):
    """Gradients of a weighted sum of the hidden outputs at every step
    and, for the lstm, of each direction's last cell state vs central
    differences, for the parameters of the D cells, the initial state
    and the (T, B, m) input. At T > 1 they go through the recurrence."""
    rng = np.random.default_rng(seed)
    cells = [random_params(kind, m, n, seed + d) for d in range(D)]
    lstm = kind is CellKind.LSTM
    inputs = {"h0": rng.uniform(-0.6, 0.6, (D, B, n))}
    if lstm:
        inputs["c0"] = rng.uniform(-0.6, 0.6, (D, B, n))
    inputs["X"] = rng.normal(size=(T, B, m))
    w_h = rng.normal(size=(T, B, D * n))  # time order, forward units first
    w_c = rng.normal(size=(D, B, n)) if lstm else None

    def scalar():
        trace = sequence_forward(kind, stack_cells(cells), inputs["X"], inputs["h0"],
                                 inputs.get("c0"))
        # The reverse direction is stored in processing order.
        H = np.concatenate([trace.h[:, 0], trace.h[::-1, 1]] if D == 2 else [trace.h[:, 0]],
                           axis=-1)
        total = float(np.sum(w_h * H))
        if lstm:
            total += float(np.sum(w_c * trace.aux[T - 1].transpose(1, 2, 0)))
        return total

    weights = stack_cells(cells)
    trace = sequence_forward(kind, weights, inputs["X"], inputs["h0"], inputs.get("c0"))
    dX = np.zeros_like(inputs["X"])
    grads, dh0, dc0 = sequence_backward(kind, weights, trace, w_h, w_c, dX)

    for d, p in enumerate(cells):
        fd_params = finite_diff_tree(scalar, named_views(kind, n, *p))
        assert max_tree_rel_err(named_views(kind, n, *(g[d] for g in grads)), fd_params) < tol
    fd_inputs = finite_diff_tree(scalar, inputs)
    assert rel_err(dh0, fd_inputs["h0"]) < tol
    assert rel_err(dX, fd_inputs["X"]) < tol
    if lstm:
        assert rel_err(dc0, fd_inputs["c0"]) < tol


def test_rnn_backward_matches_finite_differences():
    _fd_check(CellKind.SIMPLE_RNN, 2, 2, seed=0)


def test_gru_backward_matches_finite_differences():
    _fd_check(CellKind.GRU, 2, 3, seed=1)


def test_lstm_backward_matches_finite_differences():
    _fd_check(CellKind.LSTM, 2, 3, seed=2)


def test_backward_finite_differences_across_sizes():
    # Module invariant: every gradient entry agrees for n <= 8, m <= 4.
    # Seeds avoid near-zero true gradients, where the difference quotient
    # itself is dominated by float64 cancellation noise.
    for kind, seed in [(CellKind.SIMPLE_RNN, 0), (CellKind.GRU, 3),
                       (CellKind.LSTM, 0)]:
        _fd_check(kind, 4, 8, seed=seed)


@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("D", [1, 2])
@pytest.mark.parametrize("T", [1, 3])
@pytest.mark.parametrize("kind", list(CellKind), ids=lambda k: k.value)
def test_sequence_backward_matches_finite_differences(kind, T, D, B):
    # T = 3 reaches the recurrence: each step's state feeds the next.
    _fd_check(kind, 2, 3, seed=0, T=T, D=D, B=B)


def test_batched_backward_sums_over_batch():
    rng = np.random.default_rng(13)
    for kind in CellKind:
        p = random_params(kind, 3, 4, 21)
        lstm = kind is CellKind.LSTM
        B = 3
        hp = rng.uniform(-0.5, 0.5, (1, B, 4))
        cp = rng.uniform(-0.5, 0.5, (1, B, 4)) if lstm else None
        X = rng.normal(size=(1, B, 3))
        gh = rng.normal(size=(1, B, 4))
        gc = rng.normal(size=(1, B, 4)) if lstm else None

        def run(rows):
            trace = sequence_forward(kind, stack_cells([p]), X[:, rows], hp[:, rows],
                                     None if cp is None else cp[:, rows])
            dX = np.zeros_like(X[:, rows])
            grads, dh, _ = sequence_backward(kind, stack_cells([p]), trace, gh[:, rows],
                                             None if gc is None else gc[:, rows], dX)
            return grads, dh, dX

        grads, dh, dX = run(slice(None))
        summed = [np.zeros_like(g) for g in grads]
        for b in range(B):
            g_b, dh_b, dX_b = run(slice(b, b + 1))
            for acc, g in zip(summed, g_b):
                acc += g
            np.testing.assert_allclose(dh[:, b], dh_b[:, 0], rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(dX[:, b], dX_b[:, 0], rtol=1e-12, atol=1e-15)
        for got, want in zip(grads, summed):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


# ------------------------------------------------------------ initializers

def test_identity_init_is_exact():
    p = init_params(CellKind.SIMPLE_RNN, 3, 4, InitScheme(InitKind.IDENTITY, 0))
    np.testing.assert_array_equal(named_views(CellKind.SIMPLE_RNN, 4, *p)["W"], np.eye(4))


def test_orthogonal_init_is_orthogonal():
    for n in (4, 32, 128):
        p = init_params(
            CellKind.SIMPLE_RNN, 2, n, InitScheme(InitKind.ORTHOGONAL, 1)
        )
        W = named_views(CellKind.SIMPLE_RNN, n, *p)["W"]
        assert np.max(np.abs(W.T @ W - np.eye(n))) < 1e-10


def test_same_seed_is_bit_identical():
    for kind in CellKind:
        for init_kind in InitKind:
            a = init_params(kind, 3, 5, InitScheme(init_kind, 42))
            b = init_params(kind, 3, 5, InitScheme(init_kind, 42))
            for W_a, W_b in zip(a, b):
                np.testing.assert_array_equal(W_a, W_b)


def test_uniform_bound_is_fan_in():
    n = 16
    p = init_params(CellKind.GRU, 3, n, InitScheme(InitKind.UNIFORM, 9))
    bound = 1.0 / math.sqrt(n)
    for name, arr in named_views(CellKind.GRU, n, *p).items():
        assert np.max(np.abs(arr)) <= bound


def test_special_schemes_touch_only_hidden_matrices():
    n = 16
    bound = 1.0 / math.sqrt(n)
    for init_kind in (InitKind.ORTHOGONAL, InitKind.IDENTITY, InitKind.NORMAL):
        p = init_params(CellKind.LSTM, 3, n, InitScheme(init_kind, 5))
        for name, arr in named_views(CellKind.LSTM, n, *p).items():
            if not (name.startswith("W_h")):
                assert np.max(np.abs(arr)) <= bound, name


def test_normal_scheme_variance():
    n = 64
    p = init_params(CellKind.SIMPLE_RNN, 2, n, InitScheme(InitKind.NORMAL, 8))
    W = named_views(CellKind.SIMPLE_RNN, n, *p)["W"]
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
    # ``pack`` checks names, then each array's shape and finiteness.
    shapes = param_shapes(CellKind.SIMPLE_RNN, 3, 4)
    arrays = {k: np.zeros(s) for k, s in shapes.items()}
    arrays["W"] = np.zeros((4, 3))
    with pytest.raises(ValueError,
                       match=r"^parameter 'W': expected shape \(4, 4\), got \(4, 3\)$"):
        pack(CellKind.SIMPLE_RNN, 3, 4, arrays)
    arrays["W"] = np.full((4, 4), np.inf)
    with pytest.raises(ValueError, match="^parameter 'W' contains non-finite entries$"):
        pack(CellKind.SIMPLE_RNN, 3, 4, arrays)
    del arrays["W"]
    with pytest.raises(ValueError, match=r"^rnn cell expects parameters \['U', 'W', 'b'\], "
                                         r"got \['U', 'b'\]$"):
        pack(CellKind.SIMPLE_RNN, 3, 4, arrays)


# ------------------------------------------------- one loop for two directions

def _layer_run(kind, weights, X, h0, c0, dH, grad_c, dX):
    """One forward and backward pass of the kernel; ``dX`` is added into."""
    trace = sequence_forward(kind, weights, X, h0, c0)
    grads, gh0, gc0 = sequence_backward(kind, weights, trace, dH, grad_c, dX)
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
    # A model's layer weights are views of its buffer; loose cells are
    # stacked into a copy.
    weights = model.layers[0] if shared else stack_cells(model.cells)
    rng = np.random.default_rng(B)
    X = rng.normal(size=(T, B, m))
    h0 = rng.normal(size=(2, B, n))
    lstm = kind is CellKind.LSTM
    c0, grad_c = (rng.normal(size=(2, B, n)) for _ in range(2)) if lstm else (None, None)
    dH = rng.normal(size=(T, B, 2 * n))
    dX0 = rng.normal(size=(T, B, m))

    dX = dX0.copy()
    both = _layer_run(kind, weights, X, h0, c0, dH, grad_c, dX)
    dXf = dX0.copy()
    fwd = _layer_run(kind, tuple(W[:1] for W in weights), X, h0[:1],
                     c0 if c0 is None else c0[:1], dH[..., :n],
                     grad_c if grad_c is None else grad_c[:1], dXf)
    dXr = np.zeros_like(dX0)
    rev = _layer_run(kind, tuple(W[1:] for W in weights), X[::-1].copy(), h0[1:],
                     c0 if c0 is None else c0[1:], dH[::-1, :, n:].copy(),
                     grad_c if grad_c is None else grad_c[1:], dXr)

    for d, single in enumerate((fwd, rev)):
        # The direction axis: (T, D, B, .) for xa and ha, (T, ., D, B) else.
        for name, axis in (("xa", 1), ("ha", 1), ("gates", 2), ("aux", 2)):
            np.testing.assert_array_equal(np.take(getattr(both[0], name), d, axis),
                                          np.take(getattr(single[0], name), 0, axis))
        for got, want in zip(both[1], single[1]):
            np.testing.assert_array_equal(got[d], want[0])
        np.testing.assert_array_equal(both[2][d], single[2][0])
        if lstm:
            np.testing.assert_array_equal(both[3][d], single[3][0])
    # The forward direction's share of the input gradient is added first.
    np.testing.assert_array_equal(dX, dXf + dXr[::-1])


@pytest.mark.parametrize("layers,bidir", [(1, False), (2, True)], ids=["1-uni", "2-bidir"])
@pytest.mark.parametrize("kind", list(CellKind), ids=lambda k: k.value)
def test_model_layers_are_layer_major_views_of_params(kind, layers, bidir):
    # ``params`` holds, layer by layer, the (D, k*n, m_l+1) block W_i | b_i
    # and the (D, k*n, n+1) block W_h | b_h, then V; cell l*D + d packs the
    # [d] slices of its layer's blocks. Distinct values in the buffer tie
    # each view to its offset.
    m, n = 3, 4
    enc = EncoderConfig(kind, m, n, 5, layers=layers, bidirectional=bidir)
    model = build_model(enc, HeadKind.NEUROVIEW, 2, InitScheme(InitKind.UNIFORM, 1))
    model.params[:] = np.arange(model.params.size)
    D, rows = enc.directions, len(GATES[kind]) * n
    offset = 0
    assert len(model.layers) == layers
    for layer, blocks in enumerate(model.layers):
        m_l = m if layer == 0 else D * n
        for W, cols in zip(blocks, (m_l + 1, n + 1)):
            assert W.shape == (D, rows, cols)
            assert np.shares_memory(W, model.params)
            np.testing.assert_array_equal(W.ravel(), np.arange(offset, offset + W.size))
            offset += W.size
        for d in range(D):
            for P, W in zip(model.cells[layer * D + d], blocks):
                assert np.shares_memory(P, model.params)
                np.testing.assert_array_equal(P, W[d])
    V = model.V
    np.testing.assert_array_equal(V.ravel(), np.arange(offset, offset + V.size))
    assert offset + V.size == model.params.size
