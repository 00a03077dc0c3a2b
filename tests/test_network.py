import re
import tracemalloc

import numpy as np
import pytest

from neuroview.cells import (
    CHUNK,
    CellKind,
    InitKind,
    InitScheme,
    cell_forward,
    init_params,
    named_views,
    pack,
    param_shapes,
    sequence_backward,
    sequence_forward,
    stack_cells,
)
from neuroview.network import (
    EncoderConfig,
    HeadKind,
    Model,
    encode,
    head_forward,
    init_head,
    network_backward,
)
from neuroview.train import param_tree, softmax_xent

from helpers import finite_diff_tree, grad_tree, max_tree_rel_err, named_cell_grads, pass_problems


def make_model(cell, head, n=3, m=2, T=4, d=2, layers=1, bidir=False, seed=0):
    cfg = EncoderConfig(cell, m, n, T, layers=layers, bidirectional=bidir)
    cells = []
    for i in range(cfg.num_cells()):
        layer = i // cfg.directions
        in_dim = m if layer == 0 else cfg.step_width
        cells.append(init_params(cell, in_dim, n, InitScheme(InitKind.UNIFORM, seed + i)))
    return Model(cfg, cells, head, init_head(cfg, head, d, seed + 100))


def model_of(cfg, cells):
    """A model of the given cells with a two-class nv head, for ``encode``."""
    return Model(cfg, cells, HeadKind.NEUROVIEW, init_head(cfg, HeadKind.NEUROVIEW, 2, 0))


# ------------------------------------------------------------------ encode

def test_encode_single_step_reduces_to_cell_forward():
    model = make_model(CellKind.GRU, HeadKind.NEUROVIEW, T=1)
    x = np.array([[[0.4, -0.9]]])
    trace = encode(model, x)
    step = cell_forward(CellKind.GRU, model.cells[0], x[:, 0])
    np.testing.assert_array_equal(trace.hidden[0][0], step.h[0, 0])


def test_bidirectional_palindrome_symmetry():
    n, m, T = 4, 2, 5
    cfg = EncoderConfig(CellKind.GRU, m, n, T, bidirectional=True)
    shared = init_params(CellKind.GRU, m, n, InitScheme(InitKind.UNIFORM, 1))
    cells = [shared, shared]
    rng = np.random.default_rng(2)
    half = rng.normal(size=(2, m))
    x = np.vstack([half, rng.normal(size=(1, m)), half[::-1]])  # palindrome
    trace = encode(model_of(cfg, cells), x[None])
    h_f = trace.hidden[0][:, 0, :n]
    h_r = trace.hidden[0][:, 0, n:]
    for t in range(T):
        np.testing.assert_array_equal(h_f[t], h_r[T - 1 - t])


def test_reversal_duality():
    # Swapping the two directions' parameters and reversing the input
    # swaps and time-reverses the per-direction hidden sequences exactly.
    n, m, T = 3, 2, 6
    rng = np.random.default_rng(3)
    theta_f = init_params(CellKind.LSTM, m, n, InitScheme(InitKind.UNIFORM, 10))
    theta_r = init_params(CellKind.LSTM, m, n, InitScheme(InitKind.UNIFORM, 11))
    cfg = EncoderConfig(CellKind.LSTM, m, n, T, bidirectional=True)
    x = rng.normal(size=(T, m))

    fwd = encode(model_of(cfg, [theta_f, theta_r]), x[None])
    rev = encode(model_of(cfg, [theta_r, theta_f]), x[None, ::-1].copy())
    for t in range(T):
        np.testing.assert_array_equal(
            fwd.hidden[0][t, 0, :n], rev.hidden[0][T - 1 - t, 0, n:]
        )
        np.testing.assert_array_equal(
            fwd.hidden[0][t, 0, n:], rev.hidden[0][T - 1 - t, 0, :n]
        )


def test_stacked_zero_second_layer_rnn():
    n, m, T = 3, 2, 4
    cfg = EncoderConfig(CellKind.SIMPLE_RNN, m, n, T, layers=2)
    l0 = init_params(CellKind.SIMPLE_RNN, m, n, InitScheme(InitKind.UNIFORM, 0))
    shapes = param_shapes(CellKind.SIMPLE_RNN, n, n)
    l1 = pack(CellKind.SIMPLE_RNN, n, n, {k: np.zeros(s) for k, s in shapes.items()})
    trace = encode(model_of(cfg, [l0, l1]), np.random.default_rng(1).normal(size=(1, T, m)))
    np.testing.assert_array_equal(trace.hidden[1], np.full((T, 1, n), 0.5))


def test_encode_wrong_cell_count():
    # A model checks its cells once, at construction, not on each encode.
    model = make_model(CellKind.GRU, HeadKind.NEUROVIEW)
    with pytest.raises(ValueError, match="needs 1 cells"):
        Model(model.encoder, model.cells * 2, model.head_kind, model.V)


def test_encode_wrong_horizon():
    model = make_model(CellKind.GRU, HeadKind.NEUROVIEW, T=4)
    with pytest.raises(ValueError, match="shape"):
        encode(model, np.zeros((1, 5, 2)))
    # One sequence is a batch of one; a bare (T, m) array is no batch.
    with pytest.raises(ValueError, match="expected a batch"):
        encode(model, np.zeros((4, 2)))


# ------------------------------------------------------------------- heads

def test_nv_zero_matrix_gives_zero_logits():
    model = make_model(CellKind.LSTM, HeadKind.NEUROVIEW)
    model.V[:] = 0.0
    logits, _ = model.forward(np.random.default_rng(0).normal(size=(1, 4, 2)))
    np.testing.assert_array_equal(logits, np.zeros((1, 2)))


def test_nv_features_are_nonnegative():
    # Rectified features never go negative, whatever the cell produces.
    rng = np.random.default_rng(8)
    for kind in (CellKind.GRU, CellKind.LSTM):
        model = make_model(kind, HeadKind.NEUROVIEW, seed=9)
        _, trace = model.forward(rng.normal(size=(1, 4, 2)) * 2)
        assert trace.hidden[0].min() < 0  # the raw states do go negative
        assert trace.q.min() >= 0.0
        # q is max(h, 0), element by element.
        raw = trace.hidden[0].reshape(-1)
        np.testing.assert_array_equal(trace.q[0], [max(float(a), 0.0) for a in raw])


def test_encoder_config_validation():
    with pytest.raises(ValueError, match="layers"):
        EncoderConfig(CellKind.GRU, 2, 3, 4, layers=0)
    with pytest.raises(ValueError, match="max_len"):
        EncoderConfig(CellKind.GRU, 2, 3, 0)
    with pytest.raises(ValueError, match="^cell must be a CellKind, got 'gru'$"):
        EncoderConfig("gru", 2, 3, 4)


def test_encode_rejects_kind_mismatch():
    cfg = EncoderConfig(CellKind.GRU, 2, 3, 4)
    wrong = [init_params(CellKind.LSTM, 2, 3, InitScheme())]
    with pytest.raises(ValueError, match="cell 0: .* gru cell"):
        model_of(cfg, wrong)


def test_nv_features_equal_raw_hidden_for_sigmoid_rnn():
    # Sigmoid outputs live in (0, 1), so rectification changes nothing.
    model = make_model(CellKind.SIMPLE_RNN, HeadKind.NEUROVIEW, T=5)
    x = np.random.default_rng(1).normal(size=(1, 5, 2))
    logits, trace = model.forward(x)
    raw = trace.hidden[0][:, 0, :].reshape(-1)
    np.testing.assert_array_equal(trace.q[0], raw)


def test_nv_hand_computed_logits():
    # One hidden unit, two steps, two classes: logits follow by hand from
    # the rectified per-step states and the 2x2 classifier.
    cfg = EncoderConfig(CellKind.SIMPLE_RNN, 1, 1, 2)
    shapes = param_shapes(CellKind.SIMPLE_RNN, 1, 1)
    p = pack(CellKind.SIMPLE_RNN, 1, 1, {k: np.zeros(s) for k, s in shapes.items()})
    # zero params: h1 = h2 = 0.5, q = (0.5, 0.5)
    V = np.array([[1.0, 2.0], [3.0, -4.0]])
    model = Model(cfg, [p], HeadKind.NEUROVIEW, V)
    logits, trace = model.forward(np.array([[[0.7], [-0.2]]]))
    assert logits[0, 0] == pytest.approx(1.0 * 0.5 + 2.0 * 0.5, rel=1e-15)
    assert logits[0, 1] == pytest.approx(3.0 * 0.5 - 4.0 * 0.5, rel=1e-15)
    np.testing.assert_allclose(
        trace.step_logits.sum(axis=(0, 1)), logits, rtol=1e-15
    )


def test_decomposition_identity_random_passes():
    # The class scores must equal the sum of per-timestep contributions.
    rng = np.random.default_rng(7)
    kinds = list(CellKind)
    worst = 0.0
    for trial in range(100):
        kind = kinds[trial % 3]
        layers = 1 + (trial % 2)
        bidir = trial % 4 == 1
        model = make_model(
            kind, HeadKind.NEUROVIEW, n=3, m=2, T=4, d=3,
            layers=layers, bidir=bidir, seed=trial,
        )
        x = rng.normal(size=(1, 4, 2))
        logits, trace = model.forward(x)
        total = trace.step_logits.sum(axis=(0, 1))
        worst = max(worst, float(np.max(np.abs(logits - total))))
    assert worst < 1e-10


def test_last_state_head_uses_only_final_step():
    model = make_model(CellKind.GRU, HeadKind.LAST_STATE)
    x = np.random.default_rng(2).normal(size=(1, 4, 2))
    logits, trace = model.forward(x)
    np.testing.assert_allclose(
        logits[0], model.V @ trace.hidden[0][-1, 0], rtol=1e-15
    )


def test_average_pool_sums_by_default_and_means_on_flag():
    model = make_model(CellKind.GRU, HeadKind.AVERAGE_POOL)
    x = np.random.default_rng(3).normal(size=(1, 4, 2))
    logits_sum, trace = model.forward(x)
    pooled = trace.hidden[0][:, 0, :].sum(axis=0)
    np.testing.assert_allclose(logits_sum[0], model.V @ pooled, rtol=1e-15)

    model.mean_pool = True
    logits_mean, _ = model.forward(x)
    np.testing.assert_allclose(logits_mean, logits_sum / 4.0, rtol=1e-15)


def test_nv_padded_tail_contributes_nothing_extra():
    # A LastState-shaped NV head (zero blocks everywhere except the final
    # step) reproduces the LastState logits on a sigmoid RNN trace.
    n, m, T, d = 3, 2, 4, 2
    model_last = make_model(CellKind.SIMPLE_RNN, HeadKind.LAST_STATE, n=n, m=m, T=T, d=d)
    V_nv = np.zeros((d, n * T))
    V_nv[:, (T - 1) * n:] = model_last.V
    model_nv = Model(model_last.encoder, model_last.cells, HeadKind.NEUROVIEW, V_nv)
    x = np.random.default_rng(4).normal(size=(1, T, m))
    logits_last, _ = model_last.forward(x)
    logits_nv, _ = model_nv.forward(x)
    np.testing.assert_allclose(logits_nv, logits_last, rtol=1e-12, atol=1e-15)


def test_bidirectional_step_width():
    model = make_model(CellKind.GRU, HeadKind.NEUROVIEW, n=5, bidir=True)
    trace = encode(model, np.random.default_rng(0).normal(size=(1, 4, 2)))
    assert trace.hidden[0].shape[2] == 10


# ---------------------------------------------------------------- backward

def test_backward_zero_upstream_gives_zero_grads():
    for head in HeadKind:
        model = make_model(CellKind.LSTM, head, layers=2, bidir=True)
        x = np.random.default_rng(1).normal(size=(1, 4, 2))
        _, trace = model.forward(x)
        gV, layer_grads = network_backward(model, trace, np.zeros((1, 2)))
        assert not gV.any()
        for grads in layer_grads:
            for g in grads:
                assert not g.any()


def _full_network_fd(cell, head, layers, bidir, seed, tol=1e-6,
                     n=3, m=2, T=4, d=2):
    rng = np.random.default_rng(seed)
    model = make_model(cell, head, n=n, m=m, T=T, d=d,
                       layers=layers, bidir=bidir, seed=seed)
    x = rng.normal(size=(1, T, m))
    label = [int(rng.integers(d))]

    def loss_of():
        logits, _ = model.forward(x)
        return softmax_xent(logits, label)[0]

    logits, trace = model.forward(x)
    _, gl = softmax_xent(logits, label)
    gV, cg = network_backward(model, trace, gl)
    analytic = grad_tree(model, gV, cg)
    numeric = finite_diff_tree(loss_of, param_tree(model))
    assert max_tree_rel_err(analytic, numeric) < tol


def test_full_network_fd_nv_gru():
    _full_network_fd(CellKind.GRU, HeadKind.NEUROVIEW, 1, False, seed=0)


def test_full_network_fd_last_state():
    _full_network_fd(CellKind.GRU, HeadKind.LAST_STATE, 1, False, seed=0)


def _stacked_fd(cell, head, layers, bidir, seed, tol=1e-6, n=3, m=2, T=4, d=2,
                mean_pool=False):
    # Deep-stack parameters see tiny cross-entropy gradients that drown in
    # difference-quotient noise, so this check differentiates a random O(1)
    # combination of the class scores instead.
    rng = np.random.default_rng(seed)
    model = make_model(cell, head, n=n, m=m, T=T, d=d,
                       layers=layers, bidir=bidir, seed=seed)
    model.mean_pool = mean_pool
    x = rng.normal(size=(1, T, m))
    w = rng.normal(size=(1, d))

    def scalar():
        logits, _ = model.forward(x)
        return float(np.sum(w * logits))

    _, trace = model.forward(x)
    gV, cg = network_backward(model, trace, w)
    analytic = grad_tree(model, gV, cg)
    numeric = finite_diff_tree(scalar, param_tree(model))
    assert max_tree_rel_err(analytic, numeric) < tol


def test_full_network_fd_stacked_bidirectional():
    _stacked_fd(CellKind.GRU, HeadKind.NEUROVIEW, 2, True, seed=3)
    _stacked_fd(CellKind.LSTM, HeadKind.NEUROVIEW, 2, True, seed=3)
    _stacked_fd(CellKind.SIMPLE_RNN, HeadKind.AVERAGE_POOL, 2, True, seed=0)
    _stacked_fd(CellKind.SIMPLE_RNN, HeadKind.AVERAGE_POOL, 2, True, seed=0, mean_pool=True)
    _stacked_fd(CellKind.LSTM, HeadKind.LAST_STATE, 2, False, seed=0)


def _stepwise_network(model, x, grad_logits):
    """``encode`` + NeuroView head + ``network_backward``, rebuilt from
    one one-step kernel call (T = 1, D = 1) per (layer, direction, t).
    Returns the hidden states, the scores and the gradients."""
    cfg = model.encoder
    T, n, D = cfg.max_len, cfg.hidden_dim, cfg.directions
    lstm = cfg.cell is CellKind.LSTM
    X = x.transpose(1, 0, 2)
    B = X.shape[1]
    inputs, hidden, steps = [], [], []
    for layer in range(cfg.layers):
        inputs.append(X)
        outs, recs = [], []
        for d in range(D):
            h = np.zeros((1, B, n))
            c = np.zeros((1, B, n)) if lstm else None
            H, rec = np.empty((T, B, n)), [None] * T
            for t in (range(T) if d == 0 else range(T - 1, -1, -1)):
                tr = sequence_forward(cfg.cell, stack_cells([model.cells[layer * D + d]]),
                                      X[t][None], h, c)
                h = tr.h[0]
                c = tr.aux[0].transpose(1, 2, 0) if lstm else None
                H[t], rec[t] = h[0], tr
            outs.append(H)
            recs.append(rec)
        X = np.concatenate(outs, axis=2)
        hidden.append(X)
        steps.append(recs)

    V = model.V
    q = np.concatenate(
        [np.maximum(H, 0.0).transpose(1, 0, 2).reshape(B, -1) for H in hidden], axis=1)
    grad_q = (grad_logits @ V).reshape(B, cfg.layers, T, cfg.step_width)
    dH = [grad_q[:, layer].transpose(1, 0, 2) * (hidden[layer] > 0.0)
          for layer in range(cfg.layers)]
    cell_grads = [None] * len(model.cells)
    for layer in range(cfg.layers - 1, -1, -1):
        dX = np.zeros_like(inputs[layer])
        for d in range(D):
            idx = layer * D + d
            p = model.cells[idx]
            acc = [np.zeros_like(W) for W in p]
            carry_h = np.zeros((1, B, n))
            carry_c = np.zeros((1, B, n)) if lstm else None
            # The reverse direction's BPTT carry flows from t to t+1.
            for t in (range(T - 1, -1, -1) if d == 0 else range(T)):
                dx = np.zeros((1, B, inputs[layer].shape[-1]))
                grads, carry_h, carry_c = sequence_backward(
                    cfg.cell, stack_cells([p]), steps[layer][d][t],
                    dH[layer][t][None, :, d * n:(d + 1) * n] + carry_h, carry_c, dx)
                for a, g in zip(acc, grads):
                    a += g[0]
                dX[t] += dx[0]
            cell_grads[idx] = named_views(cfg.cell, n, *acc)
        if layer > 0:
            dH[layer - 1] = dH[layer - 1] + dX
    return hidden, q @ V.T, grad_logits.T @ q, cell_grads


def _assert_rel_close(got, want, tol=1e-12):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= tol * scale


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("bidir", [False, True])
@pytest.mark.parametrize("cell", list(CellKind))
def test_sequence_kernel_matches_stepwise_cells(cell, bidir, layers):
    model = make_model(cell, HeadKind.NEUROVIEW, n=4, m=3, T=6, d=3,
                       layers=layers, bidir=bidir, seed=7)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, 6, 3))
    gl = rng.normal(size=(5, 3))

    logits, trace = model.forward(x)
    grad_V, layer_grads = network_backward(model, trace, gl)
    hidden, want_logits, want_V, want_grads = _stepwise_network(model, x, gl)

    for got, want in zip(trace.hidden, hidden):
        _assert_rel_close(got, want)
    _assert_rel_close(logits, want_logits)
    _assert_rel_close(grad_V, want_V)
    for got, want in zip(named_cell_grads(model, layer_grads), want_grads):
        assert list(got) == list(want)
        for k in want:
            _assert_rel_close(got[k], want[k])


def test_backward_shape_errors():
    model = make_model(CellKind.GRU, HeadKind.NEUROVIEW)
    _, trace = model.forward(np.zeros((1, 4, 2)))
    with pytest.raises(ValueError, match="classes"):
        network_backward(model, trace, np.zeros((1, 5)))
    with pytest.raises(ValueError, match="batch"):
        network_backward(model, trace, np.zeros(2))


def test_model_validates_head_width():
    cfg = EncoderConfig(CellKind.GRU, 2, 3, 4)
    cells = [init_params(CellKind.GRU, 2, 3, InitScheme())]
    with pytest.raises(ValueError, match="columns"):
        Model(cfg, cells, HeadKind.NEUROVIEW, np.zeros((2, 5)))
    with pytest.raises(ValueError, match="^head_kind must be a HeadKind, got 'avg'$"):
        Model(cfg, cells, "avg", np.zeros((2, 3)))


def test_model_rejects_a_non_finite_head():
    cfg = EncoderConfig(CellKind.GRU, 2, 3, 4)
    cells = [init_params(CellKind.GRU, 2, 3, InitScheme())]
    for bad in (np.nan, np.inf, -np.inf):
        V = np.zeros((2, 12))
        V[1, 5] = bad
        with pytest.raises(ValueError, match="^head V contains non-finite entries$"):
            Model(cfg, cells, HeadKind.NEUROVIEW, V)


@pytest.mark.parametrize("case", ["input", "hidden", "one-block"])
def test_model_rejects_a_cell_of_the_wrong_block_shape(case):
    # A cell is its pair of packed blocks, checked against the config by
    # shape (a cell of another kind has another row count: see
    # test_encode_rejects_kind_mismatch); the message names the cell.
    cfg = EncoderConfig(CellKind.GRU, 2, 3, 4, layers=2)
    good = init_params(CellKind.GRU, 3, 3, InitScheme())
    bad = {"input": init_params(CellKind.GRU, 2, 3, InitScheme()),
           "hidden": (good[0], good[1][:, :-1]),
           "one-block": good[:1]}[case]
    cells = [init_params(CellKind.GRU, 2, 3, InitScheme()), bad]
    with pytest.raises(ValueError, match=r"^cell 1: blocks of shapes .* do not fit the "
                                         r"config's gru cell of dims \(3, 3\), "
                                         r"\(\(9, 4\), \(9, 4\)\)$"):
        model_of(cfg, cells)


# ------------------------------------------------------- flat parameter buffer

def test_param_tree_views_drive_the_forward_pass():
    # Every named array is a view into ``model.params``: an in-place change
    # to any one entry moves the logits, and undoing it restores them. (The
    # pooled head has no ReLU that could hide a unit's change.)
    model = make_model(CellKind.LSTM, HeadKind.AVERAGE_POOL, layers=2, bidir=True, seed=4)
    x = np.random.default_rng(5).normal(size=(2, 4, 2))
    base, _ = model.forward(x)
    for name, view in param_tree(model).items():
        assert np.shares_memory(view, model.params), name
        old = view.flat[0]
        view.flat[0] = old + 0.25
        moved, _ = model.forward(x)
        assert not np.array_equal(moved, base), name
        view.flat[0] = old
    np.testing.assert_array_equal(model.forward(x)[0], base)


def test_models_built_from_the_same_cells_do_not_alias():
    cfg = EncoderConfig(CellKind.GRU, 2, 3, 4, layers=2, bidirectional=True)
    cells = [init_params(CellKind.GRU, 2 if i < 2 else 6, 3,
                         InitScheme(InitKind.UNIFORM, i)) for i in range(4)]
    V = init_head(cfg, HeadKind.NEUROVIEW, 2, 9)
    a, b = Model(cfg, cells, HeadKind.NEUROVIEW, V), Model(cfg, cells, HeadKind.NEUROVIEW, V)
    assert not np.shares_memory(a.params, b.params)
    for cell in cells:
        for W in cell:
            assert not np.shares_memory(W, a.params)
    assert not np.shares_memory(V, a.params)
    np.testing.assert_array_equal(a.params, b.params)
    a.params += 1.0
    np.testing.assert_array_equal(b.params + 1.0, a.params)
    np.testing.assert_array_equal(b.V, V)
    for got, want in zip(b.cells, cells):
        for W_got, W_want in zip(got, want):
            np.testing.assert_array_equal(W_got, W_want)


# ------------------------------------------------------------- buffer reuse

@pytest.mark.parametrize("head", [HeadKind.NEUROVIEW, HeadKind.AVERAGE_POOL],
                         ids=lambda h: h.value)
@pytest.mark.parametrize("layers,bidir", [(1, False), (2, True)], ids=["1-uni", "2-bidir"])
@pytest.mark.parametrize("cell", list(CellKind), ids=lambda c: c.value)
def test_pass_into_an_earlier_trace_equals_a_fresh_pass(cell, layers, bidir, head):
    model = make_model(cell, head, n=4, m=2, T=7, d=3, layers=layers, bidir=bidir, seed=2)
    rng = np.random.default_rng(3)
    x1, x2 = rng.normal(size=(2, 5, 7, 2))
    gl1, gl2 = rng.normal(size=(2, 5, 3))
    _, prev = model.forward(x1)
    network_backward(model, prev, gl1)
    names = set(prev.buffers)
    problems, lender = pass_problems(model, x2, 0, (model, x1, True, prev), True, gl2)
    # q, the step logits and the backward's work arrays took the earlier
    # trace's arrays and no others; a batch of another size gets fresh ones.
    assert problems == [] and set(lender[3].buffers) == names
    x3 = rng.normal(size=(3, 7, 2))
    assert pass_problems(model, x3, 0, lender, True, gl2[:3])[0] == []


def test_nv_backward_writes_over_q():
    # The gradient at q takes over q's buffer: no array of q's size is
    # allocated, and the trace's q is gone.
    model = make_model(CellKind.GRU, HeadKind.NEUROVIEW, n=8, T=50, d=3, seed=3)
    x = np.random.default_rng(4).normal(size=(40, 50, 2))
    gl = np.random.default_rng(5).normal(size=(40, 3))
    _, trace = model.forward(x)
    size = trace.q.nbytes
    grad = np.empty_like(model.params)
    tracemalloc.start()
    try:
        network_backward(model, trace, gl, grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size
    assert trace.q is None and "dH" not in trace.buffers
    with pytest.raises(ValueError, match="head_forward first"):
        network_backward(model, trace, gl, grad)


# ----------------------------------------------------------- resumed passes

@pytest.mark.parametrize("gates", [True, False], ids=["gates", "forward-only"])
@pytest.mark.parametrize("layers", [1, 2], ids=["1-uni", "2-uni"])
@pytest.mark.parametrize("cell", list(CellKind), ids=lambda c: c.value)
def test_pass_resumed_in_place_equals_a_fresh_pass(cell, layers, gates):
    T = 2 * CHUNK + 3
    model = make_model(cell, HeadKind.NEUROVIEW, n=4, m=2, T=T, d=3, layers=layers, seed=7)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, T, 2))
    gl = rng.normal(size=(5, 3))
    for t0 in (1, CHUNK, T - 1):
        xa = x.copy()
        xa[:, t0:] = rng.normal(size=(5, T - t0, 2))
        lender = (model, x, gates, model.forward(x, gates=gates)[1])
        assert pass_problems(model, xa, t0, lender, gates, gl if gates else None)[0] == []


@pytest.mark.parametrize("t0", [True, False, 1.5, 2.0, "2", None], ids=repr)
def test_resume_must_be_an_integer(t0):
    model = make_model(CellKind.GRU, HeadKind.NEUROVIEW, T=5)
    x = np.ones((2, 5, 2))
    _, base = model.forward(x, gates=False)
    line = f"resume must be an integer, got {t0!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(line)}$"):
        encode(model, x, t0, base, gates=False)


def test_resume_takes_a_numpy_integer():
    model = make_model(CellKind.GRU, HeadKind.NEUROVIEW, T=5)
    x = np.ones((2, 5, 2))
    want, _ = model.forward(x, gates=False)
    for t0 in (np.int64(2), np.int32(4)):
        _, base = model.forward(x, gates=False)
        got = encode(model, x, t0, base, gates=False)
        assert type(got.t0) is int and got.t0 == t0
        np.testing.assert_array_equal(head_forward(model, got), want)


def test_a_pass_resumes_only_into_a_matching_trace():
    def lender(model, x, gates=True):
        return model, x, gates, model.forward(x, gates=gates)[1]

    def refused(model, x, t0, held, gates=True):
        # The checker gives the lender back after the refusal it predicts.
        problems, after = pass_problems(model, x, t0, held, gates, None)
        return problems == [] and after is held

    model = make_model(CellKind.LSTM, HeadKind.NEUROVIEW, T=5)
    x = np.ones((2, 5, 2))
    base = lender(model, x)
    assert refused(model, x, 2, None) and refused(model, x[:1], 2, base)
    assert refused(model, x, 2, base, False) and refused(model, x, 2, lender(model, x, False))
    assert refused(model, x, -1, base) and refused(model, x, 5, base)
    # Nor into a pass of another encoder: one of two layers of the same
    # width, one of another hidden size, one of another cell and, where
    # the trace keeps its inputs, one of another input width.
    for cell in CellKind:
        model = make_model(cell, HeadKind.NEUROVIEW, T=5)
        other_cell = CellKind.GRU if cell is CellKind.LSTM else CellKind.LSTM
        for other, modes in ((make_model(cell, HeadKind.NEUROVIEW, T=5, layers=2), (True, False)),
                             (make_model(cell, HeadKind.NEUROVIEW, n=4, T=5), (True, False)),
                             (make_model(other_cell, HeadKind.NEUROVIEW, T=5), (True, False)),
                             (make_model(cell, HeadKind.NEUROVIEW, m=3, T=5), (True,))):
            y = np.ones((2, 5, other.encoder.input_dim))
            assert all(refused(model, x, 2, lender(other, y, gates), gates) for gates in modes)
    # A pass that only borrows arrays takes them from a trace of as many
    # layers, deeper or shallower.
    one, two = (make_model(CellKind.GRU, HeadKind.NEUROVIEW, T=5, layers=k) for k in (1, 2))
    assert refused(two, x, 0, lender(one, x)) and refused(one, x, 0, lender(two, x))


# ------------------------------------------------------ forward-only passes

_SHAPES = [(1, False), (2, True), (2, False)]


@pytest.mark.parametrize("B", [1, 3, 58])
@pytest.mark.parametrize("layers,bidir", _SHAPES, ids=["1-uni", "2-bidir", "2-uni"])
@pytest.mark.parametrize("cell", list(CellKind), ids=lambda c: c.value)
def test_forward_only_pass_equals_the_full_pass(cell, layers, bidir, B):
    # T is no multiple of CHUNK, so the last chunk is a short one.
    T = 2 * CHUNK + 3
    model = make_model(cell, HeadKind.NEUROVIEW, n=5, m=2, T=T, d=3, layers=layers,
                       bidir=bidir, seed=4)
    x = np.random.default_rng(B).normal(size=(B, T, 2))
    problems, lender = pass_problems(model, x, 0, None, False, None)
    # Unidirectional, forward-only passes resumed in place, at steps in the
    # short last chunk, on a chunk boundary and inside the first chunk; each
    # one reads only steps that the ones before it left as they were.
    xa = x.copy()
    for t0 in () if bidir else (2 * CHUNK + 1, CHUNK, 1):
        xa[:, t0:] = -x[:, t0:]
        found, lender = pass_problems(model, xa, t0, lender, False, None)
        problems += found
    assert problems == []


@pytest.mark.parametrize("head", list(HeadKind), ids=lambda h: h.value)
@pytest.mark.parametrize("cell", list(CellKind), ids=lambda c: c.value)
def test_forward_only_pass_with_a_horizon_below_chunk(cell, head):
    T = CHUNK - 3
    model = make_model(cell, head, n=4, m=2, T=T, d=3, layers=2, bidir=True, seed=5)
    x = np.random.default_rng(9).normal(size=(6, T, 2))
    assert pass_problems(model, x, 0, None, False, None)[0] == []


@pytest.mark.parametrize("cell", list(CellKind), ids=lambda c: c.value)
def test_forward_only_pass_into_an_earlier_one_reuses_its_chunk_buffers(cell):
    T = 2 * CHUNK + 1
    model = make_model(cell, HeadKind.NEUROVIEW, n=4, m=2, T=T, d=3, seed=6)
    x1, x2 = np.random.default_rng(2).normal(size=(2, 5, T, 2))
    prev = encode(model, x1, gates=False)
    # The kernel's chunk buffers are lent, to this pass and to one resumed
    # inside the short last chunk, which runs fewer than CHUNK steps.
    assert prev.gate_traces[0].buffers
    problems, lender = pass_problems(model, x2, 0, (model, x1, False, prev), False, None)
    t0 = T - 2
    x3 = x2.copy()
    x3[:, t0:] = -x2[:, t0:]
    assert problems + pass_problems(model, x3, t0, lender, False, None)[0] == []


def test_forward_only_trace_cannot_be_backpropagated():
    model = make_model(CellKind.LSTM, HeadKind.NEUROVIEW, T=5)
    x = np.ones((2, 5, 2))
    _, trace = model.forward(x, gates=False)
    with pytest.raises(ValueError, match="forward pass only"):
        network_backward(model, trace, np.ones((2, 2)))
    with pytest.raises(ValueError, match="forward-only"):
        sequence_backward(CellKind.LSTM, model.layers[0], trace.gate_traces[0],
                          np.ones((5, 2, 3)))
