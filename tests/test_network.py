import numpy as np
import pytest

from neuroview.cells import (
    CHUNK,
    CellKind,
    CellParams,
    InitKind,
    InitScheme,
    cell_forward,
    init_params,
    named_views,
    param_shapes,
    sequence_backward,
    sequence_forward,
)
from neuroview.network import (
    EncoderConfig,
    HeadKind,
    HeadParams,
    Model,
    encode,
    head_forward,
    init_head,
    network_backward,
    predict,
)
from neuroview.train import param_tree, softmax_xent

from helpers import finite_diff_tree, grad_tree, max_tree_rel_err, named_cell_grads


def make_model(cell, head, n=3, m=2, T=4, d=2, layers=1, bidir=False, seed=0):
    cfg = EncoderConfig(cell, m, n, T, layers=layers, bidirectional=bidir)
    cells = []
    for i in range(cfg.num_cells()):
        layer = i // cfg.directions
        in_dim = m if layer == 0 else cfg.step_width
        cells.append(init_params(cell, in_dim, n, InitScheme(InitKind.UNIFORM, seed + i)))
    head_params = init_head(cfg, head, d, seed + 100)
    return Model(cfg, cells, head_params)


# ------------------------------------------------------------------ encode

def test_encode_single_step_reduces_to_cell_forward():
    model = make_model(CellKind.GRU, HeadKind.NEUROVIEW, T=1)
    x = np.array([[[0.4, -0.9]]])
    trace = encode(model.encoder, model.cells, x)
    step = cell_forward(model.cells[0], x[:, 0])
    np.testing.assert_array_equal(trace.hidden[0][0], step.h[0, 0])


def test_bidirectional_palindrome_symmetry():
    n, m, T = 4, 2, 5
    cfg = EncoderConfig(CellKind.GRU, m, n, T, bidirectional=True)
    shared = init_params(CellKind.GRU, m, n, InitScheme(InitKind.UNIFORM, 1))
    cells = [shared, shared.copy()]
    rng = np.random.default_rng(2)
    half = rng.normal(size=(2, m))
    x = np.vstack([half, rng.normal(size=(1, m)), half[::-1]])  # palindrome
    trace = encode(cfg, cells, x[None])
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

    fwd = encode(cfg, [theta_f, theta_r], x[None])
    rev = encode(cfg, [theta_r, theta_f], x[None, ::-1].copy())
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
    l1 = CellParams(CellKind.SIMPLE_RNN, n, n, {k: np.zeros(s) for k, s in shapes.items()})
    trace = encode(cfg, [l0, l1], np.random.default_rng(1).normal(size=(1, T, m)))
    np.testing.assert_array_equal(trace.hidden[1], np.full((T, 1, n), 0.5))


def test_encode_wrong_cell_count():
    model = make_model(CellKind.GRU, HeadKind.NEUROVIEW)
    with pytest.raises(ValueError, match="needs 1 cells"):
        encode(model.encoder, model.cells * 2, np.zeros((1, 4, 2)))


def test_encode_wrong_horizon():
    model = make_model(CellKind.GRU, HeadKind.NEUROVIEW, T=4)
    with pytest.raises(ValueError, match="shape"):
        encode(model.encoder, model.cells, np.zeros((1, 5, 2)))
    # One sequence is a batch of one; a bare (T, m) array is no batch.
    with pytest.raises(ValueError, match="expected a batch"):
        encode(model.encoder, model.cells, np.zeros((4, 2)))


# ------------------------------------------------------------------- heads

def test_nv_zero_matrix_gives_zero_logits():
    model = make_model(CellKind.LSTM, HeadKind.NEUROVIEW)
    model.head.V[:] = 0.0
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


def test_encode_rejects_kind_mismatch():
    cfg = EncoderConfig(CellKind.GRU, 2, 3, 4)
    wrong = [init_params(CellKind.LSTM, 2, 3, InitScheme())]
    with pytest.raises(ValueError, match="kind"):
        encode(cfg, wrong, np.zeros((1, 4, 2)))


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
    p = CellParams(CellKind.SIMPLE_RNN, 1, 1, {k: np.zeros(s) for k, s in shapes.items()})
    # zero params: h1 = h2 = 0.5, q = (0.5, 0.5)
    V = np.array([[1.0, 2.0], [3.0, -4.0]])
    head = HeadParams(HeadKind.NEUROVIEW, V)
    model = Model(cfg, [p], head)
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
        logits[0], model.head.V @ trace.hidden[0][-1, 0], rtol=1e-15
    )


def test_average_pool_sums_by_default_and_means_on_flag():
    model = make_model(CellKind.GRU, HeadKind.AVERAGE_POOL)
    x = np.random.default_rng(3).normal(size=(1, 4, 2))
    logits_sum, trace = model.forward(x)
    pooled = trace.hidden[0][:, 0, :].sum(axis=0)
    np.testing.assert_allclose(logits_sum[0], model.head.V @ pooled, rtol=1e-15)

    model.head.mean_pool = True
    logits_mean, _ = model.forward(x)
    np.testing.assert_allclose(logits_mean, logits_sum / 4.0, rtol=1e-15)


def test_nv_padded_tail_contributes_nothing_extra():
    # A LastState-shaped NV head (zero blocks everywhere except the final
    # step) reproduces the LastState logits on a sigmoid RNN trace.
    n, m, T, d = 3, 2, 4, 2
    model_last = make_model(CellKind.SIMPLE_RNN, HeadKind.LAST_STATE, n=n, m=m, T=T, d=d)
    V_nv = np.zeros((d, n * T))
    V_nv[:, (T - 1) * n:] = model_last.head.V
    model_nv = Model(
        model_last.encoder, model_last.cells, HeadParams(HeadKind.NEUROVIEW, V_nv)
    )
    x = np.random.default_rng(4).normal(size=(1, T, m))
    logits_last, _ = model_last.forward(x)
    logits_nv, _ = model_nv.forward(x)
    np.testing.assert_allclose(logits_nv, logits_last, rtol=1e-12, atol=1e-15)


def test_bidirectional_step_width():
    model = make_model(CellKind.GRU, HeadKind.NEUROVIEW, n=5, bidir=True)
    trace = encode(model.encoder, model.cells,
                   np.random.default_rng(0).normal(size=(1, 4, 2)))
    assert trace.hidden[0].shape[2] == 10


def test_head_width_mismatch_error():
    model = make_model(CellKind.GRU, HeadKind.NEUROVIEW)
    bad_head = HeadParams(HeadKind.NEUROVIEW, np.zeros((2, 7)))
    trace = encode(model.encoder, model.cells, np.zeros((1, 4, 2)))
    with pytest.raises(ValueError, match="width mismatch"):
        head_forward(bad_head, trace, model.encoder)


# ----------------------------------------------------------------- predict

def test_predict_tie_breaks_to_lowest_index():
    model = make_model(CellKind.SIMPLE_RNN, HeadKind.NEUROVIEW)
    model.head.V[:] = 0.0  # logits (0, 0) for any input
    cls, logits = predict(model.encoder, model.cells, model.head,
                          np.zeros((1, 4, 2)))
    np.testing.assert_array_equal(logits, [[0.0, 0.0]])
    np.testing.assert_array_equal(cls, [0])


def test_predict_argmax():
    model = make_model(CellKind.SIMPLE_RNN, HeadKind.NEUROVIEW)
    # sigmoid states are positive, so an all-positive class-1 row wins
    model.head.V[0, :] = -1.0
    model.head.V[1, :] = 3.0
    cls, logits = predict(model.encoder, model.cells, model.head,
                          np.random.default_rng(5).normal(size=(1, 4, 2)))
    assert logits[0, 1] > logits[0, 0]
    np.testing.assert_array_equal(cls, [1])


def test_predict_argmax_invariant_under_positive_scaling():
    rng = np.random.default_rng(6)
    for seed in range(10):
        model = make_model(CellKind.GRU, HeadKind.NEUROVIEW, d=4, seed=seed)
        x = rng.normal(size=(1, 4, 2))
        cls, _ = predict(model.encoder, model.cells, model.head, x)
        model.head.V *= 37.5
        cls_scaled, _ = predict(model.encoder, model.cells, model.head, x)
        np.testing.assert_array_equal(cls, cls_scaled)


# ---------------------------------------------------------------- backward

def test_backward_zero_upstream_gives_zero_grads():
    for head in HeadKind:
        model = make_model(CellKind.LSTM, head, layers=2, bidir=True)
        x = np.random.default_rng(1).normal(size=(1, 4, 2))
        _, trace = model.forward(x)
        gV, cell_grads = network_backward(
            model.encoder, model.cells, model.head, trace, np.zeros((1, 2))
        )
        assert not gV.any()
        for grads in cell_grads:
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
    gV, cg = network_backward(model.encoder, model.cells, model.head, trace, gl)
    analytic = grad_tree(model.cells, gV, cg)
    numeric = finite_diff_tree(loss_of, param_tree(model))
    assert max_tree_rel_err(analytic, numeric) < tol


def test_full_network_fd_nv_gru():
    _full_network_fd(CellKind.GRU, HeadKind.NEUROVIEW, 1, False, seed=0)


def test_full_network_fd_last_state():
    _full_network_fd(CellKind.GRU, HeadKind.LAST_STATE, 1, False, seed=0)


def _stacked_fd(cell, head, layers, bidir, seed, tol=1e-6, n=3, m=2, T=4, d=2):
    # Deep-stack parameters see tiny cross-entropy gradients that drown in
    # difference-quotient noise, so this check differentiates a random O(1)
    # combination of the class scores instead.
    rng = np.random.default_rng(seed)
    model = make_model(cell, head, n=n, m=m, T=T, d=d,
                       layers=layers, bidir=bidir, seed=seed)
    x = rng.normal(size=(1, T, m))
    w = rng.normal(size=(1, d))

    def scalar():
        logits, _ = model.forward(x)
        return float(np.sum(w * logits))

    _, trace = model.forward(x)
    gV, cg = network_backward(model.encoder, model.cells, model.head, trace, w)
    analytic = grad_tree(model.cells, gV, cg)
    numeric = finite_diff_tree(scalar, param_tree(model))
    assert max_tree_rel_err(analytic, numeric) < tol


def test_full_network_fd_stacked_bidirectional():
    _stacked_fd(CellKind.GRU, HeadKind.NEUROVIEW, 2, True, seed=3)
    _stacked_fd(CellKind.LSTM, HeadKind.NEUROVIEW, 2, True, seed=3)
    _stacked_fd(CellKind.SIMPLE_RNN, HeadKind.AVERAGE_POOL, 2, True, seed=0)
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
                tr = sequence_forward([model.cells[layer * D + d]], X[t][None], h, c)
                h = tr.h[0]
                c = tr.aux[0].transpose(1, 2, 0) if lstm else None
                H[t], rec[t] = h[0], tr
            outs.append(H)
            recs.append(rec)
        X = np.concatenate(outs, axis=2)
        hidden.append(X)
        steps.append(recs)

    V = model.head.V
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
            acc = [np.zeros_like(W) for W in p.packed]
            carry_h = np.zeros((1, B, n))
            carry_c = np.zeros((1, B, n)) if lstm else None
            # The reverse direction's BPTT carry flows from t to t+1.
            for t in (range(T - 1, -1, -1) if d == 0 else range(T)):
                dx = np.zeros((1, B, p.input_dim))
                grads, carry_h, carry_c = sequence_backward(
                    [p], steps[layer][d][t],
                    dH[layer][t][None, :, d * n:(d + 1) * n] + carry_h, carry_c, dx)
                for a, g in zip(acc, grads[0]):
                    a += g
                dX[t] += dx[0]
            cell_grads[idx] = named_views(p.kind, n, *acc)
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
    grad_V, cell_grads = network_backward(
        model.encoder, model.cells, model.head, trace, gl)
    hidden, want_logits, want_V, want_grads = _stepwise_network(model, x, gl)

    for got, want in zip(trace.hidden, hidden):
        _assert_rel_close(got, want)
    _assert_rel_close(logits, want_logits)
    _assert_rel_close(grad_V, want_V)
    for got, want in zip(named_cell_grads(model.cells, cell_grads), want_grads):
        assert list(got) == list(want)
        for k in want:
            _assert_rel_close(got[k], want[k])


def test_backward_shape_errors():
    model = make_model(CellKind.GRU, HeadKind.NEUROVIEW)
    _, trace = model.forward(np.zeros((1, 4, 2)))
    with pytest.raises(ValueError, match="classes"):
        network_backward(model.encoder, model.cells, model.head, trace, np.zeros((1, 5)))
    with pytest.raises(ValueError, match="batch"):
        network_backward(model.encoder, model.cells, model.head, trace, np.zeros(2))


def test_model_validates_head_width():
    cfg = EncoderConfig(CellKind.GRU, 2, 3, 4)
    cells = [init_params(CellKind.GRU, 2, 3, InitScheme())]
    with pytest.raises(ValueError, match="columns"):
        Model(cfg, cells, HeadParams(HeadKind.NEUROVIEW, np.zeros((2, 5))))


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
    head = init_head(cfg, HeadKind.NEUROVIEW, 2, 9)
    a, b = Model(cfg, cells, head), Model(cfg, cells, head)
    assert not np.shares_memory(a.params, b.params)
    for p in cells:
        for W in p.packed:
            assert not np.shares_memory(W, a.params)
    assert not np.shares_memory(head.V, a.params)
    np.testing.assert_array_equal(a.params, b.params)
    a.params += 1.0
    np.testing.assert_array_equal(b.params + 1.0, a.params)
    np.testing.assert_array_equal(b.head.V, head.V)
    for p, q in zip(b.cells, cells):
        for k in q.arrays:
            np.testing.assert_array_equal(p.arrays[k], q.arrays[k])


# ------------------------------------------------------------- buffer reuse

_TRACE_ARRAYS = ("xa", "ha", "gates", "aux", "h0a", "c0")


def _pass(model, x, gl, out=None):
    """Forward and backward; returns the logits, the trace and the flat
    gradient."""
    trace = encode(model.encoder, model.cells, x, out=out)
    logits = head_forward(model.head, trace, model.encoder)
    grad = np.empty_like(model.params)
    network_backward(model.encoder, model.cells, model.head, trace, gl, grad)
    return logits, trace, grad


@pytest.mark.parametrize("head", [HeadKind.NEUROVIEW, HeadKind.AVERAGE_POOL],
                         ids=lambda h: h.value)
@pytest.mark.parametrize("layers,bidir", [(1, False), (2, True)], ids=["1-uni", "2-bidir"])
@pytest.mark.parametrize("cell", list(CellKind), ids=lambda c: c.value)
def test_pass_into_an_earlier_trace_equals_a_fresh_pass(cell, layers, bidir, head):
    model = make_model(cell, head, n=4, m=2, T=7, d=3, layers=layers, bidir=bidir, seed=2)
    rng = np.random.default_rng(3)
    x1, x2 = rng.normal(size=(2, 5, 7, 2))
    gl1, gl2 = rng.normal(size=(2, 5, 3))
    want_logits, want, want_grad = _pass(model, x2, gl2)
    _, prev, _ = _pass(model, x1, gl1)
    lent = dict(prev.buffers)
    lent.update({(layer, name): getattr(tr, name)
                 for layer, tr in enumerate(prev.gate_traces) for name in _TRACE_ARRAYS[:4]})
    lent.update({(layer, "buffers", name): arr for layer, tr in enumerate(prev.gate_traces)
                 for name, arr in tr.buffers.items()})
    if bidir:
        lent.update({("hidden", layer): H for layer, H in enumerate(prev.hidden)})

    logits, got, grad = _pass(model, x2, gl2, out=prev)
    np.testing.assert_array_equal(logits, want_logits)
    np.testing.assert_array_equal(grad, want_grad)
    for layer in range(layers):
        np.testing.assert_array_equal(got.hidden[layer], want.hidden[layer])
        tr, tw = got.gate_traces[layer], want.gate_traces[layer]
        for name in _TRACE_ARRAYS:
            if getattr(tw, name) is not None:
                np.testing.assert_array_equal(getattr(tr, name), getattr(tw, name))
    if head is HeadKind.NEUROVIEW:
        np.testing.assert_array_equal(got.q, want.q)
        np.testing.assert_array_equal(got.step_logits, want.step_logits)
    # Every per-timestep array, q, the step logits and the backward's work
    # arrays, the kernel's own included, were written into the earlier
    # trace's memory.
    assert set(got.buffers) == {name for name in lent if isinstance(name, str)}
    for name, arr in lent.items():
        if isinstance(name, str):
            now = got.buffers[name]
        elif name[0] == "hidden":
            now = got.hidden[name[1]]
        elif name[1] == "buffers":
            now = got.gate_traces[name[0]].buffers[name[2]]
        else:
            now = getattr(got.gate_traces[name[0]], name[1])
        assert np.shares_memory(now, arr), name

    # A batch of another size gets fresh arrays and the same values as a
    # fresh pass.
    x3 = rng.normal(size=(3, 7, 2))
    want3 = _pass(model, x3, gl2[:3])
    got3 = _pass(model, x3, gl2[:3], out=got)
    np.testing.assert_array_equal(got3[0], want3[0])
    np.testing.assert_array_equal(got3[2], want3[2])
    for layer, tr in enumerate(got3[1].gate_traces):
        for name in _TRACE_ARRAYS[:4]:
            assert not np.shares_memory(getattr(tr, name), lent[layer, name])
        for name, arr in tr.buffers.items():
            assert not np.shares_memory(arr, lent[layer, "buffers", name]), name
    for name, arr in got3[1].buffers.items():
        assert not np.shares_memory(arr, lent[name]), name


@pytest.mark.parametrize("head", [HeadKind.LAST_STATE, HeadKind.AVERAGE_POOL],
                         ids=lambda h: h.value)
def test_only_the_nv_head_reads_a_resumed_trace(head):
    model = make_model(CellKind.GRU, head, T=5)
    x = np.ones((2, 5, 2))
    _, base = model.forward(x)
    with pytest.raises(ValueError, match="only the nv head"):
        model.forward(x, (base, 2))


def test_resumed_trace_cannot_be_backpropagated():
    model = make_model(CellKind.GRU, HeadKind.NEUROVIEW, T=5)
    x = np.ones((2, 5, 2))
    _, base = model.forward(x)
    _, resumed = model.forward(x, (base, 2))
    with pytest.raises(ValueError, match="forward pass only"):
        network_backward(model.encoder, model.cells, model.head, resumed, np.ones((2, 2)))


# ------------------------------------------------------ forward-only passes

_SHAPES = [(1, False), (2, True), (2, False)]


def _assert_forward_only_equals_full(got, got_trace, want, want_trace, cell, t0=0):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got_trace.q, want_trace.q)
    assert not got_trace.gates and got_trace.step_logits is None
    for layer, tr in enumerate(got_trace.gate_traces):
        full = want_trace.gate_traces[layer]
        np.testing.assert_array_equal(got_trace.hidden[layer], want_trace.hidden[layer][t0:])
        np.testing.assert_array_equal(tr.ha, full.ha[t0:])
        assert tr.gates is None
        if cell is CellKind.LSTM:
            # The cell states stay, for a pass that resumes from this one.
            np.testing.assert_array_equal(tr.aux, full.aux[t0:])
        else:
            assert tr.aux is None


@pytest.mark.parametrize("B", [1, 3, 58])
@pytest.mark.parametrize("layers,bidir", _SHAPES, ids=["1-uni", "2-bidir", "2-uni"])
@pytest.mark.parametrize("cell", list(CellKind), ids=lambda c: c.value)
def test_forward_only_pass_equals_the_full_pass(cell, layers, bidir, B):
    # T is no multiple of CHUNK, so the last chunk is a short one.
    T = 2 * CHUNK + 3
    model = make_model(cell, HeadKind.NEUROVIEW, n=5, m=2, T=T, d=3, layers=layers,
                       bidir=bidir, seed=4)
    x = np.random.default_rng(B).normal(size=(B, T, 2))
    want, full = model.forward(x)
    got, trace = model.forward(x, gates=False)
    _assert_forward_only_equals_full(got, trace, want, full, cell)
    if not bidir:
        # Resumed passes, from a forward-only base, at steps inside the
        # first chunk, on a chunk boundary and in the short last chunk.
        for t0 in (1, CHUNK, 2 * CHUNK + 1):
            xa = x.copy()
            xa[:, t0:] *= -1.0
            want, full = model.forward(xa)
            got, resumed = model.forward(xa, (trace, t0), gates=False)
            _assert_forward_only_equals_full(got, resumed, want, full, cell, t0)


@pytest.mark.parametrize("head", list(HeadKind), ids=lambda h: h.value)
@pytest.mark.parametrize("cell", list(CellKind), ids=lambda c: c.value)
def test_forward_only_pass_with_a_horizon_below_chunk(cell, head):
    T = CHUNK - 3
    model = make_model(cell, head, n=4, m=2, T=T, d=3, layers=2, bidir=True, seed=5)
    x = np.random.default_rng(9).normal(size=(6, T, 2))
    want, full = model.forward(x)
    got, trace = model.forward(x, gates=False)
    np.testing.assert_array_equal(got, want)
    for got_h, want_h in zip(trace.hidden, full.hidden):
        np.testing.assert_array_equal(got_h, want_h)
    _, logits = predict(model.encoder, model.cells, model.head, x)
    np.testing.assert_array_equal(logits, want)


@pytest.mark.parametrize("cell", list(CellKind), ids=lambda c: c.value)
def test_forward_only_pass_into_an_earlier_one_reuses_its_chunk_buffers(cell):
    T = 2 * CHUNK + 1
    model = make_model(cell, HeadKind.NEUROVIEW, n=4, m=2, T=T, d=3, seed=6)
    x1, x2 = np.random.default_rng(2).normal(size=(2, 5, T, 2))
    want, _ = model.forward(x2)
    prev = encode(model.encoder, model.cells, x1, gates=False)
    lent = dict(prev.gate_traces[0].buffers)
    assert lent
    trace = encode(model.encoder, model.cells, x2, out=prev, gates=False)
    np.testing.assert_array_equal(head_forward(model.head, trace, model.encoder), want)
    for name, arr in lent.items():
        assert np.shares_memory(trace.gate_traces[0].buffers[name], arr), name


def test_forward_only_trace_cannot_be_backpropagated():
    model = make_model(CellKind.LSTM, HeadKind.NEUROVIEW, T=5)
    x = np.ones((2, 5, 2))
    _, trace = model.forward(x, gates=False)
    with pytest.raises(ValueError, match="forward pass only"):
        network_backward(model.encoder, model.cells, model.head, trace, np.ones((2, 2)))
    with pytest.raises(ValueError, match="forward-only"):
        sequence_backward(model.cells, trace.gate_traces[0], np.ones((5, 2, 3)))
