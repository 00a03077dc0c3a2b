import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

import neuroview.network as network
import neuroview.train as train_mod
from neuroview.cells import CellKind, InitKind, InitScheme, param_shapes
from neuroview.data import DataSet, synth_separable
from neuroview.network import EncoderConfig, HeadKind, network_backward
from neuroview.train import (
    AdamState,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    build_model,
    eval_report,
    evaluate,
    fit,
    param_tree,
    save_history_csv,
    softmax_xent,
)

from helpers import grad_tree

# ------------------------------------------------------------ softmax_xent

def test_xent_uniform_two_way():
    loss, grad = softmax_xent(np.array([[0.0, 0.0]]), [0])
    assert loss == pytest.approx(math.log(2.0), rel=1e-15)
    np.testing.assert_allclose(grad, [[-0.5, 0.5]], rtol=1e-15)


def test_xent_extreme_logits_do_not_overflow():
    with np.errstate(over="raise"):
        loss, grad = softmax_xent(np.array([[1000.0, 0.0]]), [0])
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(grad))


def test_xent_label_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        softmax_xent(np.zeros((1, 3)), [3])
    with pytest.raises(ValueError, match="outside"):
        softmax_xent(np.zeros((2, 3)), np.array([0, 5]))
    # One sample is a batch of one.
    with pytest.raises(ValueError, match=r"\(B, d\)"):
        softmax_xent(np.zeros(3), 0)


def test_xent_label_shape_mismatch():
    for labels, shape in (([0], r"\(1,\)"), ([[0, 1]], r"\(1, 2\)"), ([0, 1, 0], r"\(3,\)")):
        with pytest.raises(ValueError, match=rf"^labels shape {shape} != \(2,\)$"):
            softmax_xent(np.zeros((2, 3)), labels)


def test_xent_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(1, 5)) * 3
    label = [2]
    _, grad = softmax_xent(logits, label)
    eps = 1e-6
    for i in range(5):
        bumped = logits.copy()
        bumped[0, i] += eps
        up, _ = softmax_xent(bumped, label)
        bumped[0, i] -= 2 * eps
        down, _ = softmax_xent(bumped, label)
        fd = (up - down) / (2 * eps)
        assert abs(fd - grad[0, i]) < 1e-8


def test_xent_softmax_normalization():
    rng = np.random.default_rng(1)
    for _ in range(20):
        logits = rng.normal(size=(1, 6)) * 10
        _, grad = softmax_xent(logits, [0])
        p = grad[0].copy()
        p[0] += 1.0  # undo the one-hot subtraction
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0)


def test_xent_batched_is_mean_of_singles():
    # B rows against B one-row batches.
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(4, 3))
    labels = np.array([0, 2, 1, 1])
    loss_b, grad_b = softmax_xent(logits, labels)
    singles = [softmax_xent(logits[i:i + 1], labels[i:i + 1]) for i in range(4)]
    assert loss_b == pytest.approx(np.mean([s[0] for s in singles]), rel=1e-14)
    for i in range(4):
        np.testing.assert_allclose(grad_b[i], singles[i][1][0] / 4.0, rtol=1e-14)


def test_xent_one_row_batch_is_the_single_sample_formula():
    # The loss and gradient of a batch of one are bit-identical to the
    # single-sample form ``lse - s[label]``: ``-(s - lse)`` negates the same
    # rounded difference, and the mean and ``/ B`` divide by 1.
    rng = np.random.default_rng(3)
    for _ in range(50):
        s = rng.normal(size=7) * 20
        label = int(rng.integers(7))
        shift = s - s.max()
        lse = np.log(np.exp(shift).sum())
        want_grad = np.exp(shift - lse)
        want_grad[label] -= 1.0
        loss, grad = softmax_xent(s[None], [label])
        assert loss == float(lse - shift[label])
        assert grad.tobytes() == want_grad[None].tobytes()


# -------------------------------------------------------------------- adam

def _flat(rng, n):
    return rng.normal(size=n)


def test_adam_zero_gradient_keeps_params():
    rng = np.random.default_rng(3)
    params = _flat(rng, 10)
    before = params.copy()
    state = AdamState.init(params)
    adam_step(params, np.zeros_like(params), state, TrainConfig())
    np.testing.assert_array_equal(params, before)
    assert state.step == 1


def test_adam_first_step_hand_computed():
    # Quadratic loss 0.5 * theta^2 at theta = 1, so g = 1.
    theta = np.array([1.0])
    cfg = TrainConfig(learning_rate=0.001)
    adam_step(theta, np.array([1.0]), AdamState.init(theta), cfg)
    # m_hat = 1, v_hat = 1 after bias correction; step = lr / (1 + eps)
    expected = 1.0 - 0.001 * (1.0 / (1.0 + 1e-8))
    assert theta[0] == pytest.approx(expected, rel=1e-15)


def test_adam_zero_learning_rate_is_identity():
    rng = np.random.default_rng(4)
    params = _flat(rng, 4)
    before = params.copy()
    cfg = SimpleNamespace(learning_rate=0.0, beta1=0.9, beta2=0.999, eps=1e-8)
    adam_step(params, _flat(rng, 4), AdamState.init(params), cfg)
    np.testing.assert_array_equal(params, before)


def test_adam_shape_mismatch():
    params = np.zeros(4)
    with pytest.raises(ValueError, match="shape mismatch"):
        adam_step(params, np.zeros(3), AdamState.init(params), TrainConfig())


def test_adam_updates_in_place_and_keeps_gradient():
    # The update lands in the caller's parameter and moment arrays; the
    # gradient is only read.
    rng = np.random.default_rng(5)
    params = _flat(rng, 3)
    grad = _flat(rng, 3)
    before, grad_before = params.copy(), grad.copy()
    state = AdamState.init(params)
    m, v = state.m, state.v
    adam_step(params, grad, state, TrainConfig())
    np.testing.assert_array_equal(grad, grad_before)
    assert np.all(params != before)
    assert state.m is m and state.v is v and m.any() and v.any()


# --------------------------------------------------------------------- fit

def small_setup(head=HeadKind.NEUROVIEW, cell=CellKind.SIMPLE_RNN, seed=0):
    ds = synth_separable(2, 10, 1, 8, seed=seed)
    enc = EncoderConfig(cell, 1, 4, ds.horizon)
    return ds, enc, head, InitScheme(InitKind.UNIFORM, seed)


def test_fit_separable_reaches_full_train_accuracy():
    ds, enc, head, init = small_setup()
    cfg = TrainConfig(epochs=200, seed=0)
    model, history = fit(ds, cfg, enc, head, init)
    assert evaluate(model, ds).overall_accuracy == 1.0
    assert len(history) == 200
    # loss after 200 epochs sits strictly below the starting loss
    assert history[-1][1] < history[0][1]


def test_fit_zero_epochs_returns_untouched_init():
    ds, enc, head, init = small_setup()
    model, history = fit(ds, TrainConfig(epochs=0), enc, head, init)
    fresh = build_model(enc, head, ds.num_classes, init)
    for k, arr in param_tree(model).items():
        np.testing.assert_array_equal(arr, param_tree(fresh)[k])
    assert history == []


def test_fit_is_bit_reproducible():
    ds, enc, head, init = small_setup(cell=CellKind.GRU)
    cfg = TrainConfig(epochs=25, seed=7, batch_size=5)
    m1, h1 = fit(ds, cfg, enc, head, init)
    m2, h2 = fit(ds, cfg, enc, head, init)
    assert h1 == h2
    for k, arr in param_tree(m1).items():
        np.testing.assert_array_equal(arr, param_tree(m2)[k])


def test_fit_empty_dataset_rejected():
    ds, enc, head, init = small_setup()
    ds = DataSet(ds.X[:0], ds.y[:0], ds.classes)
    with pytest.raises(ValueError, match="empty"):
        fit(ds, TrainConfig(epochs=1), enc, head, init)


def test_fit_horizon_mismatch_rejected():
    ds, enc, head, init = small_setup()
    bad_enc = EncoderConfig(enc.cell, enc.input_dim, enc.hidden_dim, ds.horizon + 1)
    with pytest.raises(ValueError, match="pad_dataset"):
        fit(ds, TrainConfig(epochs=1), bad_enc, head, init)


def test_fit_feature_dim_mismatch_rejected():
    ds, enc, head, init = small_setup()
    bad_enc = EncoderConfig(enc.cell, 2, enc.hidden_dim, ds.horizon)
    with pytest.raises(ValueError, match="^dataset feature_dim 1 != encoder input_dim 2$"):
        fit(ds, TrainConfig(epochs=1), bad_enc, head, init)


def test_fit_aborts_on_non_finite_loss(monkeypatch):
    ds, enc, head, init = small_setup()
    real = train_mod.softmax_xent
    calls = {"n": 0}

    def poisoned(logits, labels):
        calls["n"] += 1
        loss, grad = real(logits, labels)
        if calls["n"] >= 3:
            return float("nan"), grad
        return loss, grad

    monkeypatch.setattr(train_mod, "softmax_xent", poisoned)
    with pytest.raises(TrainingDiverged, match="epoch 3"):
        fit(ds, TrainConfig(epochs=10), enc, head, init)


def test_fit_aborts_on_non_finite_gradient(monkeypatch):
    # A NaN gradient behind a finite loss must stop training before the
    # optimizer writes it into the weights.
    ds, enc, head, init = small_setup()
    real = train_mod.network_backward
    calls = {"n": 0}

    def poisoned(*args):
        calls["n"] += 1
        grad_V, cell_grads = real(*args)
        if calls["n"] >= 2:
            grad_V[0, 0] = np.nan  # a view into fit's gradient buffer
        return grad_V, cell_grads

    monkeypatch.setattr(train_mod, "network_backward", poisoned)
    with pytest.raises(TrainingDiverged, match="non-finite gradient at epoch 2"):
        fit(ds, TrainConfig(epochs=10), enc, head, init)


def test_fit_aborts_on_non_finite_parameters():
    # With learning rate 1e308, an Adam step on a gradient entry above ~1.8
    # overflows to inf: a 40-step sum-pooled state gives such entries in V.
    # The loss and gradient are still finite, so only the parameter check
    # stops training, at the epoch of that step. The overflow itself raises
    # no numpy warning (pyproject.toml turns one into an error).
    ds = synth_separable(2, 40, 1, 3, seed=0)
    for cell in CellKind:
        enc = EncoderConfig(cell, 1, 3, 40)
        with pytest.raises(TrainingDiverged,
                           match="non-finite parameters at epoch 1") as caught:
            fit(ds, TrainConfig(learning_rate=1e308, epochs=3), enc,
                HeadKind.AVERAGE_POOL, InitScheme())
        assert caught.value.epoch == 1


def test_one_sample_loss_strictly_decreases():
    # 200 optimizer steps on a single sample beat the starting loss for
    # every cell kind.
    for cell in CellKind:
        ds, enc, head, init = small_setup(cell=cell, seed=1)
        ds = DataSet(ds.X[:1], ds.y[:1], ds.classes)
        model, history = fit(ds, TrainConfig(epochs=200, seed=1), enc, head, init)
        assert history[-1][1] < history[0][1]
        assert history[-1][1] >= 0.0


def _reference_fit(ds, cfg, enc, head, init):
    """``fit`` as a name-keyed loop: gradients by name from
    ``network_backward`` and the out-of-place Adam formula per array."""
    model = build_model(enc, head, ds.num_classes, init)
    tree = param_tree(model)
    m = {k: np.zeros_like(a) for k, a in tree.items()}
    v = {k: np.zeros_like(a) for k, a in tree.items()}
    X, y, B = ds.features(), ds.labels(), len(ds)
    batch = B if cfg.batch_size is None else cfg.batch_size
    rng = np.random.default_rng(cfg.seed)
    history, step = [], 0
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(B)
        losses, hits, seen = [], 0, 0
        for start in range(0, B, batch):
            idx = order[start:start + batch]
            logits, trace = model.forward(X[idx])
            loss, grad_logits = softmax_xent(logits, y[idx])
            grad_V, layer_grads = network_backward(model, trace, grad_logits)
            grads = grad_tree(model, grad_V, layer_grads)
            step += 1
            bc1, bc2 = 1.0 - cfg.beta1 ** step, 1.0 - cfg.beta2 ** step
            for k, g in grads.items():
                m[k] = cfg.beta1 * m[k] + (1.0 - cfg.beta1) * g
                v[k] = cfg.beta2 * v[k] + (1.0 - cfg.beta2) * g * g
                tree[k][...] = tree[k] - cfg.learning_rate * (m[k] / bc1) / (
                    np.sqrt(v[k] / bc2) + cfg.eps)
            losses.append(loss * len(idx))
            hits += int((np.argmax(logits, axis=1) == y[idx]).sum())
            seen += len(idx)
        history.append((epoch, sum(losses) / seen, hits / seen))
    return model, history


@pytest.mark.parametrize("head", list(HeadKind), ids=lambda h: h.value)
@pytest.mark.parametrize("cell", list(CellKind), ids=lambda c: c.value)
def test_fit_matches_name_keyed_reference_bit_for_bit(cell, head):
    # The flat in-place update is the per-array update, element by element.
    ds = synth_separable(3, 6, 2, 3, seed=4)
    for layers, bidir in ((1, False), (2, True)):
        enc = EncoderConfig(cell, 2, 3, ds.horizon, layers=layers, bidirectional=bidir)
        init = InitScheme(InitKind.UNIFORM, 6)
        for batch in (3, None):
            cfg = TrainConfig(epochs=5, batch_size=batch, seed=2)
            model, history = fit(ds, cfg, enc, head, init)
            ref, ref_history = _reference_fit(ds, cfg, enc, head, init)
            assert history == ref_history
            got, want = param_tree(model), param_tree(ref)
            assert list(got) == list(want)
            for k in want:
                np.testing.assert_array_equal(got[k], want[k])
            schema = sum(int(np.prod(s)) for i in range(enc.num_cells())
                         for s in param_shapes(cell, enc.cell_input_dim(i), 3).values())
            assert sum(a.size for a in got.values()) == schema + model.V.size
            if cell is CellKind.SIMPLE_RNN:
                # The hidden-side bias column is no parameter: it stays 0.0.
                for _, W_h in model.cells:
                    np.testing.assert_array_equal(W_h[:, -1], 0.0)


@pytest.mark.parametrize("head", [HeadKind.NEUROVIEW, HeadKind.LAST_STATE],
                         ids=lambda h: h.value)
@pytest.mark.parametrize("cell", list(CellKind), ids=lambda c: c.value)
def test_fit_with_a_short_last_batch_matches_reference_bit_for_bit(cell, head):
    # Batches of 4, 4 and 1: each size keeps its own trace to write into.
    ds = synth_separable(3, 6, 2, 3, seed=4)
    assert len(ds) == 9
    for layers, bidir in ((1, False), (2, True)):
        enc = EncoderConfig(cell, 2, 3, ds.horizon, layers=layers, bidirectional=bidir)
        init = InitScheme(InitKind.UNIFORM, 6)
        cfg = TrainConfig(epochs=4, batch_size=4, seed=2)
        model, history = fit(ds, cfg, enc, head, init)
        ref, ref_history = _reference_fit(ds, cfg, enc, head, init)
        assert history == ref_history
        np.testing.assert_array_equal(model.params, ref.params)


def test_grad_clip_option_trains():
    ds, enc, head, init = small_setup()
    cfg = TrainConfig(epochs=30, grad_clip=0.5, seed=2)
    model, history = fit(ds, cfg, enc, head, init)
    assert np.isfinite(history[-1][1])


# ---------------------------------------------------------------- evaluate

def test_evaluate_constant_predictor_on_balanced_set():
    ds, enc, _, init = small_setup()
    model = build_model(enc, HeadKind.NEUROVIEW, 2, init)
    model.V[0, :] = 1.0   # sigmoid states are positive: class 0 wins
    model.V[1, :] = -1.0
    report = evaluate(model, ds)
    assert report.overall_accuracy == 0.5
    np.testing.assert_array_equal(report.per_class_accuracy, [1.0, 0.0])
    assert report.confusion[0, 0] == 8 and report.confusion[1, 0] == 8


def test_evaluate_perfect_predictor_has_diagonal_confusion():
    ds, enc, head, init = small_setup()
    model, _ = fit(ds, TrainConfig(epochs=200), enc, head, init)
    report = evaluate(model, ds)
    assert report.overall_accuracy == 1.0
    assert np.trace(report.confusion) == len(ds)
    assert report.confusion.sum() == np.trace(report.confusion)


def test_evaluate_report_identities():
    ds, enc, head, init = small_setup(seed=3)
    model, _ = fit(ds, TrainConfig(epochs=30, seed=3), enc, head, init)
    report = evaluate(model, ds)
    conf = report.confusion
    assert report.overall_accuracy == pytest.approx(np.trace(conf) / conf.sum())
    rows = conf.sum(axis=1)
    for i, acc in enumerate(report.per_class_accuracy):
        assert acc == pytest.approx(conf[i, i] / rows[i])


@pytest.mark.parametrize("cell", list(CellKind), ids=lambda c: c.value)
def test_evaluate_makes_one_forward_only_pass(monkeypatch, cell):
    ds, enc, head, init = small_setup(cell=cell, seed=4)
    model = build_model(enc, head, ds.num_classes, init)
    want = eval_report(model.forward(ds.features())[0], ds.labels(), ds.num_classes)
    real, passes = network.encode, []

    def counted(*args, **kwargs):
        trace = real(*args, **kwargs)
        passes.append(trace)
        return trace

    monkeypatch.setattr(network, "encode", counted)
    report = evaluate(model, ds)
    assert [trace.gates for trace in passes] == [False]
    assert all(tr.gates is None for tr in passes[0].gate_traces)
    np.testing.assert_array_equal(report.confusion, want.confusion)


# ----------------------------------------------------------------- history

def test_history_csv_schema(tmp_path):
    path = tmp_path / "history.csv"
    save_history_csv([(1, 0.5, 0.25), (2, 0.125, 1.0)], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,mean_loss,train_acc"
    assert lines[1].split(",") == ["1", "0.5", "0.25"]
    assert len(lines) == 3


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="grad_clip"):
        TrainConfig(grad_clip=-1.0)
    # Non-finite values and Adam constants out of range; NaN fails every
    # comparison, so each test must reject it explicitly.
    nan, inf = float("nan"), float("inf")
    for kwargs in ({"learning_rate": nan}, {"learning_rate": inf},
                   {"grad_clip": nan}, {"grad_clip": inf},
                   {"beta1": 1.0}, {"beta1": -0.1}, {"beta1": nan},
                   {"beta2": 1.0}, {"beta2": 1.5}, {"beta2": nan},
                   {"eps": 0.0}, {"eps": -1e-8}, {"eps": nan}, {"eps": inf}):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            TrainConfig(**kwargs)
    TrainConfig(beta1=0.0, beta2=0.0, eps=1e-300, grad_clip=1e-3)


# The integer fields of the library's config records, each with the other
# arguments its record needs.
ENCODER = {"cell": CellKind.GRU, "input_dim": 1, "hidden_dim": 2, "max_len": 3}
INTEGER_FIELDS = [(TrainConfig, {}, name) for name in ("epochs", "batch_size", "seed")] + [
    (InitScheme, {}, "seed")] + [
    (EncoderConfig, ENCODER, name) for name in ("input_dim", "hidden_dim", "max_len", "layers")]


@pytest.mark.parametrize("record,args,name", INTEGER_FIELDS,
                         ids=[f"{r.__name__}.{name}" for r, _, name in INTEGER_FIELDS])
def test_config_integer_fields_reject_a_bool_or_a_non_integer(record, args, name):
    for bad in (True, 2.5, 3.0, "3"):
        line = f"{name} must be an integer, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(line)}$"):
            record(**{**args, name: bad})
    for good in (3, np.int64(3), np.int32(3)):
        assert getattr(record(**{**args, name: good}), name) == 3


def test_init_scheme_takes_only_an_init_kind():
    for bad in ("orthogonal", None, CellKind.GRU):
        with pytest.raises(ValueError, match=re.escape(f"kind must be an InitKind, got {bad!r}")):
            InitScheme(kind=bad)
