import csv
import json

import numpy as np
import pytest

from neuroview.cells import CellKind, InitKind, InitScheme
from neuroview.data import DataSet, save_ucr, synth_separable
from neuroview.interpret import (
    AblationMode,
    AblationTarget,
    class_similarity,
    counterfactual_rows,
    export_report,
    export_similarity_csv,
    export_weight_map_csv,
    rank_timesteps,
    sweep,
    time_analysis,
    weight_map,
)
from neuroview import interpret
from neuroview.cli import RunConfig, main, save_checkpoint
from neuroview.network import EncoderConfig, HeadKind, Model, encode, head_forward
from neuroview.train import TrainConfig, build_model, eval_report, evaluate, fit


def nv_model(n=4, m=1, T=6, d=2, layers=1, bidir=False, seed=0):
    enc = EncoderConfig(CellKind.SIMPLE_RNN, m, n, T, layers=layers,
                        bidirectional=bidir)
    return build_model(enc, HeadKind.NEUROVIEW, d,
                       InitScheme(InitKind.UNIFORM, seed))


# -------------------------------------------------------------- weight map

def test_weight_map_all_ones_row():
    model = nv_model(n=4, T=5)
    model.V[0, :] = 1.0
    m = weight_map(model, 0)
    np.testing.assert_array_equal(m.mean(axis=3)[0, :, 0], np.ones(5))


def test_weight_map_onehot_block():
    model = nv_model(n=4, T=5)
    model.V[1, :] = 0.0
    t_star = 3
    model.V[1, t_star * 4] = 1.0  # one unit inside block t*
    m = weight_map(model, 1)
    expected = np.zeros(5)
    expected[t_star] = 1.0 / 4.0
    np.testing.assert_array_equal(m.mean(axis=3)[0, :, 0], expected)


def test_weight_map_flatten_is_lossless():
    for layers, bidir in [(1, False), (2, True)]:
        model = nv_model(layers=layers, bidir=bidir, seed=3)
        for c in range(model.num_classes):
            m = weight_map(model, c)
            assert m.shape == (layers, 6, 2 if bidir else 1, 4)
            np.testing.assert_array_equal(m.reshape(-1), model.V[c])
            # The map is a copy: writing into it leaves the model alone.
            before = model.params.copy()
            m[...] = 7.0
            np.testing.assert_array_equal(model.params, before)


def test_weight_map_requires_nv_head():
    enc = EncoderConfig(CellKind.SIMPLE_RNN, 1, 4, 6)
    model = build_model(enc, HeadKind.LAST_STATE, 2, InitScheme())
    with pytest.raises(ValueError, match="NeuroView"):
        weight_map(model, 0)


def test_weight_map_class_range():
    model = nv_model()
    with pytest.raises(ValueError, match="outside"):
        weight_map(model, 2)


# -------------------------------------------------------------- similarity

def test_similarity_scale_parallel_orthogonal_opposite():
    V = np.zeros((4, 6))
    V[0] = [1, 0, 0, 2, 0, 0]
    V[1] = 2.0 * V[0]           # parallel -> 1
    V[2] = [0, 1, 0, 0, -1, 0]  # orthogonal to row 0 -> 0
    V[3] = -V[0]                # opposite -> -1
    model = nv_model(n=3, T=2, d=4)
    model.V[...] = V
    S = class_similarity(model)
    assert S[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert S[0, 2] == pytest.approx(0.0, abs=1e-12)
    assert S[0, 3] == pytest.approx(-1.0, abs=1e-12)
    np.testing.assert_array_equal(np.diag(S), np.ones(4))
    np.testing.assert_array_equal(S, S.T)
    assert np.all(S >= -1.0) and np.all(S <= 1.0)


def test_similarity_invariant_under_positive_rescaling():
    model = nv_model(d=3, seed=5)
    S1 = class_similarity(model)
    model.V[1] *= 250.0
    S2 = class_similarity(model)
    np.testing.assert_allclose(S1, S2, atol=1e-14)


def test_similarity_zero_row_names_class(tmp_path):
    model = nv_model(d=3)
    model.V[1, :] = 0.0
    with pytest.raises(ValueError, match="class 1"):
        class_similarity(model)
    # export_report forms the similarity before it writes any file.
    with pytest.raises(ValueError, match="^class 1 has a zero weight row$"):
        export_report(model, [0], [], tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_similarity_requires_nv():
    enc = EncoderConfig(CellKind.SIMPLE_RNN, 1, 4, 6)
    model = build_model(enc, HeadKind.AVERAGE_POOL, 2, InitScheme())
    with pytest.raises(ValueError, match="NeuroView"):
        class_similarity(model)


# ----------------------------------------------------------------- ranking

def test_rank_tie_break_prefers_lower_timestep():
    model = nv_model(n=2, T=4)
    model.V[0, :] = 1.0  # all blocks identical
    order = rank_timesteps(model, 0, AblationMode.TOP_POSITIVE)
    np.testing.assert_array_equal(order, [0, 1, 2, 3])
    order = rank_timesteps(model, 0, AblationMode.TOP_NEGATIVE)
    np.testing.assert_array_equal(order, [0, 1, 2, 3])


def test_rank_orders_by_mean_weight():
    model = nv_model(n=1, T=4)
    model.V[0, :] = [0.5, -2.0, 3.0, 0.0]
    pos = rank_timesteps(model, 0, AblationMode.TOP_POSITIVE)
    np.testing.assert_array_equal(pos, [2, 0, 3, 1])
    neg = rank_timesteps(model, 0, AblationMode.TOP_NEGATIVE)
    np.testing.assert_array_equal(neg, [1, 3, 0, 2])


def test_top_positive_and_negative_disjoint():
    rng = np.random.default_rng(0)
    model = nv_model(n=3, T=10)
    model.V[0] = rng.normal(size=30)
    k = 4
    pos = set(rank_timesteps(model, 0, AblationMode.TOP_POSITIVE)[:k].tolist())
    neg = set(rank_timesteps(model, 0, AblationMode.TOP_NEGATIVE)[:k].tolist())
    assert not pos & neg


# ----------------------------------------------------------- time analysis

@pytest.fixture(scope="module")
def trained():
    ds = synth_separable(2, 10, 1, 8, seed=2)
    enc = EncoderConfig(CellKind.GRU, 1, 4, ds.horizon)
    model, _ = fit(ds, TrainConfig(epochs=150, seed=2), enc,
                   HeadKind.NEUROVIEW, InitScheme(InitKind.UNIFORM, 2))
    return model, ds


def test_time_analysis_k0_is_noop(trained):
    model, ds = trained
    base = evaluate(model, ds)
    r = time_analysis(model, ds, 0, 0)
    assert r.zeroed_steps == []
    assert r.report.overall_accuracy == base.overall_accuracy
    np.testing.assert_array_equal(r.report.confusion, base.confusion)


def test_time_analysis_full_horizon_equals_zero_input(trained):
    model, ds = trained
    r = time_analysis(model, ds, 0, ds.horizon)
    assert sorted(r.zeroed_steps) == list(range(ds.horizon))
    zero_x = np.zeros((1, ds.horizon, ds.feature_dim))
    logits_zero, _ = model.forward(zero_x)
    pred_zero = int(np.argmax(logits_zero[0]))
    # every sample collapses to the all-zero-input prediction
    expected_conf = np.zeros_like(r.report.confusion)
    for label in ds.labels():
        expected_conf[label, pred_zero] += 1
    np.testing.assert_array_equal(r.report.confusion, expected_conf)


def test_time_analysis_validates_args(trained):
    model, ds = trained
    with pytest.raises(ValueError, match="class"):
        time_analysis(model, ds, 9, 1)
    with pytest.raises(ValueError, match="k must be"):
        time_analysis(model, ds, 0, ds.horizon + 1)
    # k is an integer: not a float, even a whole one, and not a bool. A
    # numpy integer is one, and comes back as a plain int.
    for k in (1.5, 2.0, True, np.bool_(True), "2", None):
        with pytest.raises(ValueError, match=rf"^k must be an integer, got {k!r}$"):
            time_analysis(model, ds, 0, k)
    r = time_analysis(model, ds, 0, np.int64(2))
    assert type(r.k) is int and r.k == 2
    assert r.zeroed_steps == time_analysis(model, ds, 0, 2).zeroed_steps
    # A one-layer, one-direction model has only layer 0 and direction 0.
    for layer in (1, -1):
        with pytest.raises(ValueError, match=rf"layer {layer} outside \[0, 1\)"):
            time_analysis(model, ds, 0, 1, layer=layer)
    for direction in (1, -1):
        with pytest.raises(ValueError, match=rf"direction {direction} outside \[0, 1\)"):
            time_analysis(model, ds, 0, 1, direction=direction)
        with pytest.raises(ValueError, match="direction"):
            rank_timesteps(model, 0, AblationMode.TOP_POSITIVE, direction=direction)
    # A mode or target is its enum member; its string value is not coerced.
    with pytest.raises(ValueError, match="^mode must be an AblationMode, got 'top-positive'$"):
        rank_timesteps(model, 0, "top-positive")
    with pytest.raises(ValueError, match="^mode must be an AblationMode, got 'top-positive'$"):
        time_analysis(model, ds, 0, 1, mode="top-positive")
    with pytest.raises(ValueError, match="^target must be an AblationTarget, got 'inputs'$"):
        time_analysis(model, ds, 0, 1, target="inputs")


def test_time_analysis_weights_target_full_zeroing(trained):
    model, ds = trained
    r = time_analysis(model, ds, 0, ds.horizon,
                      target=AblationTarget.WEIGHTS)
    # zeroing every classifier block leaves all-zero scores -> class 0
    assert r.report.per_class_accuracy[0] == 1.0
    assert r.report.per_class_accuracy[1] == 0.0


def test_time_analysis_does_not_mutate_inputs(trained):
    model, ds = trained
    V_before = model.V.copy()
    feats_before = ds.features().copy()
    time_analysis(model, ds, 0, 3)
    time_analysis(model, ds, 0, 3, target=AblationTarget.WEIGHTS)
    np.testing.assert_array_equal(model.V, V_before)
    np.testing.assert_array_equal(ds.features(), feats_before)


def _rebuilt_counterfactual(model, ds, steps, target, layer):
    """Reference for ``time_analysis``: rebuild the dataset with zeroed
    input steps, or the model with zeroed classifier blocks, and evaluate."""
    if target is AblationTarget.INPUTS:
        X = []
        for feats in ds.features():
            feats = feats.copy()
            feats[list(steps)] = 0.0
            X.append(feats)
        return evaluate(model, DataSet(np.stack(X), ds.labels(), ds.classes))
    cfg = model.encoder
    V = model.V.copy()
    sw, T = cfg.step_width, cfg.max_len
    for t in steps:
        start = (layer * T + t) * sw
        V[:, start:start + sw] = 0.0
    return evaluate(Model(cfg, model.cells, model.head_kind, V, model.mean_pool), ds)


@pytest.mark.parametrize("cell,layers,bidir", [
    (CellKind.GRU, 1, False),
    (CellKind.LSTM, 2, True),
])
def test_time_analysis_matches_rebuilt_model_and_dataset(cell, layers, bidir):
    T, d = 8, 3
    ds = synth_separable(d, T, 1, 5, seed=4)
    enc = EncoderConfig(cell, 1, 4, T, layers=layers, bidirectional=bidir)
    model = build_model(enc, HeadKind.NEUROVIEW, d, InitScheme(InitKind.UNIFORM, 4))
    model.V *= 20.0  # spread the scores so the zeroed blocks move argmaxes
    empty = DataSet(np.zeros((0, T, 1)), [], np.arange(d))
    for target in AblationTarget:
        for mode in AblationMode:
            for k in (0, 1, 3, T):
                for layer in range(layers):
                    for c in range(d):
                        r = time_analysis(model, ds, c, k, mode, target, layer)
                        want = _rebuilt_counterfactual(
                            model, ds, r.zeroed_steps, target, layer)
                        np.testing.assert_array_equal(
                            r.report.confusion, want.confusion)
                        np.testing.assert_array_equal(
                            r.report.per_class_accuracy, want.per_class_accuracy)
                        assert r.report.overall_accuracy == want.overall_accuracy
                    r = time_analysis(model, empty, 0, k, mode, target, layer)
                    assert np.isnan(r.report.overall_accuracy)
                    assert np.all(np.isnan(r.report.per_class_accuracy))
                    np.testing.assert_array_equal(r.report.confusion,
                                                  np.zeros((d, d), dtype=np.int64))


@pytest.mark.parametrize("cell,layers,bidir", [
    (CellKind.GRU, 1, False),
    (CellKind.LSTM, 2, True),
])
def test_sweep_matches_row_by_row_time_analysis(cell, layers, bidir):
    # The grid above, as one sweep per layer against one call per row.
    T, d = 8, 3
    ds = synth_separable(d, T, 1, 5, seed=4)
    enc = EncoderConfig(cell, 1, 4, T, layers=layers, bidirectional=bidir)
    model = build_model(enc, HeadKind.NEUROVIEW, d, InitScheme(InitKind.UNIFORM, 4))
    model.V *= 20.0
    rows = [(c, k, mode, target) for target in AblationTarget
            for mode in AblationMode for k in (0, 1, 3, T) for c in range(d)]
    for layer in range(layers):
        got = sweep(model, ds, rows, layer)
        assert len(got) == len(rows)
        for r, row in zip(got, rows):
            want = time_analysis(model, ds, *row, layer)
            assert (r.class_index, r.k, r.zeroed_steps, r.mode, r.target) == (
                want.class_index, want.k, want.zeroed_steps, want.mode, want.target)
            np.testing.assert_array_equal(r.report.confusion, want.report.confusion)
            np.testing.assert_array_equal(r.report.per_class_accuracy,
                                          want.report.per_class_accuracy)


def test_sweep_validates_every_row_before_any_forward(trained, monkeypatch):
    model, ds = trained
    calls = []
    monkeypatch.setattr(interpret, "encode", lambda *a, **kw: calls.append(a))
    rows = [(0, 1, AblationMode.TOP_POSITIVE, AblationTarget.INPUTS),
            (0, ds.horizon + 1, AblationMode.TOP_POSITIVE, AblationTarget.INPUTS)]
    with pytest.raises(ValueError, match="k must be"):
        sweep(model, ds, rows)
    assert calls == []


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("cell", list(CellKind), ids=lambda c: c.value)
def test_resumed_forward_equals_full_forward(cell, layers):
    T = 9
    enc = EncoderConfig(cell, 2, 4, T, layers=layers)
    model = build_model(enc, HeadKind.NEUROVIEW, 3, InitScheme(InitKind.UNIFORM, 5))
    X = np.random.default_rng(6).normal(size=(7, T, 2))
    for steps in ([0], [T - 1], [2, 3, 6]):
        Xa = X.copy()
        Xa[:, steps] = 0.0
        t0 = min(steps)
        want, full = model.forward(Xa)
        _, base = model.forward(X)
        resumed = encode(model, Xa, t0, base)
        got = head_forward(model, resumed)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(resumed.q, full.q)
        np.testing.assert_array_equal(resumed.step_logits, full.step_logits)
        for layer in range(layers):
            # A resumed pass holds the states of all T steps, in place.
            assert np.shares_memory(resumed.hidden[layer], base.hidden[layer])
            np.testing.assert_array_equal(resumed.hidden[layer], full.hidden[layer])
            if cell is CellKind.LSTM:
                np.testing.assert_array_equal(
                    resumed.gate_traces[layer].aux, full.gate_traces[layer].aux)


def test_bidirectional_encoder_does_not_resume():
    model = nv_model(T=5, bidir=True)
    X = np.ones((2, 5, 1))
    _, base = model.forward(X)
    with pytest.raises(ValueError, match="unidirectional"):
        encode(model, X, 2, base)


def _count_passes(monkeypatch):
    """Patch the ``encode`` that ``sweep`` calls to record each encoder
    pass as ``(t0, trace)``, ``t0`` the step it resumed at. The passes
    all run in this process: a forked child's would not be recorded."""
    monkeypatch.setattr(interpret, "_two_processes", lambda n_sets: False)
    passes = []
    real = interpret.encode

    def counted(model, x, resume=0, out=None, gates=True):
        trace = real(model, x, resume, out, gates)
        passes.append((resume, trace))
        return trace

    monkeypatch.setattr(interpret, "encode", counted)
    return passes


@pytest.fixture
def analysis_files(tmp_path):
    # k = T zeroes every step, so the export's k = 20 rows share one set.
    T, d = 20, 3
    enc = EncoderConfig(CellKind.GRU, 1, 4, T)
    model = build_model(enc, HeadKind.NEUROVIEW, d, InitScheme(InitKind.UNIFORM, 8))
    ckpt, split = tmp_path / "ckpt.json", tmp_path / "split.tsv"
    save_checkpoint(ckpt, model, RunConfig(hidden_dim=4, seed=8, epochs=0))
    save_ucr(synth_separable(d, T, 1, 4, seed=8), split)
    return ["--checkpoint", str(ckpt), "--dataset-path", str(split)]


def test_weights_counterfactual_makes_one_forward(analysis_files, monkeypatch, capsys):
    passes = _count_passes(monkeypatch)
    assert main(["counterfactual", *analysis_files, "--class", "1", "--target",
                 "weights", "--k-list", "0", "1", "5", "10"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 4
    assert [t0 for t0, _ in passes] == [0]


def _assert_in_place(passes):
    """Every pass after the first wrote into the first one's arrays."""
    (_, base), *ablated = passes
    for _, trace in ablated:
        assert np.shares_memory(trace.q, base.q)
        for got, want in zip(trace.hidden, base.hidden):
            assert np.shares_memory(got, want)


def test_export_makes_one_forward_per_distinct_step_set(analysis_files, tmp_path,
                                                        monkeypatch, capsys):
    passes = _count_passes(monkeypatch)
    out = tmp_path / "bundle"
    assert main(["export", *analysis_files, "--k-list", "0", "1", "2", "5", "10",
                 "20", "--out", str(out)]) == 0
    rows = json.loads((out / "counterfactuals.json").read_text())
    assert len(rows) == 18
    sets = {tuple(sorted(r["zeroed_steps"])) for r in rows} - {()}
    assert len(sets) < 15
    # One unablated pass, then one per set, each resumed at its first
    # zeroed step, latest first; a set that zeroes step 0 rewrites all.
    assert len(passes) == 1 + len(sets)
    t0s = [t0 for t0, _ in passes[1:]]
    assert t0s == sorted((s[0] for s in sets), reverse=True)
    assert 0 < t0s[0] and t0s.count(0) < len(t0s)
    _assert_in_place(passes)


@pytest.mark.parametrize("cell", [CellKind.GRU, CellKind.LSTM], ids=lambda c: c.value)
@pytest.mark.parametrize("target", list(AblationTarget), ids=lambda t: t.value)
def test_sweep_keeps_no_gate_arrays(trained, monkeypatch, cell, target):
    _, ds = trained
    enc = EncoderConfig(cell, 1, 4, ds.horizon, layers=2)
    model = build_model(enc, HeadKind.NEUROVIEW, 2, InitScheme(InitKind.UNIFORM, 1))
    passes = _count_passes(monkeypatch)
    # Class 0's top-3 steps hold step 0 and its top-1 does not, so an
    # inputs sweep makes one resumed and then one full pass.
    sweep(model, ds, [(0, k, AblationMode.TOP_POSITIVE, target) for k in (3, 1)])
    (_, base), *ablated = passes
    assert [t0 > 0 for t0, _ in ablated] == ([True, False] if target is AblationTarget.INPUTS
                                             else [])
    _assert_in_place(passes)
    # Every pass is forward-only, the ablated ones too, and keeps no
    # inputs, no gates and no aux but an lstm's cell states.
    for _, trace in passes:
        assert not trace.gates and trace.step_logits is None and trace.q is not None
        for tr in trace.gate_traces:
            assert tr.gates is None and tr.xa is None
            assert (tr.aux is not None) == (cell is CellKind.LSTM)


@pytest.mark.parametrize("layers,bidir", [(1, False), (2, False), (2, True)],
                         ids=["1-uni", "2-uni", "2-bidir"])
@pytest.mark.parametrize("cell", [CellKind.GRU, CellKind.LSTM], ids=lambda c: c.value)
def test_sweep_rows_in_any_order_equal_fresh_passes(monkeypatch, cell, layers, bidir):
    T, d = 10, 2
    ds = synth_separable(d, T, 1, 4, seed=5)
    enc = EncoderConfig(cell, 1, 4, T, layers=layers, bidirectional=bidir)
    model = build_model(enc, HeadKind.NEUROVIEW, d, InitScheme(InitKind.UNIFORM, 6))
    # Class 0's layer-0 weights rise with the step and class 1's fall, so
    # class 0's top-positive sets start late and its top-negative ones,
    # like class 1's top-positive ones, hold step 0.
    blocks = model.V.reshape(d, layers, T, enc.directions, -1)
    blocks[0, 0, :, 0] = np.arange(T)[:, None] * 0.1
    blocks[1, 0, :, 0] = -np.arange(T)[:, None] * 0.1
    pos, neg = AblationMode.TOP_POSITIVE, AblationMode.TOP_NEGATIVE
    inputs, weights = AblationTarget.INPUTS, AblationTarget.WEIGHTS
    rows = ([(0, k, pos, inputs) for k in (1, 3, 6)]        # first steps descending
            + [(0, k, pos, inputs) for k in (7, 4, 2)]      # and ascending
            + [(1, 3, pos, inputs), (0, 3, neg, inputs)]    # step 0
            + [(0, 2, pos, weights), (1, 4, neg, inputs)]   # repeats
            + [(0, 3, pos, inputs), (1, 1, neg, inputs), (0, 0, pos, inputs)])
    scored = []
    real = interpret.eval_report
    monkeypatch.setattr(interpret, "eval_report",
                        lambda logits, *a: scored.append(logits) or real(logits, *a))
    results = sweep(model, ds, rows)
    assert [(r.class_index, r.k, r.mode, r.target) for r in results] == rows
    for r, logits in zip(results, scored):
        assert r.zeroed_steps == rank_timesteps(model, r.class_index, r.mode)[:r.k].tolist()
        X = ds.features().copy()
        if r.target is inputs:
            X[:, r.zeroed_steps] = 0.0
            want, _ = model.forward(X)
        else:
            _, trace = model.forward(X)
            q = trace.q.reshape(len(X), layers, T, -1)
            q[:, 0, r.zeroed_steps] = 0.0
            want = trace.q @ model.V.T
        np.testing.assert_array_equal(logits, want)


def test_counterfactual_rows_schema(trained):
    model, ds = trained
    rows = counterfactual_rows([time_analysis(model, ds, 1, 2)])
    row = rows[0]
    assert row["class"] == 1 and row["k"] == 2
    assert len(row["zeroed_steps"]) == 2
    assert row["mode"] == "top-positive" and row["target"] == "inputs"
    assert 0.0 <= row["overall_accuracy"] <= 1.0
    json.dumps(rows)  # serializable


# ------------------------------------------------------------------ export

def test_weight_map_csv_roundtrip_bit_exact(tmp_path):
    for layers, bidir in [(1, False), (1, True), (2, False), (2, True)]:
        model = nv_model(layers=layers, bidir=bidir, seed=7)
        m = weight_map(model, 1)
        p = tmp_path / f"map_{layers}_{bidir}.csv"
        export_weight_map_csv(m, p)
        with open(p, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert (header[0] == "layer") == (layers > 1 or bidir)
        assert len(rows) == m.shape[0] * m.shape[1] * m.shape[2]
        loaded = np.zeros_like(m)
        means = np.zeros(m.shape[:3])
        for row in rows:
            if header[0] == "layer":
                layer, direction, t = map(int, row[:3])
            else:
                layer, direction, t = 0, 0, int(row[0])
            loaded[layer, t, direction] = [float(v) for v in row[header.index("unit_0"):]]
            means[layer, t, direction] = float(row[header.index("mean_weight")])
        np.testing.assert_array_equal(loaded, m)
        np.testing.assert_array_equal(means, m.mean(axis=3))
        np.testing.assert_array_equal(loaded.reshape(-1), model.V[1])


def test_weight_map_csv_schema(tmp_path):
    model = nv_model(n=3, T=4)
    m = weight_map(model, 0)
    p = tmp_path / "map.csv"
    export_weight_map_csv(m, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "timestep,mean_weight,unit_0,unit_1,unit_2"
    assert len(lines) == 5


def test_export_report_file_count(tmp_path):
    d = 5
    model = nv_model(d=d, seed=1)
    files = export_report(model, range(d), [], tmp_path / "out")
    names = sorted(f.name for f in files)
    assert len([n for n in names if n.startswith("weight_map_")]) == d
    assert "class_similarity.csv" in names
    assert "manifest.json" in names
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert len(manifest["files"]) == d + 1


def test_export_report_rejects_a_repeated_class_before_writing(tmp_path):
    model = nv_model(d=3, seed=1)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="^class 0 is listed twice$"):
        export_report(model, [0, 1, 0], [], out)
    assert not out.exists()


def test_export_report_empty_maps(tmp_path):
    model = nv_model()
    files = export_report(model, [], [], tmp_path / "out")
    names = [f.name for f in files]
    assert names == ["class_similarity.csv", "manifest.json"]


def test_similarity_csv_roundtrip(tmp_path):
    model = nv_model(d=3, seed=9)
    sim = class_similarity(model)
    p = tmp_path / "sim.csv"
    export_similarity_csv(sim, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "class,class_0,class_1,class_2"
    values = np.array(
        [[float(v) for v in line.split(",")[1:]] for line in lines[1:]]
    )
    np.testing.assert_array_equal(values, sim)
