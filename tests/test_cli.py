import base64
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from neuroview.cells import CellKind, InitKind, InitScheme
from neuroview.cli import (
    RunConfig,
    UsageError,
    load_checkpoint,
    main,
    resolve_dataset,
    save_checkpoint,
)
import neuroview.cli as cli_mod
from neuroview import interpret
from neuroview.data import DataSet, load_ucr, save_ucr, synth_separable
from neuroview.network import EncoderConfig, HeadKind
from neuroview.train import TrainConfig, build_model, evaluate, fit, param_tree


@pytest.fixture(scope="module")
def dataset_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    train = synth_separable(2, 8, 1, 6, seed=0)
    test = synth_separable(2, 8, 1, 10, seed=1)
    train_p = root / "Synth_TRAIN.tsv"
    test_p = root / "Synth_TEST.tsv"
    save_ucr(train, train_p)
    save_ucr(test, test_p)
    return root, train_p, test_p


def run_train(dataset_files, out, extra=()):
    root, train_p, test_p = dataset_files
    argv = [
        "train",
        "--train-path", str(train_p),
        "--test-path", str(test_p),
        "--cell", "rnn",
        "--head", "nv",
        "--hidden", "4",
        "--epochs", "40",
        "--seed", "3",
        "--out", str(out),
    ]
    argv.extend(extra)
    return main(argv)


# ------------------------------------------------------------- run config

def test_run_config_roundtrip_writes_all_defaults(tmp_path):
    rc = RunConfig(train_path="a.tsv", hidden_dim=64, bidirectional=True)
    p = tmp_path / "cfg.txt"
    rc.save(p)
    text = p.read_text()
    for f in dataclasses.fields(RunConfig):
        assert f.name in text  # every field written back explicitly
    rc2 = RunConfig.load(p)
    assert rc2 == rc
    q = tmp_path / "cfg2.txt"
    rc2.save(q)
    assert q.read_text() == text


def test_run_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("no_such_field = 1\n")
    with pytest.raises(UsageError, match="unknown config key"):
        RunConfig.load(p)


def test_run_config_rejects_bad_value(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("epochs = many\n")
    with pytest.raises(UsageError, match="bad value"):
        RunConfig.load(p)


# ------------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip_bytes_and_predictions(tmp_path):
    ds = synth_separable(2, 8, 1, 6, seed=5)
    enc = EncoderConfig(CellKind.GRU, 1, 4, ds.horizon)
    model, _ = fit(ds, TrainConfig(epochs=20, seed=5), enc,
                   HeadKind.NEUROVIEW, InitScheme(InitKind.UNIFORM, 5))
    p = tmp_path / "ckpt.json"
    save_checkpoint(p, model, RunConfig(seed=5), metrics={"train_accuracy": 1.0},
                    classes=[-1.0, 2.5])
    loaded, rc, metrics, classes = load_checkpoint(p)
    assert metrics == {"train_accuracy": 1.0}
    np.testing.assert_array_equal(classes, [-1.0, 2.5])
    logits_a, _ = model.forward(ds.features())
    logits_b, _ = loaded.forward(ds.features())
    np.testing.assert_array_equal(logits_a, logits_b)

    q = tmp_path / "ckpt2.json"
    save_checkpoint(q, loaded, rc, metrics=metrics, classes=classes)
    assert p.read_bytes() == q.read_bytes()


def test_checkpoint_version_mismatch(tmp_path):
    ds = synth_separable(2, 8, 1, 3, seed=0)
    enc = EncoderConfig(CellKind.SIMPLE_RNN, 1, 3, ds.horizon)
    model = build_model(enc, HeadKind.NEUROVIEW, 2, InitScheme())
    p = tmp_path / "ckpt.json"
    save_checkpoint(p, model, RunConfig())
    doc = json.loads(p.read_text())
    doc["format_version"] = 99
    p.write_text(json.dumps(doc))
    with pytest.raises(UsageError, match="version"):
        load_checkpoint(p)


def _drop_encoder(doc):
    del doc["encoder"]


def _unknown_run_config_key(doc):
    doc["run_config"]["no_such_field"] = 1


def _bad_payload_shape(doc):
    doc["head"]["V"]["shape"][1] += 1


def _set_first(blob, value):
    arr = np.frombuffer(base64.b64decode(blob["data"]), dtype="<f8").copy()
    arr[0] = value
    blob["data"] = base64.b64encode(arr.tobytes()).decode("ascii")


def _nan_in_V(doc):
    _set_first(doc["head"]["V"], np.nan)


def _inf_in_V(doc):
    _set_first(doc["head"]["V"], -np.inf)


def _nan_in_cell(doc):
    _set_first(doc["cells"][0]["U"], np.nan)


def _inf_in_cell(doc):
    _set_first(doc["cells"][0]["b"], np.inf)


def _classes_not_increasing(doc):
    doc["classes"] = [2.0, 1.0]


def _layers_bool(doc):
    doc["encoder"]["layers"] = True


def _cells_object(doc):
    doc["cells"] = {"0": doc["cells"][0]}


def _cell_list(doc):
    doc["cells"][0] = list(doc["cells"][0].values())


def _znorm_string(doc):
    doc["run_config"]["znorm"] = "false"


def _mean_pool_string(doc):
    doc["head"]["mean_pool"] = "no"


def _classes_strings(doc):
    doc["classes"] = ["0", "1"]


def _head_list(doc):
    doc["head"] = [1]


def _encoder_list(doc):
    doc["encoder"] = [1]


def _V_list(doc):
    doc["head"]["V"] = [1]


def _run_config_list(doc):
    doc["run_config"] = [1]


def _V_data_short(doc):
    raw = base64.b64decode(doc["head"]["V"]["data"])
    doc["head"]["V"]["data"] = base64.b64encode(raw[:-3]).decode("ascii")


def _V_shape_string(doc):
    doc["head"]["V"]["shape"] = "2x24"


def _V_data_not_base64(doc):
    doc["head"]["V"]["data"] = "abc"


def _cell_data_missing(doc):
    del doc["cells"][0]["U"]["data"]


def _version_bool(doc):
    doc["format_version"] = True


def _huge_hidden_dim(doc):
    doc["encoder"]["hidden_dim"] = 10**15


def _huge_empty_V(doc):
    doc["head"]["V"] = {"shape": [0, 10**30], "data": ""}


CORRUPTIONS = [_drop_encoder, _unknown_run_config_key, _bad_payload_shape, "truncated",
               _nan_in_V, _inf_in_V, _nan_in_cell, _inf_in_cell, _classes_not_increasing,
               _layers_bool, _cells_object, _cell_list, _znorm_string, _mean_pool_string,
               _classes_strings, _head_list, _encoder_list, _V_list, _run_config_list,
               _V_data_short, _V_shape_string, _V_data_not_base64, _cell_data_missing,
               _version_bool]
# The field that the error line names: every corruption but the truncated
# file, which is not JSON, and the format version.
FIELD_OF = {_drop_encoder: "encoder", _unknown_run_config_key: "run_config.no_such_field",
            _nan_in_V: "head.V", _inf_in_V: "head.V", _nan_in_cell: "cells[0].U",
            _inf_in_cell: "cells[0].b", _classes_not_increasing: "classes",
            _layers_bool: "encoder.layers", _cells_object: "cells", _cell_list: "cells",
            _znorm_string: "run_config.znorm", _mean_pool_string: "head.mean_pool",
            _classes_strings: "classes", _head_list: "head", _encoder_list: "encoder",
            _V_list: "head.V", _run_config_list: "run_config",
            _bad_payload_shape: "head.V.data", _V_data_short: "head.V.data",
            _V_shape_string: "head.V.shape", _V_data_not_base64: "head.V.data",
            _cell_data_missing: "cells[0].U.data"}


def _write_checkpoint(p, head=HeadKind.NEUROVIEW, corrupt=None):
    """An untrained 2-class rnn checkpoint for T = 8 splits, optionally
    corrupted: cut in half (``"truncated"``) or edited as a document."""
    enc = EncoderConfig(CellKind.SIMPLE_RNN, 1, 3, 8)
    save_checkpoint(p, build_model(enc, head, 2, InitScheme()), RunConfig())
    if corrupt == "truncated":
        text = p.read_text()
        p.write_text(text[:len(text) // 2])
    elif corrupt is not None:
        doc = json.loads(p.read_text())
        corrupt(doc)
        p.write_text(json.dumps(doc))


def _nonfinite(where, value):
    def edit(model, doc):
        # A model's parameters are views into one buffer, as fit updates them.
        (param_tree(model)["cell0.W_hz"] if where == "cell" else model.head.V)[0, 0] = value
        _set_first(doc["cells"][0]["W_hz"] if where == "cell" else doc["head"]["V"], value)
        return {}
    return edit


def _classes(labels):
    def edit(model, doc):
        doc["classes"] = labels
        return {"classes": labels}
    return edit


def _layers_string(model, doc):
    doc["run_config"]["layers"] = "two"
    return {"run_config": RunConfig(layers="two")}


@pytest.mark.parametrize("edit,needle", [
    pytest.param(_nonfinite(where, value), f"field '{field}' contains non-finite entries",
                 id=f"{value}-{where}")
    for value in (np.nan, np.inf)
    for where, field in (("cell", "cells[0].W_hz"), ("head", "head.V"))
] + [
    pytest.param(_classes([2.0, 1.0]), "field 'classes' must be 2 increasing labels",
                 id="classes-decreasing"),
    pytest.param(_classes([0.0, 1.0, 2.0]), "field 'classes' must be 2 increasing labels",
                 id="classes-count"),
    pytest.param(_layers_string, "field 'run_config.layers' must be int",
                 id="run_config-layers-string"),
])
def test_save_checkpoint_refuses_what_load_checkpoint_rejects(tmp_path, edit, needle):
    enc = EncoderConfig(CellKind.GRU, 1, 3, 8)
    model = build_model(enc, HeadKind.NEUROVIEW, 2, InitScheme())
    good = tmp_path / "good.json"
    save_checkpoint(good, model, RunConfig())
    doc = json.loads(good.read_text())
    # The same fault in the model or arguments given to save_checkpoint and
    # in the document given to load_checkpoint.
    kwargs = {"run_config": RunConfig(), **edit(model, doc)}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(UsageError) as rejected:
        load_checkpoint(bad)
    p = tmp_path / "run" / "ckpt.json"
    with pytest.raises(ValueError) as refused:
        save_checkpoint(p, model, **kwargs)
    assert str(refused.value) == str(rejected.value).replace(str(bad), str(p))
    assert needle in str(refused.value)
    assert not p.exists()


V1_CHECKPOINT = Path(__file__).parent / "fixtures" / "checkpoint_v1_gru.json"


def test_v1_checkpoint_loads_with_one_warning(tmp_path, capsys):
    # Written by the format-1 writer: GRU, hidden 2, T 4, 2 classes. Format
    # 1 stores no labels, so a split keeps its own sorted labels as ids.
    ds = synth_separable(2, 4, 1, 6, seed=5, amplitude=1.0)
    p = tmp_path / "split.tsv"
    save_ucr(DataSet(ds.X, ds.y, [3.0, 8.0]), p)
    code = main(["evaluate", "--checkpoint", str(V1_CHECKPOINT),
                 "--dataset-path", str(p)])
    assert code == 0
    out, err = capsys.readouterr()
    assert out == ("overall accuracy: 0.6667\n"
                   "class 0 accuracy: 0.5000\n"
                   "class 1 accuracy: 0.8333\n")
    assert err.startswith(f"warning: checkpoint {V1_CHECKPOINT} ")
    assert len(err.splitlines()) == 1
    model, rc, metrics, classes = load_checkpoint(V1_CHECKPOINT)
    assert classes is None
    assert metrics == {"train_accuracy": 1.0}
    assert (model.encoder.hidden_dim, model.encoder.max_len) == (2, 4)


@pytest.mark.parametrize("command", ["evaluate", "counterfactual", "export"])
def test_v1_checkpoint_split_with_more_labels_exits_2(tmp_path, capsys, command):
    # Format 1 maps each split's own labels: a split with 3 labels cannot be
    # scored by the fixture's 2-class model.
    ds = synth_separable(3, 4, 1, 2, seed=5)
    p = tmp_path / "split.tsv"
    save_ucr(ds, p)
    argv = [command, "--checkpoint", str(V1_CHECKPOINT), "--dataset-path", str(p)]
    if command == "counterfactual":
        argv += ["--class", "0", "--k-list", "1"]
    elif command == "export":
        argv += ["--k-list", "1", "--out", str(tmp_path / "bundle")]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"warning: checkpoint {V1_CHECKPOINT} ")
    assert err[1:] == [f"error: {p}: the split has 3 labels, but the checkpoint "
                       "has only 2 classes"]


# sha256 of format-2 checkpoints of seeded uniform-init models (2 layers,
# bidirectional, hidden 3, T 5, 3 classes, seed 7). Checkpoint bytes must
# not depend on how the parameters are laid out in memory.
INIT_CHECKPOINT_SHA256 = {
    "rnn": "f4476cd9af9c37dfe2a27e05498429517360d0ed8db120c9f25f5169c9de1234",
    "gru": "898036166ae27e9fa93c074973bd4c3ca55be7589d45f6e013872693592a740b",
    "lstm": "16e15492fc57e7fee3eb4563612d81c76c050c37affa7dbf637fe61cd686bda0",
}


@pytest.mark.parametrize("cell", sorted(INIT_CHECKPOINT_SHA256))
def test_init_checkpoint_bytes_are_pinned(tmp_path, cell):
    enc = EncoderConfig(CellKind(cell), 2, 3, 5, layers=2, bidirectional=True)
    model = build_model(enc, HeadKind.NEUROVIEW, 3, InitScheme(InitKind.UNIFORM, 7))
    p = tmp_path / "ckpt.json"
    save_checkpoint(p, model, RunConfig(cell=cell, hidden_dim=3, layers=2,
                                        bidirectional=True, seed=7, epochs=0))
    assert hashlib.sha256(p.read_bytes()).hexdigest() == INIT_CHECKPOINT_SHA256[cell]


# ------------------------------------------------------------------- train

def test_train_subcommand_end_to_end(dataset_files, tmp_path, capsys):
    out = tmp_path / "run"
    assert run_train(dataset_files, out) == 0
    captured = capsys.readouterr().out
    assert "test accuracy" in captured
    assert (out / "checkpoint.json").is_file()
    assert (out / "history.csv").is_file()
    assert (out / "run_config.txt").is_file()
    hist = (out / "history.csv").read_text().strip().splitlines()
    assert hist[0] == "epoch,mean_loss,train_acc"
    assert len(hist) == 41


def test_train_epochs_zero_writes_initial_model(dataset_files, tmp_path):
    out = tmp_path / "run0"
    assert run_train(dataset_files, out, extra=["--epochs", "0"]) == 0
    model, rc, _, _ = load_checkpoint(out / "checkpoint.json")
    fresh = build_model(
        model.encoder, HeadKind.NEUROVIEW, 2, InitScheme(InitKind.UNIFORM, rc.seed)
    )
    np.testing.assert_array_equal(model.head.V, fresh.head.V)
    got, want = param_tree(model), param_tree(fresh)
    assert list(got) == list(want)
    for k in want:
        np.testing.assert_array_equal(got[k], want[k])


def test_train_seed_env_override(dataset_files, tmp_path, monkeypatch):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    out3 = tmp_path / "c"
    monkeypatch.setenv("NV_SEED", "11")
    assert run_train(dataset_files, out1) == 0
    assert run_train(dataset_files, out2) == 0
    monkeypatch.setenv("NV_SEED", "12")
    assert run_train(dataset_files, out3) == 0
    a, rc_a, _, _ = load_checkpoint(out1 / "checkpoint.json")
    b, rc_b, _, _ = load_checkpoint(out2 / "checkpoint.json")
    c, rc_c, _, _ = load_checkpoint(out3 / "checkpoint.json")
    assert rc_a.seed == 11 and rc_c.seed == 12
    np.testing.assert_array_equal(a.head.V, b.head.V)
    assert not np.array_equal(a.head.V, c.head.V)


def test_labels_keep_their_class_across_splits(tmp_path, capsys):
    # Train on raw labels {1, 2, 3}, score splits holding {1, 3} and {3}:
    # raw 3 is class 2 in every split, whatever else the split holds.
    labels = [1.0, 2.0, 3.0]
    train = synth_separable(3, 12, 1, 6, seed=0)
    test = synth_separable(3, 12, 1, 6, seed=1)
    train_p, test_p, only3_p = (tmp_path / n for n in ("tr.tsv", "te.tsv", "3.tsv"))
    save_ucr(DataSet(train.X, train.y, labels), train_p)
    for p, keep in ((test_p, test.y != 1), (only3_p, test.y == 2)):
        save_ucr(DataSet(test.X[keep], test.y[keep], labels), p)
    out = tmp_path / "run"
    assert main(["train", "--train-path", str(train_p), "--test-path", str(test_p),
                 "--hidden", "4", "--epochs", "40", "--lr", "0.01",
                 "--out", str(out)]) == 0
    assert "test accuracy: 1.0000" in capsys.readouterr().out
    ckpt = str(out / "checkpoint.json")
    np.testing.assert_array_equal(load_checkpoint(ckpt)[3], labels)
    assert main(["evaluate", "--checkpoint", ckpt, "--dataset-path", str(test_p)]) == 0
    assert capsys.readouterr().out == ("overall accuracy: 1.0000\n"
                                       "class 0 accuracy: 1.0000\n"
                                       "class 1 accuracy: n/a\n"
                                       "class 2 accuracy: 1.0000\n")
    assert main(["evaluate", "--checkpoint", ckpt, "--dataset-path", str(only3_p)]) == 0
    assert capsys.readouterr().out == ("overall accuracy: 1.0000\n"
                                       "class 0 accuracy: n/a\n"
                                       "class 1 accuracy: n/a\n"
                                       "class 2 accuracy: 1.0000\n")
    bundle = tmp_path / "bundle"
    assert main(["export", "--checkpoint", ckpt, "--dataset-path", str(test_p),
                 "--k-list", "0", "--classes", "2", "--out", str(bundle)]) == 0
    capsys.readouterr()
    rows = json.loads((bundle / "counterfactuals.json").read_text())
    assert rows[0]["per_class_accuracy"] == [1.0, None, 1.0]
    assert main(["counterfactual", "--checkpoint", ckpt, "--dataset-path",
                 str(only3_p), "--class", "2", "--k-list", "0"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["per_class_accuracy"] == [None, None, 1.0]


def test_train_from_config_file(dataset_files, tmp_path):
    root, train_p, test_p = dataset_files
    rc = RunConfig(
        train_path=str(train_p), test_path=str(test_p), cell="rnn",
        head="nv", hidden_dim=4, epochs=15, seed=1,
        output_dir=str(tmp_path / "cfg_run"),
    )
    cfg_path = tmp_path / "run.cfg"
    rc.save(cfg_path)
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "cfg_run" / "checkpoint.json").is_file()


def test_resolve_dataset_by_name_case_insensitive(dataset_files):
    root, train_p, test_p = dataset_files
    tr, te = resolve_dataset(root.name.upper(), str(root.parent))
    assert tr == str(train_p)
    assert te == str(test_p)


def test_resolve_dataset_directory(dataset_files):
    root, train_p, test_p = dataset_files
    tr, te = resolve_dataset(str(root), "unused")
    assert tr == str(train_p)
    assert te == str(test_p)


def test_resolve_dataset_missing():
    with pytest.raises(UsageError, match="could not resolve"):
        resolve_dataset("nothere", "/definitely/missing")


# ------------------------------------------------------------------- sweep

def test_sweep_two_sizes(dataset_files, tmp_path, capsys):
    root, train_p, test_p = dataset_files
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--train-path", str(train_p), "--test-path", str(test_p),
        "--cell", "rnn", "--head", "nv", "--epochs", "30", "--seed", "0",
        "--sizes", "3", "4", "--out", str(out),
    ])
    assert code == 0
    table = (out / "sweep.tsv").read_text().strip().splitlines()
    assert table[0] == "size\ttest_accuracy"
    assert len(table) == 3
    assert (out / "best_checkpoint.json").is_file()
    best_model, _, _, _ = load_checkpoint(out / "best_checkpoint.json")
    rows = [line.split("\t") for line in table[1:]]
    accs = {int(s): float(a) for s, a in rows}
    best_acc = max(accs.values())
    best_size = min(s for s, a in accs.items() if a == best_acc)
    assert best_model.encoder.hidden_dim == best_size


# --------------------------------------------------------------- evaluate

@pytest.fixture(scope="module")
def trained_run(dataset_files, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert run_train(dataset_files, out, extra=["--epochs", "60"]) == 0
    return out


def test_evaluate_subcommand(dataset_files, trained_run, capsys):
    root, train_p, test_p = dataset_files
    code = main(["evaluate", "--checkpoint", str(trained_run / "checkpoint.json"),
                 "--dataset-path", str(test_p)])
    assert code == 0
    out = capsys.readouterr().out
    assert "overall accuracy" in out
    assert "class 0 accuracy" in out


# ---------------------------------------------------------------- inspect

def test_inspect_subcommand(trained_run, tmp_path, capsys):
    out = tmp_path / "analysis"
    code = main(["inspect", "--checkpoint", str(trained_run / "checkpoint.json"),
                 "--classes", "all", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "class 0: top-5 timesteps" in printed
    assert (out / "weight_map_class0.csv").is_file()
    assert (out / "weight_map_class1.csv").is_file()
    assert (out / "class_similarity.csv").is_file()
    assert (out / "manifest.json").is_file()


def test_counterfactual_out_existing_directory_exits_2_before_the_split(
        trained_run, tmp_path, capsys, monkeypatch):
    out = tmp_path / "taken"
    out.mkdir()
    loaded = []
    monkeypatch.setattr(cli_mod, "_load_split", lambda *a, **k: loaded.append(a))
    assert main(["counterfactual", "--checkpoint", str(trained_run / "checkpoint.json"),
                 "--dataset-path", str(tmp_path / "never_read.tsv"), "--class", "0",
                 "--k-list", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and "Errno" not in err
    assert len(err.splitlines()) == 1
    assert loaded == [] and list(out.iterdir()) == []


# ----------------------------------------------------------- counterfactual

def test_counterfactual_subcommand(dataset_files, trained_run, tmp_path):
    root, train_p, test_p = dataset_files
    out = tmp_path / "cf.json"
    code = main([
        "counterfactual", "--checkpoint", str(trained_run / "checkpoint.json"),
        "--dataset-path", str(test_p), "--class", "0",
        "--k-list", "0", "1", "3", "--out", str(out),
    ])
    assert code == 0
    rows = json.loads(out.read_text())
    assert [r["k"] for r in rows] == [0, 1, 3]
    # the k = 0 row reproduces the unmodified evaluation
    model, rc, _, _ = load_checkpoint(trained_run / "checkpoint.json")
    ds = load_ucr(test_p)
    base = evaluate(model, ds)
    assert rows[0]["overall_accuracy"] == base.overall_accuracy
    assert rows[0]["zeroed_steps"] == []
    assert len(rows[2]["zeroed_steps"]) == 3


# ------------------------------------------------------------------ export

def test_export_subcommand(dataset_files, trained_run, tmp_path):
    root, train_p, test_p = dataset_files
    out = tmp_path / "bundle"
    code = main([
        "export", "--checkpoint", str(trained_run / "checkpoint.json"),
        "--dataset-path", str(test_p), "--k-list", "0", "2",
        "--out", str(out),
    ])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "counterfactuals.json" in manifest["files"]
    assert "class_similarity.csv" in manifest["files"]
    rows = json.loads((out / "counterfactuals.json").read_text())
    assert len(rows) == 4  # 2 classes x 2 k values


def test_export_checks_k_before_scoring(dataset_files, trained_run, tmp_path,
                                        capsys, monkeypatch):
    root, train_p, test_p = dataset_files
    calls = []
    monkeypatch.setattr(interpret, "sweep", lambda *a, **kw: calls.append(a))
    code = main([
        "export", "--checkpoint", str(trained_run / "checkpoint.json"),
        "--dataset-path", str(test_p), "--k-list", "0", "999",
        "--out", str(tmp_path / "bundle"),
    ])
    assert code == 2
    assert "k=999 outside" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "bundle").exists()


def _analysis_digests(tmp_path, capsys, cell, layers, bidir):
    """sha256 of ``counterfactual`` stdout (both targets) and of the
    ``export`` files for a seeded 3-class model. Its trained weights are
    rounded to multiples of 2**-16, so that last-bit differences of the
    training arithmetic between machines do not reach the digests. The
    similarity CSV is left out for the same reason: its values come from
    one BLAS product."""
    T = 12
    enc = EncoderConfig(CellKind(cell), 1, 4, T, layers=layers, bidirectional=bidir)
    model, _ = fit(synth_separable(3, T, 1, 5, seed=3),
                   TrainConfig(epochs=40, learning_rate=0.02, seed=4), enc,
                   HeadKind.NEUROVIEW, InitScheme(InitKind.UNIFORM, 4))
    model.params[...] = np.round(model.params * 2.0**16) / 2.0**16
    ckpt, split = tmp_path / "ckpt.json", tmp_path / "split.tsv"
    save_checkpoint(ckpt, model, RunConfig(cell=cell, hidden_dim=4, layers=layers,
                                           bidirectional=bidir, seed=4, epochs=0))
    save_ucr(synth_separable(3, T, 1, 5, seed=4), split)
    common = ["--checkpoint", str(ckpt), "--dataset-path", str(split)]
    digests = {}
    for target in ("inputs", "weights"):
        assert main(["counterfactual", *common, "--class", "1", "--k-list",
                     "0", "1", "3", "5", str(T), "--target", target]) == 0
        digests[f"counterfactual-{target}"] = capsys.readouterr().out
    bundle = tmp_path / "bundle"
    assert main(["export", *common, "--k-list", "0", "1", "2", "5", "10",
                 "--out", str(bundle)]) == 0
    capsys.readouterr()
    for f in sorted(bundle.iterdir()):
        if f.name != "class_similarity.csv":
            digests[f.name] = f.read_text()
    return {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in digests.items()}


# Written by the per-row counterfactual code that ``interpret.sweep``
# replaced (one full forward pass per row); the sweep must reproduce them.
# Keys: cell-layers-directions.
ANALYSIS_SHA256 = {
    "gru-1-uni": {
        "counterfactual-inputs":
            "aabe6c67c17c6cf6a0f59d14bb3e2af28235208c7268d62e33b9b8ccc607db2f",
        "counterfactual-weights":
            "3af6b1ee7c31601e71300b3d0d66ea84e36c02c99a8ee5fe3aa70ed52450bf49",
        "counterfactuals.json":
            "97c80c4c503e282427b80624df424c01549092071c4f6f9d5a1bbb74955956be",
        "manifest.json":
            "f50c2c5dcf4f9e275072fc9b2298fa798ebf52563e0567a7b4efd0de72a2c099",
        "weight_map_class0.csv":
            "e8b1951efa91186c3ae331923ba4e69e34a1aac9b89c5c15d34688ae822c92ae",
        "weight_map_class1.csv":
            "e3fae877a6a84699e1802e45b11e494ddfe8fc379aae19184d1bcc013fcf27e6",
        "weight_map_class2.csv":
            "38cec1b431d427ea816210d3094128bdb96359a2d68cdf925b2cdb2ee0187543",
    },
    "lstm-2-bidir": {
        "counterfactual-inputs":
            "f11dc308ab37272bade7e0becbd113d8a84a1b71e9929f9c1f2fd176807409b8",
        "counterfactual-weights":
            "ae580d276fb0cd6b4cb6a908cff554e91eb864f2f35f0ed9350c4dd02a0f14ac",
        "counterfactuals.json":
            "e5e0ad158d337a2d9b9847556112051c2f3259fce38f77ce08d24e7b487eae5c",
        "manifest.json":
            "f50c2c5dcf4f9e275072fc9b2298fa798ebf52563e0567a7b4efd0de72a2c099",
        "weight_map_class0.csv":
            "bceca0f51f9b7d5729c5fa4538dc8abb2e512d1248e2555fa7829205a397c027",
        "weight_map_class1.csv":
            "292d537a6849a2cd09051a25bda677d4416c03e73cf453338dbd07aeb4ebd5cc",
        "weight_map_class2.csv":
            "a5d4f214690fdffa853ab94e3189094907a36b725cea2f6b5b5a4661aca6bbf1",
    },
    "lstm-2-uni": {
        "counterfactual-inputs":
            "d9631114e865a2a2398906a427f1609fcb436c312660c64d3e48fa8e6db4d3d4",
        "counterfactual-weights":
            "7db1c36874db8b94819f7aaddd8b96c66d78d9e9b68179a06c55e5dd9bf929f2",
        "counterfactuals.json":
            "15035380994aab9d295cb0e2602f09a92c3cc53dcce224bbef32f1e844979271",
        "manifest.json":
            "f50c2c5dcf4f9e275072fc9b2298fa798ebf52563e0567a7b4efd0de72a2c099",
        "weight_map_class0.csv":
            "0da48a3bdf887cb7ac8a5b7269a2b7f16724388cd23e0ef49afa8e590f50d0a4",
        "weight_map_class1.csv":
            "d458929cdb155fc8b718ee617ebc632ab96794a02c9082a6cadc506782f1f8d3",
        "weight_map_class2.csv":
            "b993ad756599bfb529fcea0307600d383811c609a3920f3a72d2ba4f83ed9719",
    },
    "rnn-2-uni": {
        "counterfactual-inputs":
            "5aec9b8469cd9f24ed81f9e6ca394fd11359185806e79825159d6ed647e3ffa7",
        "counterfactual-weights":
            "843657d4b1bfc9a734112fc058011d8416142e603615407848e2966867fc3d39",
        "counterfactuals.json":
            "2424feb1f0800274a1190699fd124de70a58f4c4e145814347d2442907c4c10d",
        "manifest.json":
            "f50c2c5dcf4f9e275072fc9b2298fa798ebf52563e0567a7b4efd0de72a2c099",
        "weight_map_class0.csv":
            "6703bae76b5aba4de4890a1e194b9fb632cd658e575fdf38b949dabbe977f133",
        "weight_map_class1.csv":
            "f4eb04d568d7247e1c50fdcf35ed4f27607b102dff6191f52e7334fec1674f44",
        "weight_map_class2.csv":
            "0cd240da53228ec8b6eb3e291cd4374875032a0d45cc0ea0599baf6daa1cafb4",
    },
}


@pytest.mark.parametrize("case", sorted(ANALYSIS_SHA256))
def test_analysis_outputs_are_pinned(tmp_path, capsys, case):
    cell, layers, bidir = case.split("-")
    got = _analysis_digests(tmp_path, capsys, cell, int(layers), bidir == "bidir")
    assert got == ANALYSIS_SHA256[case]


def test_inspect_writes_what_export_writes_without_a_sweep(trained_run, tmp_path,
                                                           capsys):
    ckpt = str(trained_run / "checkpoint.json")
    assert main(["inspect", "--checkpoint", ckpt, "--out", str(tmp_path / "a")]) == 0
    inspect_out = capsys.readouterr().out
    assert main(["export", "--checkpoint", ckpt, "--out", str(tmp_path / "b")]) == 0
    export_out = capsys.readouterr().out
    assert inspect_out.replace("/a\n", "/b\n") == export_out
    names = sorted(f.name for f in (tmp_path / "a").iterdir())
    assert names == sorted(f.name for f in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# ------------------------------------------------------ the bad-input table
#
# Every (subcommand, bad input) row ends in its documented exit code (2 for
# usage, config and input errors, 1 for numerical failures) with exactly one
# stderr line, ``error: ...``, besides any ``warning:`` line the CLI prints,
# and without a traceback, a Python warning, an OS error number or an
# exception escaping ``main``, and writes no file. ``needle`` must appear in
# that line, or be that whole line if it starts with ``error: ``.
# Placeholders: {train}/{test} the T = 8 splits, {ckpt} a trained nv
# checkpoint, {v1} the format-1 fixture, {tmp} a fresh directory holding
# ``files`` (text, bytes, or a callable that writes the path).

TRAIN = ("train --train-path {train} --test-path {test} --cell rnn --head nv "
         "--hidden 4 --epochs 40 --seed 3 --out {tmp}/run")
CF = "counterfactual --checkpoint {ckpt} --dataset-path {test} --class 0"
EXPORT = "export --checkpoint {ckpt} --dataset-path {test}"


def _split_text(*rows):
    return "".join("\t".join(row) + "\n" for row in rows)


EIGHT = ["0.5"] * 8


def _long_split(p):
    save_ucr(synth_separable(2, 40, 1, 3, seed=0), p)


def _bad(case, argv, code=2, needle="", files=None):
    return pytest.param(argv, code, needle, files or {}, id=case)


BAD_INPUT = [
    # train and sweep: flags, config files, splits and output paths
    *[_bad(f"train-flag{flag}={value}", f"{TRAIN} {flag} {value}", needle=value)
      for flag, value in [("--lr", "0"), ("--epochs", "-1"), ("--batch-size", "-2"),
                          ("--grad-clip", "-1"), ("--hidden", "0"), ("--layers", "0"),
                          ("--max-len", "-3"), ("--lr", "nan"), ("--lr", "inf"),
                          ("--grad-clip", "nan")]],
    *[_bad(f"train-config-{line.split(' = ')[0]}={line.split(' = ')[1]}",
           f"{TRAIN} --config {{tmp}}/run.cfg", needle=line.split(" = ")[0],
           files={"run.cfg": line + "\n"})
      for line in ["beta1 = 1.0", "beta2 = -0.5", "eps = 0.0", "eps = nan",
                   "learning_rate = inf"]],
    _bad("train-config-unknown-key", f"{TRAIN} --config {{tmp}}/run.cfg",
         needle="no_such_key", files={"run.cfg": "no_such_key = 1\n"}),
    _bad("train-config-bad-value", f"{TRAIN} --config {{tmp}}/run.cfg",
         needle="'layers'", files={"run.cfg": "layers = two\n"}),
    _bad("train-config-missing", f"{TRAIN} --config {{tmp}}/missing.cfg",
         needle="{tmp}/missing.cfg"),
    _bad("train-config-not-utf8", f"{TRAIN} --config {{tmp}}/run.cfg",
         needle="{tmp}/run.cfg", files={"run.cfg": b"\xff\xfe = 1\n"}),
    _bad("train-out-existing-file", "train --train-path {train} --out {tmp}/taken",
         needle="{tmp}/taken", files={"taken": "keep\n"}),
    _bad("train-out-below-a-file", "train --train-path {train} --out {tmp}/taken/sub",
         needle="{tmp}/taken", files={"taken": "keep\n"}),
    _bad("sweep-out-below-a-file", "sweep --train-path {train} --test-path {test} "
         "--sizes 3 4 --epochs 1 --out {tmp}/taken/sub", needle="{tmp}/taken",
         files={"taken": "keep\n"}),
    _bad("train-missing-split", "train --train-path {tmp}/nope.tsv --out {tmp}/o",
         needle="not found"),
    _bad("train-no-split", "train --out {tmp}/o"),
    _bad("train-unknown-dataset", "train --dataset nothere --data-root {tmp} --out {tmp}/o",
         needle="could not resolve"),
    _bad("train-one-class-split", "train --train-path {tmp}/split.tsv --out {tmp}/run",
         needle="error: {tmp}/split.tsv: found 1 class(es); need at least 2",
         files={"split.tsv": _split_text(["1"] + EIGHT, ["1"] + EIGHT)}),
    _bad("sweep-duplicate-sizes", "sweep --train-path {train} --test-path {test} "
         "--sizes 4 4 --out {tmp}/s", needle="duplicate"),
    _bad("train-overflowing-step", "train --train-path {tmp}/long.tsv --head avg "
         "--hidden 3 --epochs 2 --lr 1e308 --out {tmp}/run", code=1,
         needle="non-finite parameters at epoch 1", files={"long.tsv": _long_split}),
    # evaluate: checkpoints and splits
    _bad("evaluate-checkpoint-missing",
         "evaluate --checkpoint {tmp}/none.json --dataset-path {test}", needle="not found"),
    *[_bad(f"evaluate-checkpoint-{getattr(c, '__name__', c).lstrip('_')}",
           "evaluate --checkpoint {tmp}/ckpt.json --dataset-path {test}",
           needle="checkpoint {tmp}/ckpt.json: "
                  + (f"field '{FIELD_OF[c]}'" if c in FIELD_OF else ""),
           files={"ckpt.json": lambda p, c=c: _write_checkpoint(p, corrupt=c)})
      for c in CORRUPTIONS],
    # pack checks the shapes before it allocates blocks for this hidden size
    _bad("evaluate-checkpoint-huge-hidden-dim",
         "evaluate --checkpoint {tmp}/ckpt.json --dataset-path {test}",
         needle="error: checkpoint {tmp}/ckpt.json: field 'cells[0]': parameter 'W': "
                f"expected shape {(10**15, 10**15)}, got (3, 3)",
         files={"ckpt.json": lambda p: _write_checkpoint(p, corrupt=_huge_hidden_dim)}),
    # an empty array whose shape numpy cannot make
    _bad("evaluate-checkpoint-huge-empty-shape",
         "evaluate --checkpoint {tmp}/ckpt.json --dataset-path {test}",
         needle="error: checkpoint {tmp}/ckpt.json: field 'head.V.shape' is not a shape "
                f"numpy can hold: [0, {10**30}]",
         files={"ckpt.json": lambda p: _write_checkpoint(p, corrupt=_huge_empty_V)}),
    _bad("evaluate-checkpoint-nested-too-deep",
         "evaluate --checkpoint {tmp}/ckpt.json --dataset-path {test}", code=1,
         needle="recursion too deep", files={"ckpt.json": "[" * 100000 + "]" * 100000}),
    *[_bad(f"evaluate-split-{case}", "evaluate --checkpoint {ckpt} --dataset-path "
           "{tmp}/split.tsv", needle="error: {tmp}/split.tsv: " + line,
           files={"split.tsv": text})
      for case, text, line in [
          ("ragged-row", _split_text(["0"] + EIGHT, ["1"] + EIGHT[:2]),
           "line 2: ragged row, expected 9 fields, got 3"),
          ("bad-token", _split_text(["0"] + EIGHT, ["1"] + EIGHT[:7] + ["xyz"]),
           "line 2, field 8: could not parse 'xyz'"),
          ("nan-value", _split_text(["0"] + EIGHT, ["1", "NaN"] + EIGHT[1:]),
           "line 2, field 1: missing or non-finite value 'NaN'"),
          ("empty-file", "", "no data rows"),
          ("unknown-label", _split_text(["0"] + EIGHT, ["7"] + EIGHT),
           "label 7 is not one of the known classes (0, 1)"),
          ("not-utf8", b"\xff\xfe\n",
           "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte")]],
    *[_bad(f"{command}-v1-split-with-more-labels",
           f"{command} --checkpoint {{v1}} --dataset-path {{tmp}}/split.tsv{extra}",
           needle="the split has 3 labels",
           files={"split.tsv": lambda p: save_ucr(synth_separable(3, 4, 1, 2, seed=5), p)})
      for command, extra in [("evaluate", ""), ("counterfactual", " --class 0 --k-list 1"),
                             ("export", " --k-list 1 --out {tmp}/bundle")]],
    # inspect, export and counterfactual: classes, k lists and output paths
    *[_bad(f"{command}-out-existing-file",
           f"{command} --checkpoint {{ckpt}} --out {{tmp}}/taken{extra}",
           needle="{tmp}/taken", files={"taken": "keep\n"})
      for command, extra in [("inspect", ""),
                             ("export", " --dataset-path {test} --k-list 1")]],
    *[_bad(f"{command}-out-below-a-file",
           f"{command} --checkpoint {{ckpt}} --out {{tmp}}/taken/sub{extra}",
           needle="{tmp}/taken", files={"taken": "keep\n"})
      for command, extra in [("inspect", ""),
                             ("export", " --dataset-path {test} --k-list 1")]],
    _bad("inspect-non-nv-checkpoint", "inspect --checkpoint {tmp}/last.json --out {tmp}/x",
         needle="head", files={"last.json": lambda p: _write_checkpoint(p, HeadKind.LAST_STATE)}),
    _bad("inspect-class-out-of-range", "inspect --checkpoint {ckpt} --classes 7 --out {tmp}/x",
         needle="error: class 7 outside [0, 2)"),
    _bad("export-duplicate-classes", "export --checkpoint {ckpt} --classes 0,1,0 "
         "--out {tmp}/b", needle="error: duplicate class ids in --classes: 0,1,0"),
    _bad("export-k-too-large", f"{EXPORT} --k-list 0 999 --out {{tmp}}/bundle",
         needle="k=999 outside"),
    _bad("export-duplicate-k", f"{EXPORT} --k-list 1 3 1 --out {{tmp}}/b",
         needle="error: duplicate values in --k-list: 1 3 1"),
    _bad("export-k-list-only", "export --checkpoint {ckpt} --k-list 0 2 --out {tmp}/bundle",
         needle="--dataset-path and --k-list"),
    _bad("export-dataset-only", f"{EXPORT} --out {{tmp}}/bundle",
         needle="--dataset-path and --k-list"),
    _bad("counterfactual-out-existing-directory", f"{CF} --k-list 1 --out {{tmp}}/taken",
         needle="{tmp}/taken", files={"taken/keep.txt": "keep\n"}),
    _bad("counterfactual-out-below-a-file", f"{CF} --k-list 1 --out {{tmp}}/taken/x",
         needle="{tmp}/taken", files={"taken": "keep\n"}),
    _bad("counterfactual-k-too-large", f"{CF} --k-list 999", needle="outside"),
    _bad("counterfactual-duplicate-k", f"{CF} --k-list 1 3 1",
         needle="error: duplicate values in --k-list: 1 3 1"),
    *[_bad(f"counterfactual-class{c}", "counterfactual --checkpoint {ckpt} --dataset-path "
           f"{{test}} --class {c} --k-list 1", needle=f"error: class {c} outside [0, 2)")
      for c in ("-1", "2")],
]


@pytest.mark.parametrize("argv,code,needle,files", BAD_INPUT)
def test_bad_input_exits_with_one_error_line(dataset_files, trained_run, tmp_path, capsys,
                                             argv, code, needle, files):
    _, train_p, test_p = dataset_files
    names = {"train": train_p, "test": test_p, "ckpt": trained_run / "checkpoint.json",
             "v1": V1_CHECKPOINT, "tmp": tmp_path}
    for name, content in files.items():
        p = tmp_path / name
        p.parent.mkdir(parents=True, exist_ok=True)
        if callable(content):
            content(p)
        elif isinstance(content, bytes):
            p.write_bytes(content)
        else:
            p.write_text(content)
    before = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
    # A warning would print lines of its own on stderr: here it raises.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv.format(**names).split()) == code
    stderr = capsys.readouterr().err
    err = [line for line in stderr.splitlines() if not line.startswith("warning: ")]
    assert len(err) == 1 and err[0].startswith("error: "), stderr
    needle = needle.format(**names)
    assert err[0] == needle if needle.startswith("error: ") else needle in err[0]
    assert "Traceback" not in stderr and "Errno" not in stderr
    assert {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")} == before


@pytest.mark.parametrize("exc,line", [
    (MemoryError(), "error: out of memory"),
    (MemoryError("Unable to allocate 8.00 EiB"),
     "error: out of memory: Unable to allocate 8.00 EiB"),
], ids=["bare", "with-message"])
def test_out_of_memory_exits_1_with_one_line(monkeypatch, capsys, exc, line):
    # The command raises as an allocation that fails would; nothing is allocated.
    def cmd_evaluate(args):
        raise exc
    monkeypatch.setattr(cli_mod, "cmd_evaluate", cmd_evaluate)
    assert main(["evaluate", "--checkpoint", "ckpt.json", "--dataset-path", "split.tsv"]) == 1
    assert capsys.readouterr().err == line + "\n"


# -------------------------------------------------------------------- help

def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    for sub in ("train", "sweep", "evaluate", "inspect", "counterfactual", "export"):
        assert main([sub, "--help"]) == 0
        assert "usage" in capsys.readouterr().out.lower()


def test_module_entry_point_prints_usage():
    # ``python -m neuroview.cli`` runs the same CLI as the console script.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "neuroview.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
    assert "Warning" not in proc.stderr
