import numpy as np
import pytest

from neuroview import data as data_mod
from neuroview.data import (
    DataSet,
    load_ucr,
    pad_dataset,
    save_ucr,
    synth_separable,
)

from test_acceptance import require_archive_files


def write(tmp_path, text, name="data.tsv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_two_row_file(tmp_path):
    p = write(tmp_path, "1\t0.5\t0.7\n2\t0.1\t0.2\n")
    ds = load_ucr(p)
    assert ds.num_classes == 2
    assert ds.horizon == 2
    assert ds.feature_dim == 1
    assert ds.labels().tolist() == [0, 1]
    np.testing.assert_array_equal(ds.classes, [1.0, 2.0])
    np.testing.assert_array_equal(ds.features()[0, :, 0], [0.5, 0.7])


def test_load_comma_delimited(tmp_path):
    # The archive's tab/LF files, comma-separated ones and CRLF line ends
    # all load to the same series, class ids and labels.
    rows = [["3", "0.5", "-0.7", "1e-3"], ["-1", "0.1", "0.25", "2"], ["3", "4", "5", "6"]]
    want = load_ucr(write(tmp_path, "".join("\t".join(r) + "\n" for r in rows)))
    comma = write(tmp_path, "".join(",".join(r) + "\n" for r in rows), "comma.csv")
    crlf = tmp_path / "crlf.tsv"
    crlf.write_bytes("".join("\t".join(r) + "\r\n" for r in rows).encode())
    for p in (comma, crlf):
        ds = load_ucr(p)
        assert ds.horizon == 3 and ds.num_classes == 2
        np.testing.assert_array_equal(ds.features(), want.features())
        np.testing.assert_array_equal(ds.labels(), want.labels())
        np.testing.assert_array_equal(ds.classes, want.classes)


def test_label_remap_is_sorted_and_bijective(tmp_path):
    p = write(tmp_path, "5\t1\n-1\t2\n5\t3\n2\t4\n")
    ds = load_ucr(p)
    # raw -1 -> 0, 2 -> 1, 5 -> 2
    assert ds.labels().tolist() == [2, 0, 2, 1]
    np.testing.assert_array_equal(ds.classes, [-1.0, 2.0, 5.0])
    assert ds.num_classes == 3


def test_load_maps_labels_through_given_classes(tmp_path):
    p = write(tmp_path, "3\t1\n1\t2\n3\t3\n")
    ds = load_ucr(p, classes=[1.0, 2.0, 3.0])
    # one id per raw label, whatever else the file holds; one class is enough
    assert ds.labels().tolist() == [2, 0, 2]
    assert ds.num_classes == 3
    assert load_ucr(write(tmp_path, "2\t1\n", "one.tsv"),
                    classes=[1.0, 2.0]).labels().tolist() == [1]
    with pytest.raises(ValueError, match=r"^label 7 is not one of the known classes \(1, 2\)$"):
        load_ucr(write(tmp_path, "1\t1\n7.0\t2\n", "new.tsv"), classes=[1.0, 2.0])


def test_ragged_row_error_names_line(tmp_path):
    p = write(tmp_path, "1\t0.5\t0.7\n2\t0.1\n")
    with pytest.raises(ValueError, match="line 2"):
        load_ucr(p)


def test_unparseable_field_error_names_position(tmp_path):
    p = write(tmp_path, "1\t0.5\t0.7\n2\t0.1\txyz\n")
    with pytest.raises(ValueError, match="line 2, field 2"):
        load_ucr(p)


def test_missing_value_rejected(tmp_path):
    p = write(tmp_path, "1\t0.5\tNaN\n2\t0.1\t0.2\n")
    with pytest.raises(ValueError, match="line 1, field 2"):
        load_ucr(p)


def test_single_class_rejected(tmp_path):
    p = write(tmp_path, "1\t0.5\n1\t0.3\n")
    with pytest.raises(ValueError, match="at least 2"):
        load_ucr(p)


def test_empty_file_rejected(tmp_path):
    p = write(tmp_path, "\n\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_ucr(p)


def test_multivariate_extension(tmp_path):
    p = write(tmp_path, "1\t0.5,1.5\t0.7,1.7\n2\t0.1,1.1\t0.2,1.2\n")
    ds = load_ucr(p)
    assert ds.feature_dim == 2
    assert ds.horizon == 2
    np.testing.assert_array_equal(ds.features()[0], [[0.5, 1.5], [0.7, 1.7]])


def test_multivariate_ragged_channels_rejected(tmp_path):
    p = write(tmp_path, "1\t0.5,1.5\t0.7\n2\t0.1,1.1\t0.2,1.2\n")
    with pytest.raises(ValueError, match="channel"):
        load_ucr(p)


def test_roundtrip_is_fixed_point(tmp_path):
    rng = np.random.default_rng(0)
    rows = []
    for i in range(6):
        vals = rng.normal(size=5)
        rows.append(str(1 + i % 3) + "\t" + "\t".join(repr(float(v)) for v in vals))
    p = write(tmp_path, "\n".join(rows) + "\n")
    ds1 = load_ucr(p)
    q = tmp_path / "resaved.tsv"
    save_ucr(ds1, q)
    ds2 = load_ucr(q)
    assert ds2.num_classes == ds1.num_classes
    assert ds2.horizon == ds1.horizon
    np.testing.assert_array_equal(ds2.labels(), ds1.labels())
    np.testing.assert_array_equal(ds2.features(), ds1.features())
    # the raw labels survive, not just the ids
    np.testing.assert_array_equal(ds2.classes, [1.0, 2.0, 3.0])
    assert q.read_text().split("\t", 1)[0] == "1"
    # a second round-trip produces identical bytes
    r = tmp_path / "resaved2.tsv"
    save_ucr(ds2, r)
    assert q.read_text() == r.read_text()


def test_znorm_flag(tmp_path):
    p = write(tmp_path, "1\t1.0\t2.0\t3.0\n2\t10.0\t20.0\t30.0\n")
    ds = load_ucr(p, znorm=True)
    for x in ds.features():
        assert x.mean() == pytest.approx(0.0, abs=1e-12)
        assert x.std() == pytest.approx(1.0, rel=1e-12)


TRICKY = ["1_000", " 2.5 ", "\u00a03.25", "1e-320", "4.9e-324", "-0", "+.5", "5.",
          "1E5", "\uff11\uff12", "2.2250738585072014e-308"]


def test_row_values_equal_float_on_tricky_tokens(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    tokens = TRICKY + [repr(float(v)) for v in
                       rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, 40)]
    p = write(tmp_path, "1\t" + "\t".join(tokens) + "\n"
              "2,  " + ",".join(reversed(tokens)) + "\n")

    def per_field(*args):
        raise AssertionError("a clean univariate row took the per-field path")

    monkeypatch.setattr(data_mod, "_parse_value", per_field)
    ds = load_ucr(p)
    want = np.array([[float(t) for t in tokens], [float(t) for t in reversed(tokens)]])
    assert ds.features()[..., 0].tobytes() == want.tobytes()
    np.testing.assert_array_equal(ds.classes, [1.0, 2.0])


@pytest.mark.parametrize("text,message", [
    ("1\t0.5\tnan\n", "line 1, field 2: missing or non-finite value 'nan'"),
    ("1\t0.5\t0.7\n2\t-inf\t0.2\n",
     "line 2, field 1: missing or non-finite value '-inf'"),
    ("1\t0.5\t1e999\n", "line 1, field 2: missing or non-finite value '1e999'"),
    ("1\t0.5\t0.7\n2\t0.1\txyz\n", "line 2, field 2: could not parse 'xyz'"),
    ("1\t0.5\t\t0.7\n", "line 1, field 2: could not parse ''"),
    ("x\t0.5\t0.7\n", "line 1, field 0: could not parse 'x'"),
    ("NaN\t0.5\t0.7\n", "line 1, field 0: missing or non-finite value 'NaN'"),
    ("1\t0.5\t0.7\n2\t0.1\n", "line 2: ragged row, expected 3 fields, got 2"),
    ("1\t0.5,1.5\t0.7\n", "line 1, field 2: expected 2 channel values, got 1"),
    ("1\t0.5,1.5\t0.7,1.7\n2\t0.1\t0.2\n",
     "line 2, field 1: expected 2 channel values, got 1"),
    ("1\t0.5\t0.7\n2\t0.1,1.1\t0.2\n",
     "line 2, field 1: expected 1 channel values, got 2"),
    ("1\t0.5,nan\t0.7,1.7\n", "line 1, field 1: missing or non-finite value 'nan'"),
], ids=["nan", "inf", "overflow", "garbage", "empty-field", "bad-label", "nan-label",
        "ragged", "channels-within-row", "channels-multi-then-uni",
        "channels-uni-then-multi", "multivariate-nan"])
def test_row_error_messages(tmp_path, text, message):
    with pytest.raises(ValueError) as err:
        load_ucr(write(tmp_path, text))
    assert str(err.value) == message


# ----------------------------------------------------------------- padding

def one_sample(steps, m=1, label=0):
    X = np.arange(1, steps * m + 1, dtype=float).reshape(1, steps, m)
    return DataSet(X, [label], [0.0, 1.0])


def test_pad_appends_zero_steps():
    X = pad_dataset(one_sample(2), 4).features()
    assert X.shape == (1, 4, 1)
    np.testing.assert_array_equal(X[0, :2, 0], [1.0, 2.0])
    np.testing.assert_array_equal(X[0, 2:], np.zeros((2, 1)))


def test_pad_identity_when_equal():
    ds0 = one_sample(3)
    ds1 = pad_dataset(ds0, 3)
    assert ds1 is ds0


def test_pad_truncates_to_prefix():
    X = pad_dataset(one_sample(5), 3).features()
    assert X.shape == (1, 3, 1)
    np.testing.assert_array_equal(X[0, :, 0], [1.0, 2.0, 3.0])


def test_pad_never_alters_leading_steps():
    rng = np.random.default_rng(1)
    for steps, horizon in [(4, 9), (9, 4), (6, 6)]:
        feats = rng.normal(size=(steps, 2))
        ds = DataSet(feats[None].copy(), [0], [0.0])
        padded = pad_dataset(ds, horizon)
        keep = min(steps, horizon)
        np.testing.assert_array_equal(padded.features()[0, :keep], feats[:keep])


def test_pad_dataset(tmp_path):
    ds = synth_separable(2, 6, 1, 3, seed=0)
    out = pad_dataset(ds, 9)
    assert out.horizon == 9
    assert out.features().shape == (6, 9, 1)
    np.testing.assert_array_equal(out.labels(), ds.labels())


# --------------------------------------------------------------- synthetic

def test_synth_deterministic_per_seed():
    a = synth_separable(3, 12, 2, 4, seed=9)
    b = synth_separable(3, 12, 2, 4, seed=9)
    np.testing.assert_array_equal(a.features(), b.features())
    np.testing.assert_array_equal(a.labels(), b.labels())


def test_synth_different_seeds_differ():
    a = synth_separable(2, 12, 1, 4, seed=1)
    b = synth_separable(2, 12, 1, 4, seed=2)
    assert not np.array_equal(a.features(), b.features())


def test_synth_rejects_degenerate_args():
    with pytest.raises(ValueError, match="at least 2"):
        synth_separable(1, 10, 1, 4, seed=0)
    with pytest.raises(ValueError, match="too short"):
        synth_separable(4, 3, 1, 4, seed=0)
    with pytest.raises(ValueError):
        synth_separable(2, 10, 0, 4, seed=0)


def test_synth_is_trainable_to_full_accuracy():
    # Oracle for the separability claim: a small per-timestep-readout model
    # actually fits it perfectly.
    from neuroview.cells import CellKind, InitKind, InitScheme
    from neuroview.network import EncoderConfig, HeadKind
    from neuroview.train import TrainConfig, evaluate, fit

    ds = synth_separable(2, 10, 1, 6, seed=4)
    enc = EncoderConfig(CellKind.SIMPLE_RNN, 1, 4, ds.horizon)
    model, _ = fit(
        ds, TrainConfig(epochs=200, seed=4), enc,
        HeadKind.NEUROVIEW, InitScheme(InitKind.UNIFORM, 4),
    )
    assert evaluate(model, ds).overall_accuracy == 1.0


def test_dataset_validation():
    with pytest.raises(ValueError, match="label"):
        one_sample(3, label=5)
    with pytest.raises(ValueError, match="shape"):
        DataSet(np.zeros((2, 3, 1)), [0], [0.0, 1.0])
    with pytest.raises(ValueError, match="shape"):
        DataSet(np.zeros((3, 1)), [0, 0, 0], [0.0, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        DataSet(np.full((1, 3, 1), np.inf), [0], [0.0, 1.0])
    with pytest.raises(ValueError, match="increasing"):
        DataSet(np.zeros((1, 3, 1)), [0], [1.0, 0.0])


def test_features_are_read_only_and_leave_the_caller_array_alone():
    X = np.zeros((2, 3, 1))
    ds = DataSet(X, [0, 1], [0.0, 1.0])
    with pytest.raises(ValueError, match="read-only"):
        ds.features()[0, 0, 0] = 1.0
    X[0, 0, 0] = 1.0  # the caller's own array stays writable


# ------------------------------------------------- archive files, if present

def test_archive_rule_skips_unless_location_given(tmp_path, monkeypatch):
    monkeypatch.setenv("NV_UCR_DIR", str(tmp_path))
    with pytest.raises(pytest.fail.Exception, match="NoSuchDataset"):
        require_archive_files("NoSuchDataset")
    monkeypatch.delenv("NV_UCR_DIR")
    with pytest.raises(pytest.skip.Exception, match="NoSuchDataset"):
        require_archive_files("NoSuchDataset")


def test_chinatown_shape_if_available():
    train_p, _ = require_archive_files("Chinatown")
    ds = load_ucr(train_p)
    assert len(ds) == 20
    assert ds.horizon == 24
    assert ds.num_classes == 2


def test_fungi_shape_if_available():
    train_p, _ = require_archive_files("Fungi")
    ds = load_ucr(train_p)
    assert ds.num_classes == 18
    assert ds.horizon == 201
