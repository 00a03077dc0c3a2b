"""Dataset ingestion, padding, and synthetic fixtures.

The on-disk format is the classic archive layout for univariate series:
one sample per row, first field the class label, remaining fields the
series values, separated by tabs or commas (autodetected). A multivariate
extension uses tab-separated fields where each timestep field holds
``m`` comma-separated values.

Raw labels may be arbitrary numbers ({1,2}, {-1,1}, ...). A dataset holds
contiguous class ids 0..d-1 plus ``classes``, the sorted raw label of each
id. Loading another split through the same ``classes`` keeps every raw
label on the same id.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import DTYPE


@dataclass
class DataSet:
    """``X`` (B, T, m) float64, read-only; ``y`` (B,) class ids;
    ``classes[i]`` the raw label of class id ``i``, strictly increasing."""

    X: np.ndarray
    y: np.ndarray
    classes: np.ndarray

    def __post_init__(self):
        # A read-only view: the caller's own array stays writable.
        self.X = np.asarray(self.X, dtype=DTYPE).view()
        self.X.flags.writeable = False
        self.y = np.asarray(self.y, dtype=np.int64)
        self.classes = np.asarray(self.classes, dtype=DTYPE)
        if self.X.ndim != 3 or self.y.shape != self.X.shape[:1]:
            raise ValueError(
                f"need features of shape (B, T, m) and labels of shape (B,), "
                f"got {self.X.shape} and {self.y.shape}"
            )
        if not np.isfinite(self.X).all():
            raise ValueError("features contain non-finite values")
        if self.classes.ndim != 1 or not np.all(np.diff(self.classes) > 0):
            raise ValueError("classes must be strictly increasing raw labels")
        if np.any((self.y < 0) | (self.y >= self.num_classes)):
            raise ValueError(f"label ids must lie in [0, {self.num_classes})")

    def __len__(self):
        return len(self.X)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def horizon(self) -> int:
        return self.X.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.X.shape[2]

    def features(self) -> np.ndarray:
        """All samples as one read-only (B, horizon, feature_dim) array."""
        return self.X

    def labels(self) -> np.ndarray:
        return self.y


def _parse_value(token: str, line_no: int, col: int) -> float:
    try:
        v = float(token)
    except ValueError:
        raise ValueError(
            f"line {line_no}, field {col}: could not parse {token!r}"
        ) from None
    if not np.isfinite(v):
        raise ValueError(
            f"line {line_no}, field {col}: missing or non-finite value {token!r}"
        )
    return v


def _parse_row(fields, line_no: int, feature_dim) -> tuple:
    """``(label, (steps, m) values)`` of one row. A clean univariate row
    is one numpy conversion, which parses each token as ``float`` does;
    any other row takes the per-field path, which names a bad field."""
    try:
        vals = np.array(fields, dtype=DTYPE)
    except ValueError:
        vals = None
    if vals is not None and feature_dim in (None, 1) and np.isfinite(vals).all():
        return vals[0], vals[1:, None]
    label = _parse_value(fields[0], line_no, 0)
    steps = []
    for col, token in enumerate(fields[1:], start=1):
        vec = [_parse_value(p, line_no, col) for p in token.split(",")]
        if feature_dim is None:
            feature_dim = len(vec)
        elif len(vec) != feature_dim:
            raise ValueError(
                f"line {line_no}, field {col}: expected {feature_dim} "
                f"channel values, got {len(vec)}"
            )
        steps.append(vec)
    return label, np.array(steps, dtype=DTYPE)


def load_ucr(path, znorm: bool = False, classes=None) -> DataSet:
    """Load a label-first delimited archive file.

    Rows must all have the same number of timesteps (the archive ships
    fixed-length splits). Raw labels map to class ids through ``classes``
    (sorted raw labels, as another split's ``DataSet.classes``), or else
    through the file's own sorted labels, of which there must be at least
    two. ``znorm=True`` applies per-series standardization per channel.
    """
    text = Path(path).read_text()
    raw_labels = []
    rows = []
    n_fields = None
    feature_dim = None

    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split("\t") if "\t" in line else line.split(",")
        if len(fields) < 2:
            raise ValueError(f"line {line_no}: expected a label and at least one value")
        if n_fields is None:
            n_fields = len(fields)
        elif len(fields) != n_fields:
            raise ValueError(
                f"line {line_no}: ragged row, expected {n_fields} fields, "
                f"got {len(fields)}"
            )
        label, feats = _parse_row(fields, line_no, feature_dim)
        feature_dim = feats.shape[1]
        raw_labels.append(label)
        if znorm:
            mu = feats.mean(axis=0)
            sd = feats.std(axis=0)
            feats = (feats - mu) / np.where(sd < 1e-12, 1.0, sd)
        rows.append(feats)

    if not rows:
        raise ValueError("no data rows")

    raw = np.array(raw_labels, dtype=DTYPE)
    if classes is None:
        classes = np.unique(raw)
        if len(classes) < 2:
            raise ValueError(f"found {len(classes)} class(es); need at least 2")
    classes = np.asarray(classes, dtype=DTYPE)
    y = np.searchsorted(classes, raw)
    unknown = raw != classes[np.minimum(y, len(classes) - 1)]
    if unknown.any():
        known = ", ".join(f"{c:g}" for c in classes)
        raise ValueError(
            f"label {raw[unknown][0]:g} is not one of the known classes ({known})"
        )
    return DataSet(np.stack(rows), y, classes)


def save_ucr(ds: DataSet, path) -> None:
    """Re-serialize a dataset with its raw labels; floats are written so
    reloading is exact."""
    lines = []
    for label, x in zip(ds.classes[ds.y], ds.X):
        fields = [np.format_float_positional(label, trim="-")]
        fields.extend(",".join(map(repr, step)) for step in x.tolist())
        lines.append("\t".join(fields))
    Path(path).write_text("\n".join(lines) + "\n")


def pad_dataset(ds: DataSet, horizon: int) -> DataSet:
    """Zero-pad every sample at the tail or keep only its first
    ``horizon`` steps."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if horizon == ds.horizon:
        return ds
    X = np.zeros((len(ds), horizon, ds.feature_dim), dtype=DTYPE)
    keep = min(horizon, ds.horizon)
    X[:, :keep] = ds.X[:, :keep]
    return DataSet(X, ds.y, ds.classes)


def synth_separable(num_classes: int, horizon: int, feature_dim: int,
                    n_per_class: int, seed: int,
                    amplitude: float = 3.0, noise: float = 1.0) -> DataSet:
    """Synthetic classification fixture with known informative timesteps.

    Class k carries a constant ``amplitude`` offset on its own early
    timestep window; everything else (including the whole late half of the
    horizon) is pure noise. A per-timestep linear readout can key directly
    on the offset windows, which makes the classes separable by
    construction, while nothing at the end of the sequence is informative.
    """
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    if horizon < num_classes:
        raise ValueError(
            f"horizon {horizon} too short for {num_classes} class windows"
        )
    if feature_dim < 1 or n_per_class < 1:
        raise ValueError("feature_dim and n_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    window = max(1, (horizon // 2) // num_classes)
    X = rng.normal(0.0, noise, size=(num_classes * n_per_class, horizon, feature_dim))
    for k in range(num_classes):
        lo = k * window
        X[k * n_per_class:(k + 1) * n_per_class, lo:lo + window] += amplitude
    y = np.repeat(np.arange(num_classes), n_per_class)
    return DataSet(X, y, np.arange(num_classes))
