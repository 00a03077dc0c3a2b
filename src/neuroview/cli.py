"""Command-line entry point: train, sweep, evaluate, inspect,
counterfactual, and export subcommands.

Run configuration is a flat ``key = value`` text file; every field is
written back explicitly on save so a run is fully self-describing.
Checkpoints are versioned JSON with base64-encoded little-endian float64
arrays: human-inspectable metadata, exact float round-trip, no binary
format dependency. Format 2 also stores the raw label of each class id,
and every split scored with a checkpoint maps its labels through them.
``NV_SEED`` in the environment overrides the config seed. Exit codes:
0 success, 1 runtime/numerical failure (running out of memory or
recursion depth too), 2 usage, config or input error.
"""

from __future__ import annotations

import argparse
import base64
import binascii
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from .linalg import DTYPE
from .cells import CellKind, InitKind, InitScheme, named_views, pack
from .network import EncoderConfig, HeadKind, Model
from .train import (
    EvalReport,
    TrainConfig,
    TrainingDiverged,
    evaluate,
    fit,
    save_history_csv,
)
from .data import DataSet, load_ucr, pad_dataset
from . import interpret

CHECKPOINT_VERSION = 2
# The architecture a checkpoint stores twice, in the order it is checked:
# each run config key and the section and key of its other copy. The seed,
# which the top level may also hold, is checked apart.
TWICE_STORED = ([(key, ("encoder", key))
                 for key in ("cell", "hidden_dim", "layers", "bidirectional", "max_len")]
                + [("head", ("head", "kind")), ("mean_pool", ("head", "mean_pool"))])


class UsageError(Exception):
    """Bad flags, bad config, or unusable paths; maps to exit code 2."""


@dataclass
class RunConfig:
    """Everything one training run needs, in declaration order."""

    train_path: str = ""
    test_path: str = ""
    cell: str = "gru"
    head: str = "nv"
    hidden_dim: int = 32
    layers: int = 1
    bidirectional: bool = False
    max_len: int = 0  # 0 = use the training split's length
    mean_pool: bool = False
    znorm: bool = False
    init: str = "uniform"
    learning_rate: float = 0.001
    epochs: int = 1000
    batch_size: int = 0  # 0 = full batch
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    grad_clip: float = 0.0  # 0 = off
    output_dir: str = "runs/latest"

    def save(self, path) -> None:
        lines = []
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                text = "true" if v else "false"
            elif isinstance(v, float):
                text = repr(v)
            else:
                text = str(v)
            lines.append(f"{f.name} = {text}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "RunConfig":
        fields = {f.name: f for f in dataclasses.fields(cls)}
        values = {}
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as e:
            raise UsageError(f"cannot read config {path}: {e.strerror}") from None
        except UnicodeDecodeError as e:
            raise UsageError(f"cannot read config {path}: not UTF-8 text "
                             f"(byte {e.start})") from None
        for line_no, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{line_no}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in fields:
                raise UsageError(f"{path}:{line_no}: unknown config key {key!r}")
            ftype = fields[key].type
            try:
                if ftype == "bool":
                    if raw not in ("true", "false"):
                        raise ValueError(raw)
                    values[key] = raw == "true"
                elif ftype == "int":
                    values[key] = int(raw)
                elif ftype == "float":
                    values[key] = float(raw)
                else:
                    values[key] = raw
            except ValueError:
                raise UsageError(
                    f"{path}:{line_no}: bad value {raw!r} for field {key!r}"
                ) from None
        return cls(**values)

    def encoder(self, input_dim: int, horizon: int) -> EncoderConfig:
        return EncoderConfig(
            cell=_parse_enum(CellKind, self.cell, "cell"),
            input_dim=input_dim,
            hidden_dim=self.hidden_dim,
            max_len=self.max_len or horizon,
            layers=self.layers,
            bidirectional=self.bidirectional,
        )

    def head_kind(self) -> HeadKind:
        return _parse_enum(HeadKind, self.head, "head")

    def init_scheme(self) -> InitScheme:
        return InitScheme(_parse_enum(InitKind, self.init, "init"), self.seed)

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            batch_size=self.batch_size or None,
            beta1=self.beta1,
            beta2=self.beta2,
            eps=self.eps,
            seed=self.seed,
            grad_clip=self.grad_clip or None,
        )


def _parse_enum(enum_cls, value: str, what: str):
    for member in enum_cls:
        if member.value == value:
            return member
    valid = ", ".join(m.value for m in enum_cls)
    raise UsageError(f"invalid {what} {value!r}; expected one of: {valid}")


def _encode_array(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=DTYPE)
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii"),
    }


def _decode_array(section: dict, key: str, where: str) -> np.ndarray:
    """The array ``_encode_array`` wrote to ``section[key]``: its base64
    ``data`` must hold exactly the float64 entries of its ``shape``, all
    finite."""
    obj = _typed(section, key, "object", where)
    field = f"{where}.{key}"
    shape = _typed(obj, "shape", None, field)
    if type(shape) is not list or not all(type(s) is int and s >= 0 for s in shape):
        raise ValueError(f"field '{field}.shape' must be a list of sizes, got {json.dumps(shape)}")
    try:
        raw = base64.b64decode(_typed(obj, "data", "str", field))
    except binascii.Error as e:
        raise ValueError(f"field '{field}.data' is not base64 ({e})") from None
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"field '{field}.data' holds {len(raw)} bytes, "
                         f"not 8 per entry of shape {shape}")
    try:
        arr = np.frombuffer(raw, dtype="<f8").astype(DTYPE).reshape(shape)
    except ValueError:  # a size past numpy's limits (empty data), or too many axes
        raise ValueError(f"field '{field}.shape' is not a shape numpy can hold: "
                         f"{json.dumps(shape)}") from None
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"field '{field}' contains non-finite entries")
    return arr


def save_checkpoint(path, model: Model, run_config: RunConfig,
                    metrics: Optional[dict] = None, classes=None) -> None:
    """Write a versioned JSON checkpoint; identical state gives identical
    bytes, so save -> load -> save is a fixed point. ``classes`` holds the
    raw label of each class id (default: the ids themselves). The document
    passes through ``load_checkpoint``'s decoder first: what that would
    reject (non-finite parameters, labels that are not one increasing
    label per class, a run config that train refuses, ...) raises
    ``ValueError`` with its message, and nothing is written."""
    cfg = model.encoder
    if classes is None:
        classes = np.arange(model.num_classes)
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "run_config": dataclasses.asdict(run_config),
        "encoder": {**dataclasses.asdict(cfg), "cell": cfg.cell.value},
        "head": {
            "kind": model.head_kind.value,
            "mean_pool": model.mean_pool,
            "V": _encode_array(model.V),
        },
        "cells": [
            {name: _encode_array(arr)
             for name, arr in named_views(cfg.cell, cfg.hidden_dim, *cell).items()}
            for cell in model.cells
        ],
        "classes": [float(c) for c in classes],
        "metrics": metrics,
        "seed": run_config.seed,
    }
    try:
        _decode_checkpoint(doc)
    except (TypeError, ValueError, UsageError) as e:
        raise ValueError(f"checkpoint {path}: {e}") from None
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def load_checkpoint(path):
    """Read a checkpoint; returns ``(model, run_config, metrics, classes)``.
    A missing, unsupported or malformed checkpoint raises ``UsageError``.
    Format 1 stores no ``classes`` (None), which a warning reports."""
    path = Path(path)
    if not path.is_file():
        raise UsageError(f"checkpoint not found: {path}")
    try:
        model, run_config, metrics, classes = _decode_checkpoint(
            json.loads(path.read_text()))
    except json.JSONDecodeError as e:
        raise UsageError(f"checkpoint {path}: invalid JSON ({e})") from None
    except (TypeError, ValueError, UsageError) as e:
        raise UsageError(f"checkpoint {path}: {e}") from None
    if classes is None:
        print(f"warning: checkpoint {path} is format 1, without class labels; "
              "each split maps its own sorted labels", file=sys.stderr)
    return model, run_config, metrics, classes


# The JSON value types a checkpoint field may hold, by the field's Python
# type or "object"; a float field also takes an integer a float can hold,
# but no field takes a boolean for a number.
_JSON_TYPES = {"str": (str,), "int": (int,), "bool": (bool,), "float": (float, int),
               "object": (dict,)}


def _typed(section: dict, key: str, type_name: Optional[str], where: str = ""):
    """``section[key]``, which must be present and, unless ``type_name`` is
    None, hold a JSON value of that type; ``where`` names the section,
    empty for the top level."""
    field = f"{where}.{key}" if where else key
    if key not in section:
        raise ValueError(f"field '{field}' is missing")
    value = section[key]
    if type_name is not None and type(value) not in _JSON_TYPES[type_name]:
        raise ValueError(f"field '{field}' must be {type_name}, got {json.dumps(value)}")
    if type_name == "float" and type(value) is int:
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"field '{field}' is an integer too large for a float") from None
    return value


def _decode_checkpoint(doc: dict):
    """``(model, run_config, metrics, classes)`` from a checkpoint document;
    whatever a field holds that these cannot, the error names the field."""
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if type(version) is not int or version not in (1, CHECKPOINT_VERSION):
        raise UsageError(
            f"format version {version!r} not supported "
            f"(expected 1 or {CHECKPOINT_VERSION})"
        )
    enc = _typed(doc, "encoder", "object")
    cfg = EncoderConfig(_parse_enum(CellKind, _typed(enc, "cell", None, "encoder"), "encoder.cell"),
                        *(_typed(enc, f.name, f.type, "encoder")
                          for f in dataclasses.fields(EncoderConfig)[1:]))
    blobs = _typed(doc, "cells", None)
    if type(blobs) is not list or not all(type(blob) is dict for blob in blobs):
        raise ValueError("field 'cells' must be a list of objects")
    if len(blobs) != cfg.num_cells():
        raise ValueError(f"field 'cells' holds {len(blobs)} cells, the encoder needs "
                         f"{cfg.num_cells()} ({cfg.layers} layers x {cfg.directions} directions)")
    cells = []
    for i, blob in enumerate(blobs):
        arrays = {name: _decode_array(blob, name, f"cells[{i}]") for name in blob}
        try:
            cells.append(pack(cfg.cell, cfg.cell_input_dim(i), cfg.hidden_dim, arrays))
        except ValueError as e:
            raise ValueError(f"field 'cells[{i}]': {e}") from None
    head_doc = _typed(doc, "head", "object")
    head = (_parse_enum(HeadKind, _typed(head_doc, "kind", None, "head"), "head.kind"),
            _decode_array(head_doc, "V", "head"),
            _typed(head_doc, "mean_pool", "bool", "head"))
    try:  # pack checked every cell and their count is checked above: Model rejects only V
        model = Model(cfg, cells, *head)
    except ValueError as e:
        raise ValueError(f"field 'head.V': {e}") from None
    rc = _typed(doc, "run_config", "object")
    types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    for key in rc:
        if key not in types:
            raise ValueError(f"field 'run_config.{key}' is not a run config field")
    run_config = RunConfig(**{key: _typed(rc, key, kind, "run_config")
                              for key, kind in types.items()})
    try:  # the objects train builds from a run config
        run_config.train_config()
        run_config.init_scheme()
    except (ValueError, UsageError) as e:
        raise ValueError(f"field 'run_config': {e}") from None
    # The run config's copies agree with the model's (a max_len of 0 means
    # the split's length), and its seed with the top level's, if it holds one.
    for key, (section, name) in TWICE_STORED:
        said, value = rc[key], doc[section][name]
        if said != value and not (key == "max_len" and said == 0):
            raise ValueError(f"field 'run_config.{key}' is {json.dumps(said)}, "
                             f"but the model's {key} is {json.dumps(value)}")
    if "seed" in doc and _typed(doc, "seed", "int") != rc["seed"]:
        raise ValueError(f"field 'seed' is {doc['seed']}, but field 'run_config.seed' "
                         f"is {rc['seed']}")
    classes = None
    if version == CHECKPOINT_VERSION:
        classes = _typed(doc, "classes", None)
        if type(classes) is not list or not all(type(c) in _JSON_TYPES["float"] for c in classes):
            raise ValueError("field 'classes' must be a list of numbers")
        try:
            classes = np.asarray(classes, dtype=DTYPE)
        except OverflowError:
            raise ValueError("field 'classes' holds an integer too large for a float") from None
        if classes.shape != (model.num_classes,) or not np.all(np.diff(classes) > 0):
            raise ValueError(f"field 'classes' must be {model.num_classes} increasing labels")
    return model, run_config, doc.get("metrics"), classes


def resolve_dataset(name_or_dir: str, data_root: str) -> tuple:
    """Find the train/test split files for a dataset name or directory.

    Accepts a directory containing ``*_TRAIN*``/``*_TEST*`` files, or a
    dataset name resolved (case-insensitively) under ``data_root`` and
    ``data_root/UCRArchive_2018``.
    """
    candidates = []
    p = Path(name_or_dir)
    if p.is_dir():
        candidates.append(p)
    else:
        for root in (Path(data_root), Path(data_root) / "UCRArchive_2018"):
            if root.is_dir():
                for child in sorted(root.iterdir()):
                    if child.is_dir() and child.name.lower() == name_or_dir.lower():
                        candidates.append(child)
    for d in candidates:
        train = sorted(d.glob("*_TRAIN*"))
        test = sorted(d.glob("*_TEST*"))
        if train:
            return str(train[0]), str(test[0]) if test else ""
    raise UsageError(
        f"could not resolve dataset {name_or_dir!r}: no directory with "
        f"*_TRAIN* files under {data_root!r} (or the given path)"
    )


def _load_split(path: str, run_config: RunConfig, horizon: int = 0,
                classes=None) -> DataSet:
    """Load a split, mapping its labels through ``classes`` when given and
    padding it to ``horizon`` when nonzero; a bad file is a usage error."""
    if not path:
        raise UsageError("no dataset path given")
    if not Path(path).is_file():
        raise UsageError(f"dataset file not found: {path}")
    try:
        ds = load_ucr(path, znorm=run_config.znorm, classes=classes)
    except ValueError as e:
        raise UsageError(f"{path}: {e}") from None
    if horizon and ds.horizon != horizon:
        ds = pad_dataset(ds, horizon)
    return ds


def _split_for(model: Model, path: str, run_config: RunConfig, classes) -> DataSet:
    """A split to score with ``model``; under a format-1 checkpoint (no
    ``classes``) it may hold more labels than the model has classes."""
    ds = _load_split(path, run_config, model.encoder.max_len, classes)
    _check_channels(ds, path, model.encoder.input_dim, "the checkpoint's model reads")
    if ds.num_classes > model.num_classes:
        raise UsageError(f"{path}: the split has {ds.num_classes} labels, but the "
                         f"checkpoint has only {model.num_classes} classes")
    return ds


def _check_channels(ds: DataSet, path: str, want: int, whose: str) -> None:
    if ds.feature_dim != want:
        raise UsageError(f"{path}: the split has {ds.feature_dim} channels, but {whose} {want}")


def _apply_env_seed(rc: RunConfig) -> RunConfig:
    env = os.environ.get("NV_SEED")
    if env is None:
        return rc
    try:
        seed = int(env)
    except ValueError:
        raise UsageError(f"NV_SEED must be an integer, got {env!r}") from None
    return dataclasses.replace(rc, seed=seed)


def _check_out(path, kind: str = "directory") -> None:
    """Reject an output path that cannot be written, before any work is
    done: one that names an existing entry of the other kind (file or
    directory), or one below an existing file."""
    path = Path(path)
    if path.exists() and path.is_dir() != (kind == "directory"):
        other = "file" if kind == "directory" else "directory"
        raise UsageError(f"output {kind} {path} is an existing {other}")
    for parent in path.parents:
        if parent.exists():
            if not parent.is_dir():
                raise UsageError(f"output {kind} {path}: {parent} is a file")
            return


def _config_from_args(args) -> RunConfig:
    rc = RunConfig.load(args.config) if args.config else RunConfig()
    overrides = {}
    for f in dataclasses.fields(RunConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            overrides[f.name] = v
    if args.dataset:
        train, test = resolve_dataset(args.dataset, args.data_root)
        overrides["train_path"] = train
        overrides["test_path"] = test
    rc = dataclasses.replace(rc, **overrides)
    _check_out(rc.output_dir)
    return _apply_env_seed(rc)


def _train_once(rc: RunConfig):
    # Config and both splits are checked before training, so a bad value
    # or file costs no epochs; a value the library rejects is a config error.
    try:
        train_config = rc.train_config()
        train_ds = _load_split(rc.train_path, rc, rc.max_len)
        test_ds = None
        if rc.test_path:
            test_ds = _load_split(rc.test_path, rc, train_ds.horizon, train_ds.classes)
            _check_channels(test_ds, rc.test_path, train_ds.feature_dim,
                            "the training split has")
        encoder = rc.encoder(train_ds.feature_dim, train_ds.horizon)
    except ValueError as e:
        raise UsageError(str(e)) from None
    model, history = fit(
        train_ds, train_config, encoder, rc.head_kind(),
        rc.init_scheme(), rc.mean_pool,
    )
    train_report = evaluate(model, train_ds)
    test_report = None if test_ds is None else evaluate(model, test_ds)
    return model, history, train_report, test_report, train_ds.classes


def _write_run_outputs(rc: RunConfig, model, history, train_report, test_report,
                       classes):
    out = Path(rc.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rc.save(out / "run_config.txt")
    save_history_csv(history, out / "history.csv")
    metrics = {"train_accuracy": train_report.overall_accuracy}
    if test_report is not None:
        metrics["test_accuracy"] = test_report.overall_accuracy
    ckpt = out / "checkpoint.json"
    save_checkpoint(ckpt, model, rc, metrics=metrics, classes=classes)
    return ckpt, metrics


def cmd_train(args) -> int:
    rc = _config_from_args(args)
    if not rc.train_path:
        raise UsageError("a training dataset is required (--dataset or --train-path)")
    ckpt, metrics = _write_run_outputs(rc, *_train_once(rc))
    print(f"checkpoint: {ckpt}")
    print(f"train accuracy: {metrics['train_accuracy']:.4f}")
    if "test_accuracy" in metrics:
        print(f"test accuracy: {metrics['test_accuracy']:.4f}")
    return 0


def cmd_sweep(args) -> int:
    rc = _config_from_args(args)
    if not rc.train_path:
        raise UsageError("a training dataset is required (--dataset or --train-path)")
    sizes = args.sizes
    if len(sizes) != len(set(sizes)):
        raise UsageError(f"duplicate hidden sizes in sweep: {sizes}")
    if not rc.test_path:
        raise UsageError("sweep selection needs a test split")
    rows = []
    best = None
    out = Path(rc.output_dir)
    for size in sizes:
        sub = dataclasses.replace(
            rc, hidden_dim=size, output_dir=str(out / f"hidden{size}")
        )
        ckpt, metrics = _write_run_outputs(sub, *_train_once(sub))
        acc = metrics["test_accuracy"]
        rows.append((size, acc))
        if best is None or acc > best[1] or (acc == best[1] and size < best[0]):
            best = (size, acc, ckpt)
    out.mkdir(parents=True, exist_ok=True)
    table = ["size\ttest_accuracy"] + [f"{s}\t{a:.6f}" for s, a in rows]
    (out / "sweep.tsv").write_text("\n".join(table) + "\n")
    print("\n".join(table))
    best_path = out / "best_checkpoint.json"
    best_path.write_bytes(Path(best[2]).read_bytes())
    print(f"best: hidden={best[0]} test_accuracy={best[1]:.4f} -> {best_path}")
    return 0


def _print_report(report: EvalReport) -> None:
    print(f"overall accuracy: {report.overall_accuracy:.4f}")
    for i, acc in enumerate(report.per_class_accuracy):
        text = "n/a" if np.isnan(acc) else f"{acc:.4f}"
        print(f"class {i} accuracy: {text}")


def cmd_evaluate(args) -> int:
    model, rc, _, class_labels = load_checkpoint(args.checkpoint)
    report = evaluate(model, _split_for(model, args.dataset_path, rc, class_labels))
    _print_report(report)
    return 0


def _parse_classes(spec: str, num_classes: int) -> List[int]:
    if spec == "all":
        return list(range(num_classes))
    try:
        classes = [int(c) for c in spec.split(",") if c.strip() != ""]
    except ValueError:
        raise UsageError(f"bad class list {spec!r}") from None
    if not classes:
        raise UsageError(f"--classes names no class: {spec!r}")
    for c in classes:
        if not 0 <= c < num_classes:
            raise UsageError(f"class {c} outside [0, {num_classes})")
    if len(set(classes)) != len(classes):
        raise UsageError(f"duplicate class ids in --classes: {spec}")
    return classes


def _nv_checkpoint(args, class_spec: str):
    """``args.checkpoint``, which must have the nv head, with the class ids
    of ``class_spec`` and ``args.k_list`` checked against it before any
    split is read; returns ``(model, run_config, labels, classes)``."""
    model, rc, _, labels = load_checkpoint(args.checkpoint)
    if model.head_kind is not HeadKind.NEUROVIEW:
        raise UsageError(
            f"this checkpoint uses the {model.head_kind.value!r} head; "
            "weight inspection and counterfactuals need the per-timestep "
            "'nv' head, whose classifier has one weight block per timestep"
        )
    classes = _parse_classes(class_spec, model.num_classes)
    horizon = model.encoder.max_len
    for k in args.k_list:
        if not 0 <= k <= horizon:
            raise UsageError(f"k={k} outside [0, {horizon}] for this model")
    if len(set(args.k_list)) != len(args.k_list):
        raise UsageError(f"duplicate values in --k-list: {' '.join(map(str, args.k_list))}")
    return model, rc, labels, classes


def _sweep(args, model: Model, rc: RunConfig, labels, classes: List[int],
           target: interpret.AblationTarget) -> list:
    """The counterfactual rows of ``classes`` x ``args.k_list`` on the split
    ``args.dataset_path``."""
    ds = _split_for(model, args.dataset_path, rc, labels)
    mode = interpret.AblationMode(args.mode)
    return interpret.sweep(model, ds, [(c, k, mode, target) for c in classes
                                       for k in args.k_list])


def cmd_counterfactual(args) -> int:
    if args.out:
        _check_out(args.out, "file")
    model, rc, labels, classes = _nv_checkpoint(args, str(args.class_index))
    results = _sweep(args, model, rc, labels, classes, interpret.AblationTarget(args.target))
    text = json.dumps(interpret.counterfactual_rows(results), indent=2)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_export(args) -> int:
    """Weight maps and class similarity, plus a counterfactual sweep when a
    dataset and a k list are given (``inspect`` is the case without)."""
    if bool(args.dataset_path) != bool(args.k_list):
        raise UsageError("--dataset-path and --k-list go together: give both "
                         "for a counterfactual sweep, or neither")
    _check_out(args.out)
    model, rc, labels, classes = _nv_checkpoint(args, args.classes)
    results = []
    if args.dataset_path:
        results = _sweep(args, model, rc, labels, classes, interpret.AblationTarget.INPUTS)
    files = interpret.export_report(model, classes, results, args.out)
    for c in classes:
        top = interpret.rank_timesteps(model, c, interpret.AblationMode.TOP_POSITIVE)
        steps = ", ".join(str(int(t)) for t in top[:5])
        print(f"class {c}: top-5 timesteps by mean weight: {steps}")
    print(f"wrote {len(files)} files to {args.out}")
    return 0


def _add_config_flags(sp) -> None:
    sp.add_argument("--config", help="run-config file to start from")
    sp.add_argument("--dataset", help="dataset name or directory with *_TRAIN*/*_TEST* files")
    sp.add_argument("--data-root", default="data", help="root for dataset-name lookup")
    sp.add_argument("--train-path", dest="train_path", help="explicit training split file")
    sp.add_argument("--test-path", dest="test_path", help="explicit test split file")
    sp.add_argument("--cell", choices=[c.value for c in CellKind])
    sp.add_argument("--head", choices=[h.value for h in HeadKind])
    sp.add_argument("--hidden", dest="hidden_dim", type=int)
    sp.add_argument("--layers", type=int)
    sp.add_argument("--bidirectional", action="store_const", const=True, default=None)
    sp.add_argument("--max-len", dest="max_len", type=int)
    sp.add_argument("--mean-pool", dest="mean_pool", action="store_const",
                    const=True, default=None)
    sp.add_argument("--znorm", action="store_const", const=True, default=None)
    sp.add_argument("--init", choices=[i.value for i in InitKind])
    sp.add_argument("--lr", dest="learning_rate", type=float)
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--batch-size", dest="batch_size", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--grad-clip", dest="grad_clip", type=float)
    sp.add_argument("--out", dest="output_dir", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neuroview",
        description="Train, evaluate, and inspect recurrent sequence "
                    "classifiers with a per-timestep linear readout.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("train", help="train one model and write a checkpoint")
    _add_config_flags(sp)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("sweep", help="train across hidden sizes, keep the best")
    _add_config_flags(sp)
    sp.add_argument("--sizes", type=int, nargs="+", default=[32, 64, 128],
                    help="hidden sizes to sweep")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("evaluate", help="evaluate a checkpoint on a split")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--dataset-path", dest="dataset_path", required=True,
                    help="split file to evaluate")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("inspect", help="export weight maps and class similarity")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--classes", default="all", help="'all' or comma list of class ids")
    sp.add_argument("--out", default="analysis", help="output directory")
    sp.set_defaults(func=cmd_export, dataset_path=None, k_list=[])

    sp = sub.add_parser("counterfactual",
                        help="zero a class's top-K timesteps and re-evaluate")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--dataset-path", dest="dataset_path", required=True)
    sp.add_argument("--class", dest="class_index", type=int, required=True)
    sp.add_argument("--k-list", dest="k_list", type=int, nargs="+", required=True)
    sp.add_argument("--mode", default="top-positive",
                    choices=[m.value for m in interpret.AblationMode])
    sp.add_argument("--target", default="inputs",
                    choices=[t.value for t in interpret.AblationTarget])
    sp.add_argument("--out", help="write the JSON table here instead of stdout")
    sp.set_defaults(func=cmd_counterfactual)

    sp = sub.add_parser("export",
                        help="export the full analysis bundle for a checkpoint")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--classes", default="all")
    sp.add_argument("--dataset-path", dest="dataset_path",
                    help="needed for counterfactual rows")
    sp.add_argument("--k-list", dest="k_list", type=int, nargs="*", default=[])
    sp.add_argument("--mode", default="top-positive",
                    choices=[m.value for m in interpret.AblationMode])
    sp.add_argument("--out", default="analysis", help="output directory")
    sp.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TrainingDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (MemoryError, RecursionError) as e:
        what = "out of memory" if isinstance(e, MemoryError) else "recursion too deep"
        print(f"error: {what}: {e}" if str(e) else f"error: {what}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
