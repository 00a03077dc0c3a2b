"""Loss, optimizer, training loop, and evaluation metrics.

Training is deterministic for a fixed seed: epoch shuffling uses one
seeded generator, batches keep sample order within the shuffled
permutation, and gradient accumulation happens in fixed index order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .linalg import DTYPE
from .cells import InitScheme, init_params
from .network import (
    EncoderConfig,
    HeadKind,
    Model,
    head_forward,
    encode,
    init_head,
    network_backward,
)
from .data import DataSet


class TrainingDiverged(RuntimeError):
    """Raised when the training loss or gradient stops being finite."""

    def __init__(self, epoch: int, quantity: str = "loss"):
        super().__init__(f"training diverged: non-finite {quantity} at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    epochs: int = 1000
    batch_size: Optional[int] = None  # None = full batch
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    grad_clip: Optional[float] = None  # optional global max-norm

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class AdamState:
    step: int
    m: dict
    v: dict

    @classmethod
    def init(cls, tree: dict) -> "AdamState":
        return cls(
            0,
            {k: np.zeros_like(a) for k, a in tree.items()},
            {k: np.zeros_like(a) for k, a in tree.items()},
        )


@dataclass
class EvalReport:
    overall_accuracy: float
    per_class_accuracy: np.ndarray  # (d,), NaN for classes absent from the data
    confusion: np.ndarray  # (d, d) counts, rows = true class


def softmax_xent(logits: np.ndarray, label):
    """Cross-entropy of a softmax over class scores, plus its gradient.

    Single sample: ``logits (d,)`` and an integer label give
    ``(loss, grad (d,))``. Batch: ``logits (B, d)`` and an integer array
    give the mean loss and the mean-reduced gradient ``(B, d)``.
    Computed via max-shifted log-sum-exp, so huge scores do not overflow.
    """
    logits = np.asarray(logits, dtype=DTYPE)
    if logits.ndim == 1:
        d = logits.shape[0]
        label = int(label)
        if not 0 <= label < d:
            raise ValueError(f"label {label} outside [0, {d})")
        shift = logits - logits.max()
        lse = np.log(np.exp(shift).sum())
        loss = float(lse - shift[label])
        grad = np.exp(shift - lse)
        grad[label] -= 1.0
        return loss, grad
    if logits.ndim == 2:
        B, d = logits.shape
        labels = np.asarray(label, dtype=np.int64)
        if labels.shape != (B,):
            raise ValueError(f"labels shape {labels.shape} != ({B},)")
        if labels.min() < 0 or labels.max() >= d:
            raise ValueError(f"labels outside [0, {d})")
        shift = logits - logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shift).sum(axis=1, keepdims=True))
        logp = shift - lse
        loss = float(-logp[np.arange(B), labels].mean())
        grad = np.exp(logp)
        grad[np.arange(B), labels] -= 1.0
        return loss, grad / B
    raise ValueError(f"logits must be 1-D or 2-D, got shape {logits.shape}")


def adam_step(tree: dict, grads: dict, state: AdamState, cfg: TrainConfig):
    """One optimizer update with bias correction.

    ``tree`` and ``grads`` are name -> array maps with matching shapes.
    Returns new ``(tree, state)``; inputs are not mutated.
    """
    if set(tree) != set(grads):
        raise ValueError(
            f"parameter/gradient key mismatch: {sorted(set(tree) ^ set(grads))}"
        )
    t = state.step + 1
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    new_tree, new_m, new_v = {}, {}, {}
    for k in tree:
        g = grads[k]
        if g.shape != tree[k].shape:
            raise ValueError(
                f"gradient shape mismatch for {k!r}: {g.shape} vs {tree[k].shape}"
            )
        m = cfg.beta1 * state.m[k] + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * state.v[k] + (1.0 - cfg.beta2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        new_tree[k] = tree[k] - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
        new_m[k] = m
        new_v[k] = v
    return new_tree, AdamState(t, new_m, new_v)


def param_tree(model: Model) -> dict:
    """Flatten a model's parameters into a name -> array map."""
    tree = {}
    for i, p in enumerate(model.cells):
        for name, arr in p.arrays.items():
            tree[f"cell{i}.{name}"] = arr
    tree["head.V"] = model.head.V
    return tree


def grad_tree(model: Model, grad_V: np.ndarray, cell_grads: list) -> dict:
    tree = {}
    for i, grads in enumerate(cell_grads):
        for name, arr in grads.items():
            tree[f"cell{i}.{name}"] = arr
    tree["head.V"] = grad_V
    return tree


def set_param_tree(model: Model, tree: dict) -> None:
    for i, p in enumerate(model.cells):
        for name in p.arrays:
            p.arrays[name] = tree[f"cell{i}.{name}"]
    model.head.V = tree["head.V"]


def _global_norm(grads: dict) -> float:
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))


def _clip_tree(grads: dict, total: float, max_norm: float) -> dict:
    """Scale ``grads`` (whose global norm is ``total``) down to ``max_norm``."""
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return {k: g * scale for k, g in grads.items()}


def build_model(encoder: EncoderConfig, head_kind: HeadKind, num_classes: int,
                init: InitScheme, mean_pool: bool = False) -> Model:
    """Fresh model under an initialization scheme.

    Cell ``i`` draws from seed ``init.seed + i``; the head matrix from
    ``init.seed + 10007`` with the uniform fan-in rule.
    """
    cells = []
    for i in range(encoder.num_cells()):
        layer = i // encoder.directions
        in_dim = encoder.input_dim if layer == 0 else encoder.step_width
        cells.append(
            init_params(
                encoder.cell, in_dim, encoder.hidden_dim,
                InitScheme(init.kind, init.seed + i),
            )
        )
    head = init_head(encoder, head_kind, num_classes, init.seed + 10007, mean_pool)
    return Model(encoder, cells, head)


def fit(dataset: DataSet, cfg: TrainConfig, encoder: EncoderConfig,
        head_kind: HeadKind, init: InitScheme,
        mean_pool: bool = False) -> Tuple[Model, List[tuple]]:
    """Train a fresh model; returns it plus per-epoch history rows
    ``(epoch, mean_loss, train_acc)``.

    The dataset must already be padded to the encoder horizon
    (``dataset.horizon == encoder.max_len``). ``epochs=0`` returns the
    initialized model untouched.
    """
    if len(dataset) == 0:
        raise ValueError("cannot fit on an empty dataset")
    if dataset.horizon != encoder.max_len:
        raise ValueError(
            f"dataset horizon {dataset.horizon} != encoder horizon "
            f"{encoder.max_len}; pad_dataset first"
        )
    if dataset.feature_dim != encoder.input_dim:
        raise ValueError(
            f"dataset feature_dim {dataset.feature_dim} != encoder input_dim "
            f"{encoder.input_dim}"
        )
    model = build_model(encoder, head_kind, dataset.num_classes, init, mean_pool)
    history: List[tuple] = []
    if cfg.epochs == 0:
        return model, history

    X = dataset.features()
    y = dataset.labels()
    B = len(dataset)
    batch = B if cfg.batch_size is None else min(cfg.batch_size, B)
    rng = np.random.default_rng(cfg.seed)
    tree = param_tree(model)
    state = AdamState.init(tree)

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(B)
        losses, hits, seen = [], 0, 0
        for start in range(0, B, batch):
            idx = order[start:start + batch]
            trace = encode(model.encoder, model.cells, X[idx])
            logits = head_forward(model.head, trace, model.encoder)
            loss, grad_logits = softmax_xent(logits, y[idx])
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch)
            grad_V, cell_grads = network_backward(
                model.encoder, model.cells, model.head, trace, grad_logits
            )
            grads = grad_tree(model, grad_V, cell_grads)
            norm = _global_norm(grads)
            if not np.isfinite(norm):
                raise TrainingDiverged(epoch, "gradient")
            if cfg.grad_clip is not None:
                grads = _clip_tree(grads, norm, cfg.grad_clip)
            tree, state = adam_step(tree, grads, state, cfg)
            set_param_tree(model, tree)
            losses.append(loss * len(idx))
            hits += int((np.argmax(logits, axis=1) == y[idx]).sum())
            seen += len(idx)
        history.append((epoch, sum(losses) / seen, hits / seen))
    return model, history


def eval_report(logits: np.ndarray, labels: np.ndarray, num_classes: int) -> EvalReport:
    """Accuracy metrics from ``(B, d)`` class scores; confusion rows index
    true labels."""
    conf = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(conf, (labels, np.argmax(logits, axis=1)), 1)
    total = conf.sum()
    overall = float(np.trace(conf) / total) if total else float("nan")
    row = conf.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        per_class = np.where(row > 0, np.diag(conf) / row, np.nan)
    return EvalReport(overall, per_class, conf)


def evaluate(model: Model, dataset: DataSet) -> EvalReport:
    """Accuracy metrics of a model over a dataset (NaN when it is empty)."""
    logits, _ = model.forward(dataset.features())
    return eval_report(logits, dataset.labels(), model.num_classes)


def save_history_csv(history: List[tuple], path) -> None:
    """Write per-epoch training history as CSV (epoch, mean_loss, train_acc)."""
    with open(Path(path), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "mean_loss", "train_acc"])
        for epoch, loss, acc in history:
            w.writerow([epoch, repr(loss), repr(acc)])
