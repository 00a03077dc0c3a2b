"""Loss, optimizer, training loop, and evaluation metrics.

Training is deterministic for a fixed seed: epoch shuffling uses one
seeded generator, batches keep sample order within the shuffled
permutation, and gradient accumulation happens in fixed index order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
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
    """Raised when the training loss, gradient or parameters stop being
    finite."""

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
        # Each test is written so that NaN fails it.
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")
        if self.grad_clip is not None and not (
                math.isfinite(self.grad_clip) and self.grad_clip > 0):
            raise ValueError(f"grad_clip must be finite and > 0, got {self.grad_clip}")


@dataclass
class AdamState:
    """Step count, flat moments ``m``/``v`` and two scratch arrays, all
    shaped like the parameters and updated in place by ``adam_step``."""

    step: int
    m: np.ndarray
    v: np.ndarray
    work: np.ndarray = field(repr=False)

    @classmethod
    def init(cls, params: np.ndarray) -> "AdamState":
        return cls(0, np.zeros_like(params), np.zeros_like(params),
                   np.empty((2,) + params.shape, dtype=DTYPE))


@dataclass
class EvalReport:
    overall_accuracy: float
    per_class_accuracy: np.ndarray  # (d,), NaN for classes absent from the data
    confusion: np.ndarray  # (d, d) counts, rows = true class


def softmax_xent(logits: np.ndarray, label):
    """Mean cross-entropy of a softmax over ``(B, d)`` class scores with
    ``(B,)`` integer labels, and its mean-reduced ``(B, d)`` gradient.
    Computed via max-shifted log-sum-exp, so huge scores do not overflow.
    """
    logits = np.asarray(logits, dtype=DTYPE)
    if logits.ndim != 2:
        raise ValueError(f"logits must be (B, d), got shape {logits.shape}")
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


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState,
              cfg: TrainConfig) -> None:
    """One bias-corrected optimizer update, in place on ``params`` and on
    ``state``; ``grad`` is only read. Every element goes through the
    operations of ``p - lr * (m / bc1) / (sqrt(v / bc2) + eps)`` in that
    order, so the result matches the out-of-place formula bit for bit.
    An update that overflows raises no numpy warning; it leaves non-finite
    parameters, which ``fit`` checks for.
    """
    if grad.shape != params.shape:
        raise ValueError(f"gradient shape mismatch: {grad.shape} vs {params.shape}")
    state.step += 1
    bc1 = 1.0 - cfg.beta1 ** state.step
    bc2 = 1.0 - cfg.beta2 ** state.step
    m, v, (step, den) = state.m, state.v, state.work
    with np.errstate(over="ignore", invalid="ignore"):
        m *= cfg.beta1
        m += np.multiply(grad, 1.0 - cfg.beta1, out=step)
        v *= cfg.beta2
        np.multiply(grad, 1.0 - cfg.beta2, out=step)
        v += np.multiply(step, grad, out=step)
        np.divide(m, bc1, out=step)
        step *= cfg.learning_rate
        np.sqrt(np.divide(v, bc2, out=den), out=den)
        den += cfg.eps
        params -= np.divide(step, den, out=step)


def param_tree(model: Model) -> dict:
    """A model's parameters as a name -> view map into ``model.params``."""
    tree = {}
    for i, p in enumerate(model.cells):
        for name, arr in p.arrays.items():
            tree[f"cell{i}.{name}"] = arr
    tree["head.V"] = model.head.V
    return tree


def build_model(encoder: EncoderConfig, head_kind: HeadKind, num_classes: int,
                init: InitScheme, mean_pool: bool = False) -> Model:
    """Fresh model under an initialization scheme.

    Cell ``i`` draws from seed ``init.seed + i``; the head matrix from
    ``init.seed + 10007`` with the uniform fan-in rule.
    """
    cells = [init_params(encoder.cell, encoder.cell_input_dim(i), encoder.hidden_dim,
                         InitScheme(init.kind, init.seed + i))
             for i in range(encoder.num_cells())]
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
    grad = np.zeros_like(model.params)
    state = AdamState.init(model.params)
    # Batch size -> the last trace of that size, whose arrays the next
    # step of that size overwrites.
    traces = {}

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(B)
        losses, hits, seen = [], 0, 0
        for start in range(0, B, batch):
            idx = order[start:start + batch]
            trace = traces[len(idx)] = encode(model.encoder, model.cells, X[idx],
                                              out=traces.get(len(idx)))
            logits = head_forward(model.head, trace, model.encoder)
            loss, grad_logits = softmax_xent(logits, y[idx])
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch)
            network_backward(model.encoder, model.cells, model.head, trace,
                             grad_logits, grad)
            norm = float(np.sqrt(grad @ grad))
            if not np.isfinite(norm):
                raise TrainingDiverged(epoch, "gradient")
            if cfg.grad_clip is not None and norm > cfg.grad_clip:
                grad *= cfg.grad_clip / norm
            adam_step(model.params, grad, state, cfg)
            if not np.isfinite(model.params).all():
                raise TrainingDiverged(epoch, "parameters")
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
    logits, _ = model.forward(dataset.features(), gates=False)
    return eval_report(logits, dataset.labels(), model.num_classes)


def save_history_csv(history: List[tuple], path) -> None:
    """Write per-epoch training history as CSV (epoch, mean_loss, train_acc)."""
    with open(Path(path), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "mean_loss", "train_acc"])
        for epoch, loss, acc in history:
            w.writerow([epoch, repr(loss), repr(acc)])
