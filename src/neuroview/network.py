"""Sequence encoders and classifier heads.

An encoder unrolls one or more recurrence cells over a fixed horizon of T
timesteps (optionally bidirectional and/or stacked) and retains every
hidden state. Three heads turn the retained states into class scores:

* ``LAST_STATE``    -- linear map of the final timestep's hidden state.
* ``AVERAGE_POOL``  -- linear map of the sum of all timesteps' hidden
                       states (optionally divided by T via ``mean_pool``).
* ``NEUROVIEW``     -- every timestep's hidden state is rectified
                       (``ReLU``), all of them are concatenated into one
                       long feature vector Q, and a single global matrix V
                       maps Q to class scores. Each timestep then owns an
                       additive share of every class score, which is what
                       the interpretability tooling reads off.

Feature vector layout (also the column layout of the NeuroView ``V``):
layer-major, then timestep, then direction, then hidden unit::

    column((layer, t, direction, unit)) =
        ((layer * T + t) * n_directions + direction) * hidden_dim + unit

For the NeuroView head, hidden states of *all* layers feed the classifier,
so its width is ``layers * T * n_directions * hidden_dim``. The baseline
heads read only the top layer (width ``n_directions * hidden_dim``); for
bidirectional encoders the per-timestep state is the concatenation
``[forward, reverse]``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .linalg import DTYPE, Buffered, scratch
from .cells import CellKind, CellParams, sequence_backward, sequence_forward


class HeadKind(enum.Enum):
    LAST_STATE = "last"
    AVERAGE_POOL = "avg"
    NEUROVIEW = "nv"


@dataclass(frozen=True)
class EncoderConfig:
    cell: CellKind
    input_dim: int
    hidden_dim: int
    max_len: int
    layers: int = 1
    bidirectional: bool = False

    def __post_init__(self):
        if self.input_dim < 1 or self.hidden_dim < 1:
            raise ValueError(f"dimensions must be >= 1, got input_dim={self.input_dim}, "
                             f"hidden_dim={self.hidden_dim}")
        if self.layers < 1:
            raise ValueError(f"layers must be >= 1, got {self.layers}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")

    @property
    def directions(self) -> int:
        return 2 if self.bidirectional else 1

    @property
    def step_width(self) -> int:
        """Per-timestep feature width of one layer's output."""
        return self.hidden_dim * self.directions

    def head_width(self, kind: HeadKind) -> int:
        if kind is HeadKind.NEUROVIEW:
            return self.layers * self.max_len * self.step_width
        return self.step_width

    def num_cells(self) -> int:
        return self.layers * self.directions

    def cell_input_dim(self, i: int) -> int:
        """Input width of cell ``i`` (cells are ordered layer-major)."""
        return self.input_dim if i < self.directions else self.step_width


@dataclass
class HeadParams:
    kind: HeadKind
    V: np.ndarray  # (num_classes, width)
    mean_pool: bool = False

    def __post_init__(self):
        self.V = np.asarray(self.V, dtype=DTYPE)
        if self.V.ndim != 2:
            raise ValueError(f"head matrix must be 2-D, got shape {self.V.shape}")
        if not np.all(np.isfinite(self.V)):
            raise ValueError("head matrix contains non-finite entries")

    @property
    def num_classes(self) -> int:
        return self.V.shape[0]


@dataclass
class ForwardTrace(Buffered):
    """Everything one forward pass retains.

    ``hidden[layer]`` has shape (T, B, step_width); forward-direction units
    occupy ``[:, :, :hidden_dim]`` and reverse-direction units the rest.
    ``gate_traces[layer]`` is the ``SequenceTrace`` of that layer, whose
    one time loop ran both directions: preallocated per-timestep arrays of
    the input each direction consumed, its hidden outputs, its packed
    activated gates and its per-kind auxiliary state, with the reverse
    direction in processing order (index i is time T-1-i).
    NeuroView-only fields (``q``, ``logits``, ``step_logits``) are filled
    by ``head_forward``.

    A forward-only pass (``encode(..., gates=False)``, ``gates`` False
    here) keeps what the head and a resumed pass read and no more: its
    layers' traces hold no gates and, but for an lstm's cell states, no
    ``aux`` (the kernel ran them through a buffer of ``cells.CHUNK``
    steps), the head fills no ``step_logits``, and ``network_backward``
    rejects it. Its logits, ``hidden`` and ``q`` are bit-identical to a
    full pass's.

    A pass ``encode`` resumed at step ``t0 > 0`` from the trace ``base``
    holds hidden states and gate traces for steps ``t0..T-1`` only; the
    NeuroView head reads the earlier steps' ``q`` from ``base``, and the
    other heads reject such a trace. ``buffers`` holds the
    arrays behind ``q`` and ``step_logits`` and ``network_backward``'s
    work arrays; a trace built with this one as ``out`` shares them.
    """

    hidden: List[np.ndarray]
    gate_traces: list
    t0: int = 0
    base: Optional["ForwardTrace"] = field(default=None, repr=False)
    gates: bool = True
    q: Optional[np.ndarray] = None
    logits: Optional[np.ndarray] = None
    step_logits: Optional[np.ndarray] = None  # (layers, T, B, d)
    buffers: dict = field(default_factory=dict, repr=False)


def _check_cells(cfg: EncoderConfig, cells: List[CellParams]):
    if len(cells) != cfg.num_cells():
        raise ValueError(
            f"encoder needs {cfg.num_cells()} cells "
            f"({cfg.layers} layers x {cfg.directions} directions), got {len(cells)}"
        )
    for idx, p in enumerate(cells):
        want_in = cfg.cell_input_dim(idx)
        if p.kind is not cfg.cell:
            raise ValueError(f"cell {idx}: kind {p.kind.value!r} != config {cfg.cell.value!r}")
        if p.hidden_dim != cfg.hidden_dim or p.input_dim != want_in:
            raise ValueError(
                f"cell {idx}: dims ({p.input_dim}, {p.hidden_dim}) do not match "
                f"config ({want_in}, {cfg.hidden_dim})"
            )


def _as_time_major(cfg: EncoderConfig, x) -> np.ndarray:
    """A (B, T, m) batch as a (T, B, m) view."""
    feats = np.asarray(x, dtype=DTYPE)
    if feats.ndim != 3 or feats.shape[1:] != (cfg.max_len, cfg.input_dim):
        raise ValueError(f"expected a batch of shape (B, {cfg.max_len}, {cfg.input_dim}), "
                         f"got {feats.shape}")
    return feats.transpose(1, 0, 2)


def encode(cfg: EncoderConfig, cells: List[CellParams], x,
           resume: Optional[tuple] = None,
           out: Optional[ForwardTrace] = None, gates: bool = True) -> ForwardTrace:
    """Unroll the encoder over a batch of sequences.

    ``x`` is a (B, T, m) batch, one sequence being a batch of one,
    already padded/truncated to exactly ``cfg.max_len`` steps. Cells are
    ordered layer-major with the forward direction first:
    ``[l0_fwd, l0_rev, l1_fwd, l1_rev, ...]``.

    ``resume=(base, t0)`` computes only steps ``t0..T-1`` of a
    unidirectional encoder, for an input that equals ``base``'s before
    step ``t0``: every layer runs on from ``base``'s state at ``t0 - 1``
    (an lstm reads its cell state from ``base``'s gate traces' ``aux``),
    and the trace keeps steps ``t0..`` only. Its NeuroView scores are
    bit-identical to a full pass's; such a trace serves the forward pass
    of the NeuroView head only, not the other heads or
    ``network_backward``.

    ``gates=False`` makes a forward-only pass (see ``ForwardTrace``), for
    when no ``network_backward`` follows.

    ``out``, an earlier trace of the same encoder (and never ``base``),
    lends its arrays: each one of the right shape is overwritten instead
    of allocated, so a batch of another size gets fresh ones. The result
    is bit-identical to a fresh pass, and ``out`` must not be read
    afterwards.
    """
    _check_cells(cfg, cells)
    X = _as_time_major(cfg, x)
    base, t0 = resume or (None, 0)
    if t0 and cfg.bidirectional:
        raise ValueError("only a unidirectional encoder can resume mid-sequence")

    hidden: List[np.ndarray] = []
    gate_traces = []
    X = X[t0:]
    D, n = cfg.directions, cfg.hidden_dim
    for layer in range(cfg.layers):
        state = {}
        if t0:
            state["h0"] = base.hidden[layer][t0 - 1][None]
            if cfg.cell is CellKind.LSTM:
                state["c0"] = base.gate_traces[layer].aux[t0 - 1].transpose(1, 2, 0)
        trace = sequence_forward(cells[layer * D:(layer + 1) * D], X,
                                 out=out and out.gate_traces[layer], gates=gates,
                                 **state)
        if D == 1:
            X = trace.h[:, 0]
        else:
            # The reverse direction's states, stored in processing order,
            # go back to time order.
            X = scratch(out and out.hidden[layer], X.shape[:2] + (cfg.step_width,))
            X[..., :n] = trace.h[:, 0]
            X[..., n:] = trace.h[::-1, 1]
        hidden.append(X)
        gate_traces.append(trace)

    return ForwardTrace(hidden, gate_traces, t0, base, gates,
                        buffers={} if out is None else out.buffers)


def head_forward(head: HeadParams, trace: ForwardTrace,
                 cfg: EncoderConfig) -> np.ndarray:
    """(B, d) class scores for a forward trace; fills the trace's NeuroView
    fields."""
    width = cfg.head_width(head.kind)
    if head.V.shape[1] != width:
        raise ValueError(
            f"head width mismatch: V has {head.V.shape[1]} columns, "
            f"encoder produces {width} features for {head.kind.value!r}"
        )
    top = trace.hidden[-1]
    T = cfg.max_len
    B = top.shape[1]
    d = head.num_classes
    t0 = trace.t0
    if t0 and head.kind is not HeadKind.NEUROVIEW:
        raise ValueError("only the nv head reads a resumed trace")

    if head.kind is HeadKind.LAST_STATE:
        logits = top[T - 1] @ head.V.T
    elif head.kind is HeadKind.AVERAGE_POOL:
        pooled = top.sum(axis=0)
        if head.mean_pool:
            pooled = pooled / T
        logits = pooled @ head.V.T
    elif head.kind is HeadKind.NEUROVIEW:
        # q is every retained hidden state, rectified, laid out (B, L, T,
        # sw); a resumed pass takes the steps before t0 from its base.
        shape = (cfg.layers, T, cfg.step_width)
        q = trace.buffer("q", (B, *shape))
        if t0:
            if trace.base.q is None:
                raise ValueError("a resumed pass reads its base trace's q, which is gone")
            q[:, :, :t0] = trace.base.q.reshape(q.shape)[:, :, :t0]
        for layer, H in enumerate(trace.hidden):
            np.maximum(H.transpose(1, 0, 2), 0.0, out=q[:, layer, t0:])
        if trace.gates:
            # Every (layer, t) block of q against its block of V, in one
            # matmul: (L, T, B, sw) @ (L, T, sw, d).
            trace.step_logits = np.matmul(
                q.transpose(1, 2, 0, 3), head.V.reshape(d, *shape).transpose(1, 2, 3, 0),
                out=trace.buffer("step_logits", (cfg.layers, T, B, d)))
        q = q.reshape(B, width)
        logits = q @ head.V.T
        trace.q = q
        trace.logits = logits
    else:
        raise ValueError(f"unknown head kind {head.kind!r}")

    return logits


def _carve(cells: List[CellParams], V_shape, buf: Optional[np.ndarray] = None) -> tuple:
    """``(buf, blocks, V)``: a zeroed flat buffer in the model layout
    (fresh unless given) and its views, per cell and for ``V``."""
    shapes = [W.shape for p in cells for W in p.packed] + [V_shape]
    sizes = [int(np.prod(shape)) for shape in shapes]
    buf = np.empty(sum(sizes), dtype=DTYPE) if buf is None else buf
    buf.fill(0.0)
    views = [part.reshape(shape) for part, shape in
             zip(np.split(buf, np.cumsum(sizes[:-1])), shapes)]
    return buf, list(zip(views[:-1:2], views[1:-1:2])), views[-1]


def network_backward(cfg: EncoderConfig, cells: List[CellParams],
                     head: HeadParams, trace: ForwardTrace,
                     grad_logits: np.ndarray, out: Optional[np.ndarray] = None):
    """Backpropagate from class-score gradients through head and encoder.

    Gradients fill one flat buffer laid out like ``Model.params``: ``out``
    when given, else a fresh one. Returns views into it, ``(grad_V,
    cell_grads)``, with ``cell_grads[i]`` the packed ``(dW_i, dW_h)`` blocks
    that mirror ``cells[i].packed``.
    ``grad_logits`` is (B, d); gradients are summed over the batch
    (softmax_xent's mean reduction already carries the 1/B factor).
    """
    _check_cells(cfg, cells)
    gl = np.asarray(grad_logits, dtype=DTYPE)
    T = cfg.max_len
    sw = cfg.step_width
    B = trace.hidden[0].shape[1]
    if gl.shape != (B, head.num_classes):
        raise ValueError(f"grad_logits shape {gl.shape} != "
                         f"(batch {B}, {head.num_classes} classes)")
    if trace.t0 or not trace.gates:
        raise ValueError("a resumed or forward-only trace serves the forward pass only")
    _, grad_blocks, grad_V = _carve(cells, head.V.shape, out)

    # Upstream gradient arriving at each layer's per-timestep output.
    dH = trace.buffer("dH", (cfg.layers, T, B, sw))
    if head.kind is HeadKind.NEUROVIEW:
        if trace.q is None:
            raise ValueError("trace has no NeuroView features; run head_forward first")
        np.matmul(gl.T, trace.q, out=grad_V)
        # (B, d) @ (T, d, sw) per layer gives the (T, B, sw) gradient at q,
        # which the ReLU passes where the hidden state is positive.
        blocks = head.V.reshape(-1, cfg.layers, T, sw).transpose(1, 2, 0, 3)
        positive = trace.buffer("positive", dH.shape, bool)
        for layer in range(cfg.layers):
            np.matmul(gl, blocks[layer], out=dH[layer])
            np.greater(trace.hidden[layer], 0.0, out=positive[layer])
            dH[layer] *= positive[layer]
    else:
        dH.fill(0.0)
        if head.kind is HeadKind.LAST_STATE:
            np.matmul(gl.T, trace.hidden[-1][T - 1], out=grad_V)
            dH[-1][T - 1] += gl @ head.V
        elif head.kind is HeadKind.AVERAGE_POOL:
            scale = 1.0 / T if head.mean_pool else 1.0
            np.multiply(scale, gl.T @ trace.hidden[-1].sum(axis=0), out=grad_V)
            dH[-1] += scale * (gl @ head.V)[None, :, :]
        else:
            raise ValueError(f"unknown head kind {head.kind!r}")

    D = cfg.directions
    for layer in range(cfg.layers - 1, -1, -1):
        # The input gradient of layer l is the upstream gradient of layer l-1.
        dX = dH[layer - 1] if layer > 0 else None
        sequence_backward(cells[layer * D:(layer + 1) * D], trace.gate_traces[layer],
                          dH[layer], dX=dX, grads=grad_blocks[layer * D:(layer + 1) * D])

    return grad_V, grad_blocks


@dataclass
class Model:
    """A trained (or trainable) classifier: encoder cells plus one head.

    Construction copies both into a fresh flat buffer, ``params`` (cell by
    cell ``W_i | b_i``, ``W_h | b_h``, then ``V``), and keeps cells and a
    head whose arrays are views into it; no two models share storage."""

    encoder: EncoderConfig
    cells: List[CellParams]
    head: HeadParams
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_cells(self.encoder, self.cells)
        if self.head.V.shape[1] != self.encoder.head_width(self.head.kind):
            raise ValueError(
                f"head V has {self.head.V.shape[1]} columns, encoder provides "
                f"{self.encoder.head_width(self.head.kind)}"
            )
        self.params, blocks, V = _carve(self.cells, self.head.V.shape)
        self.cells = [CellParams(p.kind, p.input_dim, p.hidden_dim, p.arrays, packed)
                      for p, packed in zip(self.cells, blocks)]
        V[...] = self.head.V
        self.head = HeadParams(self.head.kind, V, self.head.mean_pool)

    @property
    def num_classes(self) -> int:
        return self.head.num_classes

    def forward(self, x, resume: Optional[tuple] = None, gates: bool = True) -> tuple:
        """``(logits, trace)``; ``resume`` and ``gates`` as in ``encode``."""
        trace = encode(self.encoder, self.cells, x, resume, gates=gates)
        logits = head_forward(self.head, trace, self.encoder)
        return logits, trace


def predict(cfg: EncoderConfig, cells: List[CellParams], head: HeadParams, x):
    """(B,) predicted classes and (B, d) raw class scores for a batch.

    Ties break toward the lowest class index. Scores stay un-normalized;
    the softmax only matters inside the training loss and never changes
    the argmax.
    """
    trace = encode(cfg, cells, x, gates=False)
    logits = head_forward(head, trace, cfg)
    return np.argmax(logits, axis=1), logits


def init_head(cfg: EncoderConfig, kind: HeadKind, num_classes: int,
              seed: int, mean_pool: bool = False) -> HeadParams:
    """Uniform fan-in initialization for the classifier matrix."""
    width = cfg.head_width(kind)
    bound = 1.0 / np.sqrt(width)
    rng = np.random.default_rng(seed)
    V = rng.uniform(-bound, bound, size=(num_classes, width))
    return HeadParams(kind, V, mean_pool)
