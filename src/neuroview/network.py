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

A ``Model`` holds its head as three fields: ``head_kind``, the matrix ``V``
(one row per class) and ``mean_pool``.

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
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .linalg import DTYPE, Buffered
from .cells import CellKind, packed_shapes, sequence_backward, sequence_forward


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
        if not isinstance(self.cell, CellKind):
            raise ValueError(f"cell must be a CellKind, got {self.cell!r}")
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

    @property
    def nv_shape(self) -> tuple:
        """One sample's nv features, ``(layers, T, step_width)``: the
        layout of ``q`` and of each class's row of the nv head's ``V``."""
        return self.layers, self.max_len, self.step_width

    def head_width(self, kind: HeadKind) -> int:
        if kind is HeadKind.NEUROVIEW:
            return math.prod(self.nv_shape)
        return self.step_width

    def num_cells(self) -> int:
        return self.layers * self.directions

    def cell_input_dim(self, i: int) -> int:
        """Input width of cell ``i`` (cells are ordered layer-major)."""
        return self.input_dim if i < self.directions else self.step_width


@dataclass
class ForwardTrace(Buffered):
    """Everything one forward pass retains.

    ``gate_traces[layer]`` is the ``SequenceTrace`` of that layer, whose
    one time loop ran both directions (see ``cells``); ``hidden[layer]``
    is its output ``y``, (T, B, step_width) in time order, with the
    forward-direction units in ``[:, :, :hidden_dim]`` and the
    reverse-direction ones after them. NeuroView-only fields (``q``,
    ``step_logits``) are filled by ``head_forward``.

    A forward-only pass (``encode(..., gates=False)``, ``gates`` False
    here) keeps what the head and a resumed pass read and no more: its
    layers' traces hold no inputs and no gates and, but for an lstm's cell
    states, no ``aux`` (the kernel ran them through buffers of
    ``cells.CHUNK`` steps), the head fills no ``step_logits``, and
    ``network_backward`` rejects it. Its logits, ``hidden`` and ``q`` are
    bit-identical to a full pass's.

    ``head_forward`` rectifies the steps from ``t0`` on into ``q``: a pass
    resumed at ``t0`` into a trace whose head filled ``q`` finds the
    earlier steps' features there already. ``buffers`` holds the arrays
    behind ``q`` and ``step_logits`` and ``network_backward``'s work
    arrays; a trace built with this one as ``out`` shares them.
    """

    gate_traces: list
    t0: int = 0
    q: Optional[np.ndarray] = None
    step_logits: Optional[np.ndarray] = None  # (layers, T, B, d)
    buffers: dict = field(default_factory=dict, repr=False)

    @property
    def hidden(self) -> List[np.ndarray]:
        return [tr.y for tr in self.gate_traces]

    @property
    def gates(self) -> bool:
        """False for a forward-only pass."""
        return self.gate_traces[0].gates is not None


def _integer(name: str, value) -> int:
    """``value`` as a plain int; a bool or a non-integer is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_time_major(cfg: EncoderConfig, x) -> np.ndarray:
    """A (B, T, m) batch as a (T, B, m) view."""
    feats = np.asarray(x, dtype=DTYPE)
    if feats.ndim != 3 or feats.shape[1:] != (cfg.max_len, cfg.input_dim):
        raise ValueError(f"expected a batch of shape (B, {cfg.max_len}, {cfg.input_dim}), "
                         f"got {feats.shape}")
    return feats.transpose(1, 0, 2)


def encode(model: Model, x, resume: int = 0, out: Optional[ForwardTrace] = None,
           gates: bool = True) -> ForwardTrace:
    """Unroll a model's encoder over a batch of sequences, one kernel call
    per layer on its stacked weights ``model.layers[l]``, each layer
    reading the output ``y`` of the one below.

    ``x`` is a (B, T, m) batch, one sequence being a batch of one,
    already padded/truncated to exactly ``max_len`` steps.

    ``gates=False`` makes a forward-only pass (see ``ForwardTrace``), for
    when no ``network_backward`` follows.

    ``out``, an earlier trace of the same encoder, lends its arrays: each
    one of the right shape is overwritten instead of allocated, so a batch
    of another size gets fresh ones; a trace of another layer count is
    rejected. The result is bit-identical to a fresh pass, and ``out``
    must not be read afterwards.

    ``resume=t0`` recomputes only steps ``t0..T-1`` of a unidirectional
    encoder, in place: each layer's kernel resumes ``out``'s trace of it
    at ``t0`` (``sequence_forward``'s ``t0``). ``out`` must be a pass of
    this encoder with the same ``gates``, over a batch of the same size
    that equals ``x`` before step ``t0``; the result equals a fresh pass
    over ``x`` in every array.
    """
    cfg = model.encoder
    X = _as_time_major(cfg, x)
    t0 = _integer("resume", resume)
    if not 0 <= t0 < cfg.max_len:
        raise ValueError(f"resume must be in [0, {cfg.max_len}), got {t0}")
    if t0 and cfg.bidirectional:
        raise ValueError("only a unidirectional encoder can resume mid-sequence")
    # The kernels check the rest, at layer 0 before anything is written.
    if out is None and t0 or out is not None and len(out.gate_traces) != cfg.layers:
        raise ValueError("a pass resumes into a trace of the same encoder, batch size and "
                         "gates, and borrows only from a trace of as many layers")

    gate_traces = []
    for layer, weights in enumerate(model.layers):
        trace = sequence_forward(cfg.cell, weights, X, out=out and out.gate_traces[layer],
                                 gates=gates, t0=t0)
        gate_traces.append(trace)
        X = trace.y
    return ForwardTrace(gate_traces, t0 if t0 and out.q is not None else 0,
                        buffers={} if out is None else out.buffers)


def head_forward(model: Model, trace: ForwardTrace) -> np.ndarray:
    """(B, d) class scores for a forward trace of ``model``'s encoder;
    fills the trace's NeuroView fields."""
    cfg, kind, V = model.encoder, model.head_kind, model.V
    top = trace.hidden[-1]
    T = cfg.max_len
    B = top.shape[1]
    d = model.num_classes

    if kind is HeadKind.LAST_STATE:
        logits = top[T - 1] @ V.T
    elif kind is HeadKind.AVERAGE_POOL:
        pooled = top.sum(axis=0)
        if model.mean_pool:
            pooled = pooled / T
        logits = pooled @ V.T
    else:  # NEUROVIEW
        # q is every retained hidden state, rectified, laid out (B, L, T,
        # sw); the steps before t0 are in place already.
        shape = cfg.nv_shape
        q = trace.buffer("q", (B, *shape))
        t0 = trace.t0
        for layer, H in enumerate(trace.hidden):
            np.maximum(H[t0:].transpose(1, 0, 2), 0.0, out=q[:, layer, t0:])
        if trace.gates:
            # Every (layer, t) block of q against its block of V, in one
            # matmul: (L, T, B, sw) @ (L, T, sw, d).
            trace.step_logits = np.matmul(
                q.transpose(1, 2, 0, 3), V.reshape(d, *shape).transpose(1, 2, 3, 0),
                out=trace.buffer("step_logits", (cfg.layers, T, B, d)))
        q = q.reshape(B, V.shape[1])
        logits = q @ V.T
        trace.q = q

    return logits


def _carve(layer_shapes, V_shape, buf: Optional[np.ndarray] = None) -> tuple:
    """``(buf, layers, V)``: a zeroed flat buffer in the model layout
    (fresh unless given) and its reshape views, per layer ``(W_i, W_h)``
    of the given shapes, then ``V``."""
    shapes = [shape for pair in layer_shapes for shape in pair] + [V_shape]
    sizes = [int(np.prod(shape)) for shape in shapes]
    buf = np.empty(sum(sizes), dtype=DTYPE) if buf is None else buf
    buf.fill(0.0)
    views = [part.reshape(shape) for part, shape in
             zip(np.split(buf, np.cumsum(sizes[:-1])), shapes)]
    return buf, list(zip(views[:-1:2], views[1:-1:2])), views[-1]


def network_backward(model: Model, trace: ForwardTrace, grad_logits: np.ndarray,
                     out: Optional[np.ndarray] = None):
    """Backpropagate from class-score gradients through head and encoder.

    Gradients fill one flat buffer laid out like ``model.params``: ``out``
    when given, else a fresh one. Returns views into it, ``(grad_V,
    layer_grads)``, with ``layer_grads[l]`` the stacked ``(dW_i, dW_h)``
    blocks that mirror ``model.layers[l]``.
    ``grad_logits`` is (B, d); gradients are summed over the batch
    (softmax_xent's mean reduction already carries the 1/B factor).
    """
    cfg, kind, V = model.encoder, model.head_kind, model.V
    gl = np.asarray(grad_logits, dtype=DTYPE)
    T = cfg.max_len
    sw = cfg.step_width
    B = trace.hidden[0].shape[1]
    if gl.shape != (B, model.num_classes):
        raise ValueError(f"grad_logits shape {gl.shape} != "
                         f"(batch {B}, {model.num_classes} classes)")
    if not trace.gates:
        raise ValueError("a forward-only trace serves the forward pass only")
    _, grad_layers, grad_V = _carve([(W_i.shape, W_h.shape) for W_i, W_h in model.layers],
                                    V.shape, out)

    # Upstream gradient arriving at each layer's per-timestep output; the
    # nv head's takes over the buffer of q, which it reads first.
    if kind is HeadKind.NEUROVIEW:
        if trace.q is None:
            raise ValueError("trace has no NeuroView features; run head_forward first")
        np.matmul(gl.T, trace.q, out=grad_V)
        dH, trace.q = trace.q.reshape(cfg.layers, T, B, sw), None
        # (B, d) @ (T, d, sw) per layer gives the (T, B, sw) gradient at q,
        # which the ReLU passes where the hidden state is positive.
        blocks = V.reshape(-1, *cfg.nv_shape).transpose(1, 2, 0, 3)
        positive = trace.buffer("positive", dH.shape, bool)
        for layer in range(cfg.layers):
            np.matmul(gl, blocks[layer], out=dH[layer])
            np.greater(trace.hidden[layer], 0.0, out=positive[layer])
            dH[layer] *= positive[layer]
    else:
        dH = trace.buffer("dH", (cfg.layers, T, B, sw))
        dH.fill(0.0)
        if kind is HeadKind.LAST_STATE:
            np.matmul(gl.T, trace.hidden[-1][T - 1], out=grad_V)
            dH[-1][T - 1] += gl @ V
        else:  # AVERAGE_POOL
            scale = 1.0 / T if model.mean_pool else 1.0
            np.multiply(scale, gl.T @ trace.hidden[-1].sum(axis=0), out=grad_V)
            dH[-1] += scale * (gl @ V)[None, :, :]

    for layer in range(cfg.layers - 1, -1, -1):
        # The input gradient of layer l is the upstream gradient of layer l-1.
        dX = dH[layer - 1] if layer > 0 else None
        sequence_backward(cfg.cell, model.layers[layer], trace.gate_traces[layer],
                          dH[layer], dX=dX, grads=grad_layers[layer])

    return grad_V, grad_layers


@dataclass
class Model:
    """A trained (or trainable) classifier: encoder cells plus one head.

    Each cell is a pair of packed blocks ``(W_i | b_i, W_h | b_h)`` (see
    ``cells``). The head is its kind, its matrix ``V`` (num_classes,
    ``encoder.head_width(head_kind)``) and, for the ``AVERAGE_POOL`` head,
    ``mean_pool``. Construction checks the cells' count and block shapes
    and ``V``'s shape and values against the encoder config once and
    copies cells and ``V`` into a fresh flat buffer, ``params``, laid out
    layer by layer: layer l's stacked ``W_i | b_i`` block (D, k*n, m_l+1)
    and ``W_h | b_h`` block (D, k*n, n+1), then ``V``. ``layers[l]`` is
    that ``(W_i, W_h)`` pair, the kernels' weights; cell ``l*D + d``
    becomes the pair of their ``[d]`` slices and ``V`` the tail, all views
    into ``params``, so no two models share storage. Cells are ordered
    layer-major with the forward direction first:
    ``[l0_fwd, l0_rev, l1_fwd, l1_rev, ...]``."""

    encoder: EncoderConfig
    cells: List[tuple]
    head_kind: HeadKind
    V: np.ndarray
    mean_pool: bool = False
    params: np.ndarray = field(init=False, repr=False)
    layers: List[tuple] = field(init=False, repr=False)

    def __post_init__(self):
        cfg = self.encoder
        if not isinstance(self.head_kind, HeadKind):
            raise ValueError(f"head_kind must be a HeadKind, got {self.head_kind!r}")
        if len(self.cells) != cfg.num_cells():
            raise ValueError(
                f"encoder needs {cfg.num_cells()} cells "
                f"({cfg.layers} layers x {cfg.directions} directions), got {len(self.cells)}"
            )
        for idx, cell in enumerate(self.cells):
            m = cfg.cell_input_dim(idx)
            want = packed_shapes(cfg.cell, m, cfg.hidden_dim)
            got = tuple(np.shape(W) for W in cell)
            if got != want:
                raise ValueError(f"cell {idx}: blocks of shapes {got} do not fit the config's "
                                 f"{cfg.cell.value} cell of dims ({m}, {cfg.hidden_dim}), {want}")
        V = np.asarray(self.V, dtype=DTYPE)
        width = cfg.head_width(self.head_kind)
        if V.ndim != 2:
            raise ValueError(f"head V must be 2-D, got shape {V.shape}")
        if V.shape[1] != width:
            raise ValueError(f"head V has {V.shape[1]} columns, encoder provides {width}")
        if not np.all(np.isfinite(V)):
            raise ValueError("head V contains non-finite entries")
        D = cfg.directions
        self.params, self.layers, self.V = _carve(
            [tuple((D,) + np.shape(W) for W in cell) for cell in self.cells[::D]], V.shape)
        for i, cell in enumerate(self.cells):
            for W, block in zip(self.layers[i // D], cell):
                W[i % D] = block
        self.cells = [tuple(W[i % D] for W in self.layers[i // D])
                      for i in range(len(self.cells))]
        self.V[...] = V

    @property
    def num_classes(self) -> int:
        return self.V.shape[0]

    def forward(self, x, gates: bool = True) -> tuple:
        """``(logits, trace)``; ``gates`` as in ``encode``."""
        trace = encode(self, x, gates=gates)
        logits = head_forward(self, trace)
        return logits, trace


def init_head(cfg: EncoderConfig, kind: HeadKind, num_classes: int, seed: int) -> np.ndarray:
    """Uniform fan-in initialization for the classifier matrix ``V``."""
    width = cfg.head_width(kind)
    bound = 1.0 / np.sqrt(width)
    rng = np.random.default_rng(seed)
    return rng.uniform(-bound, bound, size=(num_classes, width))
