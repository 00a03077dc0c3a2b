"""Recurrence cells: simple RNN, GRU, and LSTM.

Each cell advances a hidden state one timestep and can push gradients back
through that step analytically (no autodiff tape; the closed forms are
checked against central finite differences in the test suite).

Update rules
------------
Simple RNN (sigmoid activation)::

    h' = sigmoid(W h + U x + b)

GRU::

    r  = sigmoid(W_ir x + b_ir + W_hr h + b_hr)
    z  = sigmoid(W_iz x + b_iz + W_hz h + b_hz)
    n  = tanh(W_in x + b_in + r * (W_hn h + b_hn))
    h' = (1 - z) * n + z * h

LSTM::

    i  = sigmoid(W_ii x + b_ii + W_hi h + b_hi)
    f  = sigmoid(W_if x + b_if + W_hf h + b_hf)
    g  = tanh  (W_ig x + b_ig + W_hg h + b_hg)
    o  = sigmoid(W_io x + b_io + W_ho h + b_ho)
    c' = f * c + i * g
    h' = o * tanh(c')

Packed layout
-------------
A cell is its two packed blocks ``(W_i | b_i, W_h | b_h)``, which stack
the k gates' rows with the sigmoid gates first, so one sigmoid call
covers a contiguous slice, and carry each bias as a last column, so the
GEMM that applies a weight matrix to an input with a trailing 1 also
adds the bias::

    kind   k   gate order      sigmoid slice
    rnn    1   h               h
    gru    3   r | z | n       r | z
    lstm   4   i | f | o | g   i | f | o

    W_i | b_i  (k*n, m+1)   input side
    W_h | b_h  (k*n, n+1)   hidden side (zero bias column for rnn)

With ``gi = W_i x + b_i`` and ``gh = W_h h + b_h``, the gates are the
nonlinearities of slices of ``gi + gh``, except the GRU's n gate, which
reads ``gi_n + r * gh_n``. Parameter names are read only at the edges:
``pack`` turns a name -> array map into a fresh pair of blocks, checking
names, shapes and finiteness, and ``named_views`` maps each name to a
view into a pair. The rnn's hidden-side bias column is no parameter: it
has no name, stays 0.0 and gets a zero gradient.

A layer's D cells (D = 1, or 2 for a bidirectional layer) stack their
blocks into the layer's weights ``(W_i, W_h)``, (D, k*n, m+1) and
(D, k*n, n+1), which is what the kernels read. A ``Model`` holds them
layer by layer in one flat ``params`` buffer, W_i then W_h of layer 0,
then of layer 1, ..., then the head's ``V``; its ``layers[l]`` are plain
reshape views of that buffer and its cell ``l*D + d`` is the pair of
their ``[d]`` slices. ``stack_cells`` stacks loose pairs into a copy.

Kernel
------
``sequence_forward`` runs the D directions of one layer over a (T, B, m)
input in one time loop: at loop index i the forward direction handles
time i and the reverse direction time T-1-i, so each numpy call covers
both directions. It forms ``gi`` for every step and direction in one
GEMM, then per step does one hidden GEMM, one sigmoid over the sigmoid
slice and a few elementwise updates, writing into preallocated
per-timestep arrays of a ``SequenceTrace``: fresh ones, or those of an
earlier trace passed as ``out``. Gates are held gate-major,
(T, k*n, D, B), so that each gate slice is one contiguous block covering
both directions; the GEMMs read the layer's stacked weights. The reverse
direction is stored in processing order. The GRU forms each new state in
one of two contiguous (n, D, B) buffers and copies it once into the
batch-major ``ha``, which the hidden GEMM reads.

Neither time loop allocates or slices an array per step: every numpy
call, the sigmoid's included, writes through ``out`` into arrays made
once per call, and each step zips views made once per chunk. Every
operation keeps the operands and order of the formulas above.

A forward-only pass (``gates=False``), which no backward pass follows,
keeps no inputs and no gate trace: the loop runs over chunks of
``CHUNK`` steps, copies each chunk's inputs into a buffer of CHUNK steps
and writes their ``gi`` into another with one GEMM, both reused from
chunk to chunk, so the gates a step reads are still in cache. The rnn's
pre-activations live in such a buffer too; the GRU forms no ``aux``,
which only BPTT reads, and the LSTM keeps its cell states, which a
resumed pass reads.
A full pass is the same loop with one chunk of T steps, and both give
bit-identical states. ``sequence_backward`` runs BPTT over that trace in
one loop too: per step one gate-major gate-gradient block and its
per-direction (D, k*n, B) copy for the GEMMs, one GEMM each for the
incoming state and input gradients and one each for the stacked
weight-and-bias gradients, each added with one add into caller-given
blocks or fresh ones. The input gradient adds the forward direction's
share before the reverse one's. Every GEMM reads each direction's
operands in the layout a one-direction run gives it, so a two-direction
loop is bit-identical to two one-direction runs, the reverse one on the
time-reversed input. ``cell_forward`` and ``cell_backward`` are the T=1,
D=1 case of the same kernel, on (B, m) inputs and (B, n) states; one
sequence is a batch of one. Apart from the ``dX`` and gradient
accumulators a caller passes to ``sequence_backward``, the work arrays
it keeps in the trace's ``buffers`` and the trace passed to
``sequence_forward`` as ``out``, whose arrays are overwritten, all
functions are pure: parameters and traces' activations are never
mutated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Optional

import numpy as np

from .linalg import DTYPE, Buffered, scratch, sigmoid


class CellKind(enum.Enum):
    SIMPLE_RNN = "rnn"
    GRU = "gru"
    LSTM = "lstm"


class InitKind(enum.Enum):
    UNIFORM = "uniform"
    ORTHOGONAL = "orthogonal"
    IDENTITY = "identity"
    NORMAL = "normal"


@dataclass(frozen=True)
class InitScheme:
    """Weight initialization recipe. ``kind`` governs hidden-to-hidden
    matrices only; input-to-hidden matrices and biases always use the
    uniform fan-in rule U(-1/sqrt(n), 1/sqrt(n))."""

    kind: InitKind = InitKind.UNIFORM
    seed: int = 0


# Parameter schemas: name -> shape kind ("hh" = n x n, "ih" = n x m, "b" = n).
# Insertion order is the canonical draw/serialization order.
_SCHEMAS = {
    CellKind.SIMPLE_RNN: {"W": "hh", "U": "ih", "b": "b"},
    CellKind.GRU: {
        "W_ir": "ih", "W_iz": "ih", "W_in": "ih",
        "W_hr": "hh", "W_hz": "hh", "W_hn": "hh",
        "b_ir": "b", "b_iz": "b", "b_in": "b",
        "b_hr": "b", "b_hz": "b", "b_hn": "b",
    },
    CellKind.LSTM: {
        "W_ii": "ih", "W_if": "ih", "W_ig": "ih", "W_io": "ih",
        "W_hi": "hh", "W_hf": "hh", "W_hg": "hh", "W_ho": "hh",
        "b_ii": "b", "b_if": "b", "b_ig": "b", "b_io": "b",
        "b_hi": "b", "b_hf": "b", "b_hg": "b", "b_ho": "b",
    },
}

_SHAPE_OF = {
    "hh": lambda m, n: (n, n),
    "ih": lambda m, n: (n, m),
    "b": lambda m, n: (n,),
}


def param_shapes(kind: CellKind, input_dim: int, hidden_dim: int) -> dict:
    """Canonical name -> shape map for one cell's parameter arrays."""
    schema = _SCHEMAS[kind]
    return {
        name: _SHAPE_OF[role](input_dim, hidden_dim)
        for name, role in schema.items()
    }


# Packed gate order (sigmoid gates first) and the number of sigmoid gates.
_GATE_ORDER = {CellKind.SIMPLE_RNN: "", CellKind.GRU: "rzn", CellKind.LSTM: "ifog"}
_SIGMOID_GATES = {CellKind.SIMPLE_RNN: 1, CellKind.GRU: 2, CellKind.LSTM: 3}
# Names stacked into W_i, W_h, b_i, b_h, in packed row order.
_PACKED = {
    CellKind.SIMPLE_RNN: (("U",), ("W",), ("b",), ()),
    **{
        kind: tuple(tuple(f"{role}{g}" for g in _GATE_ORDER[kind])
                    for role in ("W_i", "W_h", "b_i", "b_h"))
        for kind in (CellKind.GRU, CellKind.LSTM)
    },
}


def named_views(kind: CellKind, n: int, W_i: np.ndarray, W_h: np.ndarray) -> dict:
    """Name -> view into the packed blocks, in canonical schema order (the
    rnn's hidden-side bias column has no name)."""
    w_i, w_h, b_i, b_h = _PACKED[kind]
    out = {}
    for w_names, b_names, block in ((w_i, b_i, W_i), (w_h, b_h, W_h)):
        for j, name in enumerate(w_names):
            out[name] = block[j * n:(j + 1) * n, :-1]
        for j, name in enumerate(b_names):
            out[name] = block[j * n:(j + 1) * n, -1]
    return {name: out[name] for name in _SCHEMAS[kind]}


def packed_shapes(kind: CellKind, input_dim: int, hidden_dim: int) -> tuple:
    """The shapes of one cell's packed blocks, (k*n, m+1) and (k*n, n+1)."""
    rows = (len(_GATE_ORDER[kind]) or 1) * hidden_dim
    return (rows, input_dim + 1), (rows, hidden_dim + 1)


def pack(kind: CellKind, input_dim: int, hidden_dim: int, arrays: dict) -> tuple:
    """A cell's name -> array map as a fresh pair of packed blocks
    ``(W_i | b_i, W_h | b_h)``; the names, shapes and finiteness are
    checked before the blocks are allocated, and the rnn's hidden-side
    bias column is 0.0."""
    if set(arrays) != set(_SCHEMAS[kind]):
        raise ValueError(f"{kind.value} cell expects parameters "
                         f"{sorted(_SCHEMAS[kind])}, got {sorted(arrays)}")
    arrays = {name: np.asarray(arr, dtype=DTYPE) for name, arr in arrays.items()}
    for name, shape in param_shapes(kind, input_dim, hidden_dim).items():
        if arrays[name].shape != shape:
            raise ValueError(f"parameter {name!r}: expected shape {shape}, "
                             f"got {arrays[name].shape}")
        if not np.all(np.isfinite(arrays[name])):
            raise ValueError(f"parameter {name!r} contains non-finite entries")
    blocks = tuple(np.zeros(shape, dtype=DTYPE)
                   for shape in packed_shapes(kind, input_dim, hidden_dim))
    for name, view in named_views(kind, hidden_dim, *blocks).items():
        view[...] = arrays[name]
    return blocks


def _with_ones(a: np.ndarray) -> np.ndarray:
    """``a`` with a trailing column of ones (the bias input)."""
    out = np.empty(a.shape[:-1] + (a.shape[-1] + 1,), dtype=DTYPE)
    out[..., :-1] = a
    out[..., -1] = 1.0
    return out


def stack_cells(cells) -> tuple:
    """The packed blocks of loose cells, the D cells of one layer, stacked
    into the kernels' weights ``(W_i, W_h)``, each (D, k*n, .); a copy."""
    return tuple(np.stack(blocks) for blocks in zip(*cells))


@dataclass
class SequenceTrace(Buffered):
    """One layer's activations over T steps, kept for ``sequence_backward``.

    The D directions (1 or 2) share every array. Index i along the first
    axis is the i-th step each direction processed: time i for the
    forward direction and time T-1-i for the reverse one, so the reverse
    direction is stored in processing order. The gate arrays are
    gate-major, so each gate is one contiguous (n, D, B) block that covers
    both directions; inputs and hidden states are batch-major with a
    trailing ones column, so one GEMM against ``W | b`` also applies the
    bias:
      xa     (T, D, B, m+1)  inputs
      ha     (T, D, B, n+1)  hidden outputs (``h`` is the (T, D, B, n) view)
      gates  (T, k*n, D, B)  activated gates in packed order (rnn: ``h``)
      aux    (T, n, D, B)    rnn: pre-activation; gru: ``W_hn h_prev + b_hn``;
                             lstm: cell state c
      h0a    (D, B, n+1)     initial hidden state;  c0 (n, D, B): initial
                             cell state (lstm only)
    A forward-only trace has no ``xa`` and no ``gates``, and no ``aux``
    but the lstm's. ``buffers`` holds the kernels' work arrays: the GRU's
    state buffers, a forward-only pass's CHUNK-step input and gate
    buffers and
    ``sequence_backward``'s per-timestep arrays; a trace built with this
    one as ``out`` takes them over.
    """

    kind: CellKind
    xa: np.ndarray
    ha: np.ndarray
    gates: Optional[np.ndarray]
    aux: Optional[np.ndarray]
    h0a: np.ndarray
    c0: Optional[np.ndarray] = None
    buffers: dict = field(default_factory=dict, repr=False)

    @property
    def h(self) -> np.ndarray:
        return self.ha[..., :-1]


def _initial_state(kind, n, D, B, h0, c0):
    """``(h0a, c0)`` in trace layout from (D, B, n) states; zeros where not
    given."""
    h0a = _with_ones(np.zeros((D, B, n), dtype=DTYPE) if h0 is None else h0)
    if kind is not CellKind.LSTM:
        return h0a, None
    if c0 is None:
        return h0a, np.zeros((n, D, B), dtype=DTYPE)
    return h0a, np.array(c0.transpose(2, 0, 1))


def _gate_blocks(G, n: int) -> list:
    """The k gate blocks of a gate-major (steps, k*n, D, B) array, padded
    to four with ``repeat(None)``, for the time loops to zip."""
    blocks = [G[:, j:j + n] for j in range(0, G.shape[1], n)]
    return blocks + [repeat(None)] * (4 - len(blocks))


# Steps per input-projection GEMM in a forward-only pass: the gates of
# CHUNK steps of a UMD-shape GRU-32 layer (B = 144) take 0.9 MB, so the
# loop reads them back from cache.
CHUNK = 8


def sequence_forward(kind: CellKind, weights: tuple, X: np.ndarray,
                     h0: Optional[np.ndarray] = None,
                     c0: Optional[np.ndarray] = None,
                     out: Optional[SequenceTrace] = None,
                     gates: bool = True) -> SequenceTrace:
    """Run one layer's D directions (1, or 2 for forward and reverse) over
    a (T, B, m) input in one time loop, from the (D, B, n) state
    ``(h0, c0)`` (zeros when omitted); the second direction reads the
    input reversed in time. ``weights`` is the layer's stacked packed
    blocks ``(W_i, W_h)``, (D, k*n, m+1) and (D, k*n, n+1). Shapes are
    trusted: callers check them once.

    ``out``, an earlier trace, lends its per-timestep arrays: each one of
    the right shape is overwritten instead of allocated, with the values a
    fresh run would give; ``out`` must not be read afterwards.

    ``gates=False`` makes a forward-only pass, which ``sequence_backward``
    rejects: the inputs, the gates and the rnn's ``aux`` live in
    ``buffers`` for CHUNK steps at a time, the GRU forms no ``aux``, and
    the trace's ``xa``, ``gates`` and ``aux`` (lstm: kept) are None. Its
    states are bit-identical."""
    W_i, W_h = weights
    D, rows, _ = W_i.shape
    T, B, m = X.shape
    n = W_h.shape[-1] - 1
    s = _SIGMOID_GATES[kind] * n
    old = out if out is not None else SequenceTrace(kind, *[None] * 5)
    ha = scratch(old.ha, (T, D, B, n + 1))
    ha[..., n] = 1.0
    trace = SequenceTrace(kind, None, ha, None, None,
                          *_initial_state(kind, n, D, B, h0, c0), old.buffers)
    c = trace.c0
    # Unit-major views of the states, (n, D, B) per step, and the GEMM
    # operands (n+1, B) per step and direction.
    H = ha[..., :n].transpose(0, 3, 1, 2)
    haT, hT_prev = ha.transpose(0, 1, 3, 2), trace.h0a.transpose(0, 2, 1)
    # Inputs, gates and aux hold every step, or CHUNK steps in a
    # forward-only pass, where the lstm's cell states still hold every
    # step and the GRU forms no aux. The input projections, biases
    # included, go into the gates (rnn: aux) in one GEMM per chunk.
    span = T if gates else min(T, CHUNK)
    xa = scratch(old.xa, (T, D, B, m + 1)) if gates else trace.buffer("xa", (span, D, B, m + 1))
    xa[..., m] = 1.0
    if gates or kind is CellKind.LSTM:
        aux = scratch(old.aux, (T, n, D, B))
    elif kind is CellKind.SIMPLE_RNN:
        aux = trace.buffer("aux", (span, n, D, B))
    else:
        aux = None
    if kind is CellKind.SIMPLE_RNN:
        G = H
    elif gates:
        G = scratch(old.gates, (T, rows, D, B))
    else:
        G = trace.buffer("gates", (span, rows, D, B))
    # Work arrays: the hidden projection and the sigmoid's ``e`` (lstm: then ``tmp``).
    gh, sw = np.empty((rows, D, B), dtype=DTYPE), np.empty((s, D, B), dtype=DTYPE)
    ghT, gh_s, gh_n, tmp = gh.transpose(1, 0, 2), gh[:s], gh[s:], sw[:n]
    if kind is CellKind.GRU:
        # The new state is formed in one contiguous (n, D, B) buffer, the
        # previous one in another, and copied once into ``ha``; ``zn`` holds
        # the (1 - z) * n term.
        new, h_prev, zn = trace.buffer("state", (3, n, D, B))
        h_prev[...] = trace.h0a[..., :n].transpose(2, 0, 1)

    for lo in range(0, T, span):
        hi = min(lo + span, T)
        # Steps lo..hi-1: of an array of all T steps, or a chunk buffer.
        Gc, A, xc = (a if a is None else a[lo:hi] if len(a) == T else a[:hi - lo]
                     for a in (G, aux, xa))
        xc[:, 0, :, :m] = X[lo:hi]
        if D == 2:
            xc[:, 1, :, :m] = X[::-1][lo:hi]
        np.matmul(W_i, xc.transpose(0, 1, 3, 2),
                  out=(A if kind is CellKind.SIMPLE_RNN else Gc).transpose(0, 2, 1, 3))
        for g, g_s, b0, b1, b2, b3, h, a, hT in zip(
                Gc, Gc[:, :s], *_gate_blocks(Gc, n), H[lo:hi],
                repeat(None) if A is None else A, haT[lo:hi]):
            np.matmul(W_h, hT_prev, out=ghT)
            if kind is CellKind.SIMPLE_RNN:
                a += gh
                np.copyto(h, sigmoid(a, out=gh, work=sw))
            elif kind is CellKind.GRU:
                r, z, g_n = b0, b1, b2
                g_s += gh_s
                sigmoid(g_s, out=g_s, work=sw)
                if a is not None:
                    np.copyto(a, gh_n)
                gh_n *= r
                g_n += gh_n
                np.tanh(g_n, out=g_n)
                np.multiply(h_prev, z, out=new)
                np.subtract(1.0, z, out=zn)
                zn *= g_n
                new += zn
                np.copyto(h, new)
                h_prev, new = new, h_prev
            else:
                i_g, f, o, g_g = b0, b1, b2, b3
                g += gh
                sigmoid(g_s, out=g_s, work=sw)
                np.tanh(g_g, out=g_g)
                np.multiply(f, c, out=a)
                np.multiply(i_g, g_g, out=tmp)
                a += tmp
                np.tanh(a, out=tmp)
                np.multiply(o, tmp, out=h)
                c = a
            hT_prev = hT

    if gates:
        trace.xa, trace.gates, trace.aux = xa, G, aux
    elif kind is CellKind.LSTM:
        trace.aux = aux
    return trace


def sequence_backward(kind: CellKind, weights: tuple, trace: SequenceTrace,
                      dH: np.ndarray, grad_c: Optional[np.ndarray] = None,
                      dX: Optional[np.ndarray] = None,
                      grads: Optional[tuple] = None):
    """BPTT through a ``sequence_forward`` trace of the same weights.

    ``dH`` (T, B, D*n), in time order with the forward direction's units
    first, is the loss gradient arriving at each step's hidden output from
    outside the recurrence; ``grad_c`` (D, B, n) is the gradient at each
    direction's last cell state (lstm only). When ``dX`` (T, B, m) is
    given, the input gradient is added into it, the forward direction's
    share first. Returns ``(grads, grad_h0, grad_c0)``: the gradients
    ``(dW_i, dW_h)`` of the stacked weights, summed over batch and time,
    and the (D, B, n) gradient at the initial state (``grad_c0`` is None
    unless lstm). The weight gradients are added into ``grads`` when
    given, else into zeros; the rnn's hidden-side bias column, no
    parameter, gets 0.0.
    """
    if trace.gates is None:
        raise ValueError("a forward-only trace keeps no gates to backpropagate")
    W_i, W_h = weights
    D, rows, _ = W_i.shape
    T, _, B, n1 = trace.ha.shape
    n = n1 - 1
    m = trace.xa.shape[-1] - 1
    s = _SIGMOID_GATES[kind] * n
    W_x, W_hh = W_i[:, :, :-1], W_h[:, :, :n].transpose(0, 2, 1)
    if grads is None:
        grads = (np.zeros_like(W_i), np.zeros_like(W_h))
    dW_i, dW_h = grads
    # Each step's weight gradients, added into ``grads`` one block at a time.
    step_i, step_h = np.empty_like(W_i), np.empty_like(W_h)
    # The gradient at each step's output in processing order, (n, D, B)
    # per step: a view for one direction, else a gate-major copy.
    if D == 1:
        dHp = dH[:, None].transpose(0, 3, 1, 2)
    else:
        dHp = trace.buffer("dH", (T, n, D, B))
        dHp[:, :, 0] = dH[..., :n].transpose(0, 2, 1)
        dHp[:, :, 1] = dH[::-1, :, n:].transpose(0, 2, 1)
    dXp = None if dX is None else trace.buffer("dX", (T, D, B, m))
    H, H0 = trace.h.transpose(0, 3, 1, 2), trace.h0a[..., :n].transpose(2, 0, 1)
    # The gate gradient, gate-major like the gates, and per direction as
    # (D, k*n, B), the layout each GEMM reads: a view for one direction,
    # else a copy made each step.
    dG = np.empty((rows, D, B), dtype=DTYPE)
    dGd = dG.transpose(1, 0, 2) if D == 1 else np.empty((D, rows, B), dtype=DTYPE)
    dGdT = dGd.transpose(0, 2, 1)
    # The carried state gradient and the buffer the next one is written
    # into, swapped each step, with their (D, n, B) views for the GEMM.
    carry_h, spare = np.zeros((n, D, B), dtype=DTYPE), np.empty((n, D, B), dtype=DTYPE)
    carry_hT, spareT = carry_h.transpose(1, 0, 2), spare.transpose(1, 0, 2)
    carry_c = None
    if kind is CellKind.LSTM:
        carry_c = (np.zeros((n, D, B), dtype=DTYPE) if grad_c is None
                   else np.array(grad_c.transpose(2, 0, 1)))
    # Work arrays for the gate factors; dG's sigmoid slice and gate blocks.
    w1, w2, tanh_c, dc = np.empty((4, n, D, B), dtype=DTYPE)
    ws = np.empty((s, D, B), dtype=DTYPE)
    dG_s, dG_T, dGd_n = dG[:s], dG.transpose(1, 0, 2), dGd[:, s:]
    dGb = [dG[j:j + n] for j in range(0, rows, n)]

    # Backward runs against the processing order; step i's previous states
    # came from step i-1, and step 0 read the initial ones, which end the
    # reversed views of them: ``hp`` for the GEMM, and ``prev`` unit-major
    # (lstm: the cell state).
    Gr = trace.gates[::-1]
    P, P0 = (trace.aux, trace.c0) if kind is CellKind.LSTM else (H, H0)
    steps = zip(Gr[:, :s], *_gate_blocks(Gr, n),
                trace.aux[::-1], dHp[::-1], trace.xa[::-1],
                repeat(None) if dX is None else dXp[::-1],
                chain(trace.ha[-2::-1], (trace.h0a,)), chain(P[-2::-1], (P0,)),
                Gr[:, :n].transpose(0, 2, 1, 3) if kind is CellKind.GRU else repeat(None))
    for g_s, b0, b1, b2, b3, a, dh_in, xa, dx, hp, prev, rT in steps:
        dh = carry_h
        dh += dh_in
        # dG <- gradient at the input pre-activations (W_i x + b_i).
        if kind is CellKind.SIMPLE_RNN:
            np.multiply(dh, b0, out=dG)
            np.subtract(1.0, b0, out=w1)
            dG *= w1
        elif kind is CellKind.GRU:
            z, n_g = b1, b2
            dG_r, dG_z, dG_n = dGb
            np.subtract(1.0, z, out=w1)
            np.multiply(dh, w1, out=w1)
            np.multiply(n_g, n_g, out=w2)
            np.subtract(1.0, w2, out=w2)
            np.multiply(w1, w2, out=dG_n)
            np.multiply(dG_n, a, out=dG_r)
            np.subtract(prev, n_g, out=w1)
            np.multiply(dh, w1, out=dG_z)
        else:
            i_g, f, o, g_g = b0, b1, b2, b3
            dG_i, dG_f, dG_o, dG_g = dGb
            np.tanh(a, out=tanh_c)
            np.multiply(dh, o, out=dc)
            np.multiply(tanh_c, tanh_c, out=w1)
            np.subtract(1.0, w1, out=w1)
            dc *= w1
            dc += carry_c
            np.multiply(dc, g_g, out=dG_i)
            np.multiply(dc, prev, out=dG_f)
            np.multiply(dh, tanh_c, out=dG_o)
            np.multiply(dc, i_g, out=w1)
            np.multiply(g_g, g_g, out=w2)
            np.subtract(1.0, w2, out=w2)
            np.multiply(w1, w2, out=dG_g)
            np.multiply(dc, f, out=carry_c)
        if kind is not CellKind.SIMPLE_RNN:
            np.subtract(1.0, g_s, out=ws)
            np.multiply(g_s, ws, out=ws)
            dG_s *= ws
        if D == 2:
            np.copyto(dGd, dG_T)
        np.matmul(dGd, xa, out=step_i)
        if dx is not None:
            np.matmul(dGdT, W_x, out=dx)
        # dG <- gradient at the hidden pre-activations (W_h h + b_h); only
        # the GRU's n block differs, as W_hn h + b_hn enters scaled by r.
        if kind is CellKind.GRU:
            dGd_n *= rT
        np.matmul(dGd, hp, out=step_h)
        dW_i += step_i
        dW_h += step_h
        np.matmul(W_hh, dGd, out=spareT)
        carry_h, carry_hT, spare, spareT = spare, spareT, carry_h, carry_hT
        if kind is CellKind.GRU:
            np.multiply(dh, z, out=w1)
            carry_h += w1

    if dX is not None:
        # Time order again, and the forward direction's share added first.
        dX += dXp[:, 0]
        if D == 2:
            dX += dXp[::-1, 1]
    if kind is CellKind.SIMPLE_RNN:
        dW_h[..., n] = 0.0
    return (grads, carry_h.transpose(1, 2, 0),
            None if carry_c is None else carry_c.transpose(1, 2, 0))


def cell_forward(kind: CellKind, cell: tuple, x: np.ndarray,
                 h0: Optional[np.ndarray] = None,
                 c0: Optional[np.ndarray] = None) -> SequenceTrace:
    """One step of one cell, ``sequence_forward`` at T = 1 and D = 1: a
    (B, m) input from the (B, n) state ``(h0, c0)``, zeros when omitted."""
    return sequence_forward(kind, stack_cells([cell]), x[None],
                            *(None if a is None else a[None] for a in (h0, c0)))


def cell_backward(kind: CellKind, cell: tuple, trace: SequenceTrace, dh: np.ndarray,
                  dc: Optional[np.ndarray] = None):
    """BPTT through a ``cell_forward`` trace from the (B, n) gradients at
    its hidden output and, for the lstm, its cell state. Returns
    ``(grads, dh0, dc0, dx)``: the packed ``(dW_i, dW_h)``, summed over the
    batch, and the gradients at the initial state and the input
    (``dc0`` is None unless lstm)."""
    dx = np.zeros_like(trace.xa[0, ..., :-1])
    (dW_i, dW_h), dh0, dc0 = sequence_backward(
        kind, stack_cells([cell]), trace, dh[None], None if dc is None else dc[None], dx)
    return (dW_i[0], dW_h[0]), dh0[0], None if dc0 is None else dc0[0], dx[0]


def scheme_matrix(kind: InitKind, shape, rng: np.random.Generator) -> np.ndarray:
    """Draw one matrix under an initialization scheme.

    Orthogonal and identity require a square shape; uniform and normal use
    the fan-in rule with n = shape[0].
    """
    rows, cols = shape
    n = rows
    if kind is InitKind.UNIFORM:
        bound = 1.0 / np.sqrt(n)
        return rng.uniform(-bound, bound, size=shape)
    if kind is InitKind.ORTHOGONAL:
        if rows != cols:
            raise ValueError(f"orthogonal init requires a square matrix, got {shape}")
        q, r = np.linalg.qr(rng.standard_normal(shape))
        return q * np.sign(np.diag(r))
    if kind is InitKind.IDENTITY:
        if rows != cols:
            raise ValueError(f"identity init requires a square matrix, got {shape}")
        return np.eye(n, dtype=DTYPE)
    if kind is InitKind.NORMAL:
        return rng.normal(0.0, np.sqrt(1.0 / n), size=shape)
    raise ValueError(f"unknown init kind {kind!r}")


def init_params(kind: CellKind, input_dim: int, hidden_dim: int,
                scheme: InitScheme) -> tuple:
    """One cell's packed blocks under an initialization scheme.

    The scheme applies to hidden-to-hidden matrices; input-to-hidden
    matrices and biases always follow the uniform fan-in rule. Draws happen
    in canonical schema order, so a fixed seed gives bit-identical
    parameters.
    """
    if input_dim < 1 or hidden_dim < 1:
        raise ValueError(
            f"dimensions must be >= 1, got input_dim={input_dim}, hidden_dim={hidden_dim}"
        )
    rng = np.random.default_rng(scheme.seed)
    bound = 1.0 / np.sqrt(hidden_dim)
    shapes = param_shapes(kind, input_dim, hidden_dim)
    arrays = {}
    for name, role in _SCHEMAS[kind].items():
        if role == "hh":
            arrays[name] = scheme_matrix(scheme.kind, shapes[name], rng)
        else:
            arrays[name] = rng.uniform(-bound, bound, size=shapes[name])
    return pack(kind, input_dim, hidden_dim, arrays)
