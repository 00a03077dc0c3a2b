#!/usr/bin/env python3
"""Print one sha256 line per training configuration, so that two trees can
be compared bit for bit.

    PYTHONPATH=src python tests/bitledger.py [--subset gru,nv ...]

Each line is ``<configuration> <sha256>``. The digest covers every
``param_tree`` array and the history after ``fit``, the confusion matrix
of every ``sweep`` row for every layer and direction (nv heads), and the
bytes ``save_checkpoint`` writes. To check that a change keeps every bit,
run this script with ``PYTHONPATH`` set to each tree's ``src`` and diff
the two outputs. The digests are not pinned anywhere: the BLAS kernel
alone changes trained bits, so equal lines hold per machine and BLAS.

The grid is cell {rnn, gru, lstm} x head {last, avg, nv} x encoder {1
layer, 2 bidirectional, 2 unidirectional} x batch {1, 3, full} x
``grad_clip`` {off, on}: 162 configurations on a 3-class planted split of
T = 11 steps, more than ``cells.CHUNK``. ``--subset`` keeps the
configurations whose name has every listed part; repeat it to add slices.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
import tempfile
from pathlib import Path

import numpy as np

from neuroview.cells import CellKind, InitKind, InitScheme
from neuroview.cli import RunConfig, save_checkpoint
from neuroview.data import synth_separable
from neuroview.interpret import AblationMode, AblationTarget, sweep
from neuroview.network import EncoderConfig, HeadKind
from neuroview.train import TrainConfig, fit, param_tree

T, HIDDEN, EPOCHS, CLASSES = 11, 4, 3, 3
ENCODERS = {"l1": (1, False), "l2bi": (2, True), "l2uni": (2, False)}
BATCHES = {"b1": 1, "b3": 3, "bfull": None}
# A clip this small acts in every configuration of the grid.
CLIPS = {"noclip": None, "clip": 0.002}


def grid():
    """Every configuration as ``(name, axes)``, in a fixed order."""
    for cell, head, enc, batch, clip in itertools.product(
            CellKind, HeadKind, ENCODERS, BATCHES, CLIPS):
        yield "-".join((cell.value, head.value, enc, batch, clip)), (cell, head, enc, batch, clip)


def digest(cell, head, enc, batch, clip, train, test, tmp: Path) -> str:
    layers, bidirectional = ENCODERS[enc]
    encoder = EncoderConfig(cell, 1, HIDDEN, T, layers, bidirectional)
    cfg = TrainConfig(learning_rate=0.01, epochs=EPOCHS, batch_size=BATCHES[batch],
                      seed=2, grad_clip=CLIPS[clip])
    model, history = fit(train, cfg, encoder, head, InitScheme(InitKind.UNIFORM, 1))
    h = hashlib.sha256()
    for name, arr in param_tree(model).items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr(history).encode())
    if head is HeadKind.NEUROVIEW:
        rows = [(c, k, mode, target) for c in range(CLASSES) for k in (1, 4)
                for mode in AblationMode for target in AblationTarget]
        for layer in range(layers):
            for direction in range(encoder.directions):
                for result in sweep(model, test, rows, layer, direction):
                    h.update(result.report.confusion.tobytes())
    path = tmp / "checkpoint.json"
    save_checkpoint(path, model, RunConfig(cell=cell.value, head=head.value,
                                           hidden_dim=HIDDEN, layers=layers,
                                           bidirectional=bidirectional, epochs=EPOCHS))
    h.update(path.read_bytes())
    return h.hexdigest()


def ledger(subsets=()) -> list:
    """The ``<configuration> <sha256>`` lines of the configurations in any
    of ``subsets`` (each a collection of name parts), or of all."""
    train = synth_separable(CLASSES, T, 1, 3, seed=0)
    test = synth_separable(CLASSES, T, 1, 4, seed=1)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, axes in grid():
            parts = set(name.split("-"))
            if subsets and not any(set(s) <= parts for s in subsets):
                continue
            lines.append(f"{name} {digest(*axes, train, test, Path(tmp))}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--subset", action="append", default=[], metavar="PART[,PART...]",
                    help="keep configurations whose name has every part, e.g. gru,nv")
    args = ap.parse_args(argv)
    subsets = [s.split(",") for s in args.subset]
    names = {part for name, _ in grid() for part in name.split("-")}
    unknown = sorted({p for s in subsets for p in s} - names)
    if unknown:
        ap.error(f"unknown subset part(s) {unknown}; choose from {sorted(names)}")
    lines = ledger(subsets)
    if not lines:
        ap.error("the subsets select no configuration")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
