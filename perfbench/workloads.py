"""The benchmark's workloads and the checks on their outputs.

Every workload is a closed loop with one client: the next op starts when
the previous one returns, all calls are in-process, and the only input
the library sees is what ``synth_separable`` generates from the workload
seed. Library functions are always looked up through their module at call
time (``nv.train.fit``), so the tracer's patches apply to these calls too.

* ``train-long``: the paper's headline configuration at its longest
  horizon (Wine shape, T=234, B=58; GRU-32, one layer, nv head, full
  batch). The recurrence dominates, so a recurrence-kernel change shows.
* ``train-minibatch``: many small Adam steps on short sequences through
  the stacked and reverse-direction paths (Chinatown shape, T=24, B=20;
  LSTM-32, two bidirectional layers, batch 4, so 5 steps per epoch over
  65 arrays). Per-call overhead, Adam and glue carry a larger share.
* ``analyze``: the interpretation workflow through the real CLI, forward
  only (UMD shape, T=150, three classes, 144 test sequences): evaluate,
  counterfactual on the weights target, export with a counterfactual sweep.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

from reference import Reference

# Sequences in the batch used for the nv-identity check, and its tolerance.
IDENTITY_BATCH = 8
IDENTITY_TOL = 1e-10
# Check the nv identity on every this-many-th training op (and the first).
IDENTITY_EVERY = 10


@dataclass(frozen=True)
class TrainShape:
    classes: int
    horizon: int
    per_class: int
    cell: str
    layers: int
    bidirectional: bool
    batch_size: int  # 0 = full batch
    epochs: int  # per fit op
    reference_reps: int  # passes of the reference kernel after each op


class TrainWorkload:
    """One op is one ``fit`` call with a fixed number of epochs. Each op
    draws its own initial weights and shuffle order from the workload seed
    and the op index."""

    cycle = ("fit",)

    def __init__(self, nv, shape: TrainShape):
        self.nv = nv
        self.shape = shape
        self.units_per_cycle = shape.epochs
        self.reference = Reference(
            shape.batch_size or shape.classes * shape.per_class, shape.horizon,
            shape.reference_reps)

    def setup(self, seed: int, workdir: Path) -> None:
        nv, s = self.nv, self.shape
        self.seed = seed
        self.data = nv.data.synth_separable(s.classes, s.horizon, 1, s.per_class, seed=seed)
        self.encoder = nv.network.EncoderConfig(
            nv.cells.CellKind(s.cell), 1, 32, s.horizon,
            layers=s.layers, bidirectional=s.bidirectional,
        )

    def warm_up(self) -> None:
        self.op(0)

    def fit(self, op: int, epochs: int):
        nv, s = self.nv, self.shape
        cfg = nv.train.TrainConfig(
            epochs=epochs, batch_size=s.batch_size or None, seed=self.seed + op,
        )
        init = nv.cells.InitScheme(nv.cells.InitKind.UNIFORM, seed=self.seed * 1000 + op)
        return nv.train.fit(self.data, cfg, self.encoder, nv.network.HeadKind.NEUROVIEW, init)

    def before(self, op: int) -> None:
        pass

    def op(self, op: int):
        return self.fit(op, self.shape.epochs)

    def work(self, kind: str) -> int:
        """Sequence-epochs of one op."""
        return len(self.data) * self.shape.epochs

    def prepare_checks(self) -> None:
        self.check_x = self.data.features()[:IDENTITY_BATCH]

    def check(self, op: int, out) -> List[str]:
        model, history = out
        problems = []
        losses = [row[1] for row in history]
        if len(losses) != self.shape.epochs:
            problems.append(f"history has {len(losses)} rows, expected {self.shape.epochs}")
        elif not all(np.isfinite(v) for row in history for v in row[1:]):
            problems.append("history is not finite")
        elif not losses[-1] < losses[0]:
            problems.append(f"loss did not fall: {losses[0]!r} -> {losses[-1]!r}")
        if op % IDENTITY_EVERY == 0:
            problems += nv_identity_problems(model, self.check_x)
        return problems

    def identity_fit(self):
        """A fit whose weights the tracer must leave bit-identical."""
        model, _ = self.fit(0, self.shape.epochs)
        return self.nv.train.param_tree(model)


def nv_identity_problems(model, x) -> List[str]:
    """Criterion 2: the nv logits equal the sum of per-step logits."""
    logits, trace = model.forward(x)
    total = trace.step_logits.sum(axis=(0, 1))
    err = float(np.max(np.abs(logits - total)))
    if not err <= IDENTITY_TOL:
        return [f"nv identity off by {err:.3g}"]
    return []


ANALYZE_CLASSES = 3
ANALYZE_HORIZON = 150
ANALYZE_TRAIN_PER_CLASS = 12
ANALYZE_TEST_PER_CLASS = 48
# Class offset of the synthetic series. At the default (3.0) every model
# scores 100% and no counterfactual moves the accuracy, so the checks below
# could not tell a wrongly zeroed block from the right one; at 0.5 test
# accuracy is about 87% and the counterfactual rows respond to the steps.
ANALYZE_AMPLITUDE = 0.5
# Epochs of the checkpoint trained during set-up.
ANALYZE_EPOCHS = 20
# Passes of the reference kernel (test-set batch and horizon) after each
# cycle, about a fifth of the cycle's time.
ANALYZE_REFERENCE_REPS = 6
COUNTERFACTUAL_KS = (0, 1, 5, 10)
EXPORT_KS = (0, 1, 2, 5, 10, 20)


class AnalyzeWorkload:
    """One op is one ``neuroview.cli.main(argv)`` call with stdout
    captured; the commands cycle evaluate -> counterfactual -> export."""

    cycle = ("evaluate", "counterfactual", "export")
    units_per_cycle = 1

    def __init__(self, nv):
        self.nv = nv
        self.reference = Reference(ANALYZE_CLASSES * ANALYZE_TEST_PER_CLASS,
                                   ANALYZE_HORIZON, ANALYZE_REFERENCE_REPS)

    def setup(self, seed: int, workdir: Path) -> None:
        nv = self.nv
        self.seed = seed
        workdir.mkdir(parents=True, exist_ok=True)
        train = nv.data.synth_separable(
            ANALYZE_CLASSES, ANALYZE_HORIZON, 1, ANALYZE_TRAIN_PER_CLASS, seed=2 * seed,
            amplitude=ANALYZE_AMPLITUDE)
        test = nv.data.synth_separable(
            ANALYZE_CLASSES, ANALYZE_HORIZON, 1, ANALYZE_TEST_PER_CLASS, seed=2 * seed + 1,
            amplitude=ANALYZE_AMPLITUDE)
        self.fit_args = (train, nv.network.EncoderConfig(
            nv.cells.CellKind.GRU, 1, 32, ANALYZE_HORIZON))
        model, _ = self.train_checkpoint(ANALYZE_EPOCHS)
        rc = nv.cli.RunConfig(hidden_dim=32, epochs=ANALYZE_EPOCHS, seed=seed)
        self.checkpoint = str(workdir / "checkpoint.json")
        self.train_path = str(workdir / "Synth_TRAIN.tsv")
        self.test_path = str(workdir / "Synth_TEST.tsv")
        self.export_dir = workdir / "export"
        nv.cli.save_checkpoint(self.checkpoint, model, rc)
        nv.data.save_ucr(train, self.train_path)
        nv.data.save_ucr(test, self.test_path)

    def train_checkpoint(self, epochs: int):
        nv = self.nv
        train, encoder = self.fit_args
        return nv.train.fit(
            train, nv.train.TrainConfig(epochs=epochs, seed=self.seed), encoder,
            nv.network.HeadKind.NEUROVIEW,
            nv.cells.InitScheme(nv.cells.InitKind.UNIFORM, seed=self.seed),
        )

    def warm_up(self) -> None:
        self.op(0)

    def argv(self, op: int) -> List[str]:
        kind = self.cycle[op % 3]
        if kind == "evaluate":
            return ["evaluate", "--checkpoint", self.checkpoint,
                    "--dataset-path", self.test_path]
        if kind == "counterfactual":
            return ["counterfactual", "--checkpoint", self.checkpoint,
                    "--dataset-path", self.test_path, "--target", "weights",
                    "--class", str(self.class_of(op)),
                    "--k-list", *map(str, COUNTERFACTUAL_KS)]
        return ["export", "--checkpoint", self.checkpoint,
                "--dataset-path", self.test_path,
                "--k-list", *map(str, EXPORT_KS), "--out", str(self.export_dir)]

    def class_of(self, op: int) -> int:
        return (op // 3) % ANALYZE_CLASSES

    def before(self, op: int) -> None:
        if self.cycle[op % 3] == "export":
            shutil.rmtree(self.export_dir, ignore_errors=True)

    def op(self, op: int):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.nv.cli.main(self.argv(op))
        return code, out.getvalue(), err.getvalue()

    def work(self, kind: str) -> int:
        """Counterfactual (class, k) rows written by one op."""
        if kind == "counterfactual":
            return len(COUNTERFACTUAL_KS)
        if kind == "export":
            return ANALYZE_CLASSES * len(EXPORT_KS)
        return 0

    def prepare_checks(self) -> None:
        """Reference results computed directly from the library."""
        nv = self.nv
        model = nv.cli.load_checkpoint(self.checkpoint)[0]
        test = nv.data.load_ucr(self.test_path)
        logits, trace = model.forward(test.features())
        self.labels = test.labels()
        self.logits = logits
        self.step_logits = trace.step_logits[0]  # (T, B, d); one layer
        self.accuracy = nv.train.evaluate(model, test).overall_accuracy

    def weights_accuracy(self, steps: List[int]):
        """Overall and per-class accuracy with the given steps' classifier
        blocks zeroed, recomputed as ``logits - sum of their step_logits``."""
        scores = self.logits - self.step_logits[list(steps)].sum(axis=0)
        hit = np.argmax(scores, axis=1) == self.labels
        per_class = [float(np.mean(hit[self.labels == c])) for c in range(ANALYZE_CLASSES)]
        return float(np.mean(hit)), per_class

    def check(self, op: int, out) -> List[str]:
        code, stdout, stderr = out
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[:200]}"]
        kind = self.cycle[op % 3]
        try:
            if kind == "evaluate":
                return self._check_evaluate(stdout)
            if kind == "counterfactual":
                return self._check_rows(json.loads(stdout), [self.class_of(op)],
                                        COUNTERFACTUAL_KS, "weights")
            return self._check_export()
        except (ValueError, KeyError, OSError) as e:
            return [f"unreadable output: {e}"]

    def _check_evaluate(self, stdout: str) -> List[str]:
        want = f"overall accuracy: {self.accuracy:.4f}"
        if want not in stdout.splitlines():
            return [f"expected {want!r}, got {stdout.splitlines()[:1]}"]
        return []

    def _check_rows(self, rows, classes, ks, target) -> List[str]:
        problems = []
        want = [(c, k) for c in classes for k in ks]
        got = [(r["class"], r["k"]) for r in rows]
        if got != want:
            return [f"rows {got} != expected {want}"]
        for r in rows:
            acc = r["overall_accuracy"]
            if r["target"] != target:
                problems.append(f"row target {r['target']!r} != {target!r}")
            if r["k"] == 0 and acc != self.accuracy:
                problems.append(f"k=0 accuracy {acc} != evaluate accuracy {self.accuracy}")
            if target != "weights":
                continue
            recomputed = self.weights_accuracy(r["zeroed_steps"])
            if (acc, r["per_class_accuracy"]) != recomputed:
                problems.append(
                    f"class {r['class']} k={r['k']}: accuracies {acc}, "
                    f"{r['per_class_accuracy']} != {recomputed} recomputed from step logits")
        return problems

    def _check_export(self) -> List[str]:
        manifest = json.loads((self.export_dir / "manifest.json").read_text())
        want = [f"weight_map_class{c}.csv" for c in range(ANALYZE_CLASSES)]
        want += ["class_similarity.csv", "counterfactuals.json"]
        if manifest.get("files") != want:
            return [f"manifest lists {manifest.get('files')}, expected {want}"]
        rows = json.loads((self.export_dir / "counterfactuals.json").read_text())
        return self._check_rows(rows, range(ANALYZE_CLASSES), EXPORT_KS, "inputs")

    def identity_fit(self):
        """A short checkpoint fit whose weights the tracer must leave
        bit-identical."""
        model, _ = self.train_checkpoint(3)
        return self.nv.train.param_tree(model)


def make(nv, name: str):
    if name == "train-long":
        return TrainWorkload(nv, TrainShape(
            classes=2, horizon=234, per_class=29, cell="gru", layers=1,
            bidirectional=False, batch_size=0, epochs=2, reference_reps=1))
    if name == "train-minibatch":
        return TrainWorkload(nv, TrainShape(
            classes=2, horizon=24, per_class=10, cell="lstm", layers=2,
            bidirectional=True, batch_size=4, epochs=2, reference_reps=30))
    if name == "analyze":
        return AnalyzeWorkload(nv)
    raise KeyError(name)


NAMES = ("train-long", "train-minibatch", "analyze")
