"""A seeded mutation fuzzer for checkpoints.

Each mutant of a valid checkpoint goes through ``main(["evaluate", ...])``
and must exit 0, or exit 1 or 2 with exactly one ``error:`` line on stderr
(``warning:`` lines aside) and no traceback. The mutants run in one child
process under its own address-space limit, so a size the decoder fails to
check before it allocates fails this test instead of taking the machine's
memory. Run as a script, this file is that child:
``python tests/test_checkpoint_fuzz.py DIR`` prints one JSON report.
"""

import contextlib
import io
import json
import random
import sys
import warnings
from pathlib import Path

from helpers import run_pinned
from neuroview.cli import TWICE_STORED

SEED = 0
MUTANTS = 400
ADDRESS_SPACE = 1 << 30  # bytes

RETYPED = [None, True, False, 0, 1, 2.5, "x", "", [], {}, [0], {"a": 1},
           float("nan"), float("inf")]
HUGE_OR_NEGATIVE = [-1, -(2**31), 2**31, 2**63, 10**15, 10**30, -(10**18), 10**400]
DEPTHS = [2, 64, 5000]
DEEP = "__deep__"
# The facts a checkpoint stores twice, as the paths of their two copies.
COPIES = ([(("run_config", key), path) for key, path in TWICE_STORED]
          + [(("run_config", "seed"), ("seed",))])
NAMES = ["rnn", "gru", "lstm", "nv", "last", "avg"]


def _target(doc, rng):
    """A random ``(container, key)`` inside ``doc``: a walk from the top
    that stops at each level with probability 1/2, and always at a leaf."""
    container = doc
    while True:
        key = rng.choice(list(container) if isinstance(container, dict)
                         else range(len(container)))
        value = container[key]
        if not isinstance(value, (dict, list)) or not value or rng.random() < 0.5:
            return container, key
        container = value


def _change_a_copy(doc, rng):
    """One copy of a fact that ``doc`` stores twice, if it is still there,
    given another value of its type."""
    *parents, key = rng.choice(rng.choice(COPIES))
    container = doc
    for name in parents:
        container = container.get(name) if isinstance(container, dict) else None
    if not isinstance(container, dict) or key not in container:
        return
    value = container[key]
    if isinstance(value, bool):
        container[key] = not value
    elif isinstance(value, int):
        container[key] = value + rng.choice([-1, 1, 2])
    elif isinstance(value, str):
        container[key] = rng.choice([name for name in NAMES if name != value])


def mutate(text, rng):
    """``text``, a checkpoint, with one to three of: a value of another JSON
    type, a deleted key or entry, an added key, a huge or negative integer,
    a deeply nested array, one copy of a fact stored twice changed; then,
    one time in eight, cut short."""
    doc = json.loads(text)
    depth = rng.choice(DEPTHS)
    for _ in range(rng.randint(1, 3)):
        container, key = _target(doc, rng)
        op = rng.choice(["retype", "delete", "add", "int", "nest", "copy"])
        if op == "copy":
            _change_a_copy(doc, rng)
        elif op == "delete":
            del container[key]
        elif op == "add" and isinstance(container, dict):
            container[f"extra{rng.randint(0, 9)}"] = rng.choice(RETYPED)
        elif op == "int":
            container[key] = rng.choice(HUGE_OR_NEGATIVE)
        elif op == "nest":
            container[key] = DEEP
        else:
            container[key] = rng.choice(RETYPED)
        if not doc:
            break
    out = json.dumps(doc).replace(f'"{DEEP}"', "[" * depth + "]" * depth)
    if rng.random() < 1 / 8:
        out = out[:rng.randrange(len(out))]
    return out


def run_mutants(workdir):
    """Score every mutant and return the report: the count of each exit code
    and the mutants that broke the contract, with their stderr."""
    from neuroview.cells import CellKind, InitKind, InitScheme
    from neuroview.cli import RunConfig, main, save_checkpoint
    from neuroview.data import save_ucr, synth_separable
    from neuroview.network import EncoderConfig, HeadKind
    from neuroview.train import build_model

    workdir = Path(workdir)
    split, ckpt, mutant = workdir / "split.tsv", workdir / "ckpt.json", workdir / "mutant.json"
    save_ucr(synth_separable(2, 6, 1, 2, seed=0), split)
    enc = EncoderConfig(CellKind.GRU, 1, 2, 6, layers=2, bidirectional=True)
    save_checkpoint(ckpt, build_model(enc, HeadKind.NEUROVIEW, 2, InitScheme(InitKind.UNIFORM, 1)),
                    RunConfig(cell="gru", hidden_dim=2, layers=2, bidirectional=True))
    text = ckpt.read_text()
    rng = random.Random(SEED)
    codes, failures = {}, []
    for i in range(MUTANTS):
        mutant.write_text(mutate(text, rng))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("always")
            try:
                code = main(["evaluate", "--checkpoint", str(mutant),
                             "--dataset-path", str(split)])
            except Exception as e:  # escaped main: a traceback for the user
                code = f"{type(e).__name__}: {e}"
        stderr = err.getvalue()
        errors = [line for line in stderr.splitlines() if not line.startswith("warning: ")]
        ok = (code == 0 and not errors) or (
            code in (1, 2) and len(errors) == 1 and errors[0].startswith("error: "))
        outcome = str(code) if code in (0, 1, 2) else "escaped"
        codes[outcome] = codes.get(outcome, 0) + 1
        if not ok or "Traceback" in stderr:
            failures.append({"mutant": i, "code": str(code), "stderr": stderr[-500:]})
    return {"codes": codes, "failures": failures}


def _limit_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def test_checkpoint_mutants_exit_cleanly_with_one_error_line(tmp_path):
    report = run_pinned(__file__, str(tmp_path), preexec_fn=_limit_address_space)
    assert report["failures"] == []
    # Every outcome occurs: a load that succeeds, a rejected checkpoint and
    # a nesting too deep to parse, and nothing else.
    assert sorted(report["codes"]) == ["0", "1", "2"]
    assert sum(report["codes"].values()) == MUTANTS


if __name__ == "__main__":
    print(json.dumps(run_mutants(sys.argv[1])))
