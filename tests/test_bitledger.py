import os
import subprocess
import sys
from pathlib import Path

import neuroview

import bitledger

# Every cell with a 2-layer bidirectional nv model in batches of 3, whose
# sweeps run over both layers and directions, and with a one-layer
# last-state model in full batches.
SLICE = [["nv", "l2bi", "b3"], ["last", "l1", "bfull"]]


def test_bit_ledger_repeats_in_process_and_in_a_fresh_one():
    # The determinism that "bit-identical to the parent" claims rest on: a
    # slice of the ledger gives equal lines twice in one process and once
    # in a child that imports the same library.
    first = bitledger.ledger(SLICE)
    assert len(first) == 12
    assert bitledger.ledger(SLICE) == first
    env = {**os.environ, "PYTHONPATH": str(Path(neuroview.__file__).parents[1])}
    argv = [arg for parts in SLICE for arg in ("--subset", ",".join(parts))]
    child = subprocess.run([sys.executable, bitledger.__file__, *argv], env=env,
                           capture_output=True, text=True, check=True, timeout=300)
    assert child.stdout.splitlines() == first
