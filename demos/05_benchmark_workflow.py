#!/usr/bin/env python3
"""End-to-end workflow on a real benchmark dataset, when one is on disk.

Looks for the Chinatown split of the univariate time-series archive under
$NV_UCR_DIR, data/ or data/UCRArchive_2018/. If the files are present,
this trains the per-timestep GRU classifier across three seeds, reports
test accuracy, prints the per-class weight maps, and runs the
input-zeroing counterfactual sweep. If not, it prints how to set the
data up and exits.

The same workflow is available from the command line:

    neuroview train --dataset Chinatown --cell gru --head nv --hidden 32
    neuroview inspect --checkpoint runs/latest/checkpoint.json
    neuroview counterfactual --checkpoint runs/latest/checkpoint.json \
        --dataset-path data/Chinatown/Chinatown_TEST.tsv --class 0 \
        --k-list 0 1 5 10
"""

import os
import sys
from pathlib import Path

from neuroview import (
    AblationMode,
    AblationTarget,
    CellKind,
    EncoderConfig,
    HeadKind,
    InitKind,
    InitScheme,
    TrainConfig,
    evaluate,
    fit,
    load_ucr,
    rank_timesteps,
    sweep,
)
from neuroview.cli import UsageError, resolve_dataset

NAME = "Chinatown"


def find_split():
    roots = []
    if os.environ.get("NV_UCR_DIR"):
        roots.append(Path(os.environ["NV_UCR_DIR"]))
    here = Path(__file__).resolve().parent.parent
    roots += [here / "data", here / "data" / "UCRArchive_2018"]
    for root in roots:
        try:
            train, test = resolve_dataset(NAME, str(root))
        except UsageError:
            continue
        if test:
            return train, test
    return None


found = find_split()
if found is None:
    print(f"{NAME} files not found.")
    print("Download the univariate archive (UCRArchive_2018) and place the")
    print(f"dataset folder at data/UCRArchive_2018/{NAME}/ (or set NV_UCR_DIR).")
    sys.exit(0)

train_ds = load_ucr(found[0])
test_ds = load_ucr(found[1], classes=train_ds.classes)
print(f"{NAME}: {len(train_ds)} train / {len(test_ds)} test sequences, "
      f"{train_ds.horizon} steps, {train_ds.num_classes} classes")

encoder = EncoderConfig(CellKind.GRU, train_ds.feature_dim, 32, train_ds.horizon)
best = None
for seed in (0, 1, 2):
    model, _ = fit(train_ds, TrainConfig(epochs=1000, seed=seed), encoder,
                   HeadKind.NEUROVIEW, InitScheme(InitKind.UNIFORM, seed))
    acc = evaluate(model, test_ds).overall_accuracy
    print(f"seed {seed}: test accuracy {acc:.4f}")
    if best is None or acc > best[0]:
        best = (acc, model)

acc, model = best
print(f"\nbest test accuracy: {acc:.4f}")

for c in range(train_ds.num_classes):
    top = rank_timesteps(model, c, AblationMode.TOP_POSITIVE)[:4]
    print(f"class {c} top-4 timesteps by mean weight: {sorted(int(t) for t in top)}")

print("\ninput-zeroing counterfactual, class 0 ranking:")
rows = [(0, k, AblationMode.TOP_POSITIVE, AblationTarget.INPUTS) for k in (0, 1, 5, 10)]
for r in sweep(model, test_ds, rows):
    print(f"  k={r.k:2d}: overall accuracy {r.report.overall_accuracy:.4f}")
