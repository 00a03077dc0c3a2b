#!/usr/bin/env python3
"""Read a trained classifier's per-timestep weights.

After training, row i of the global classifier matrix ``model.V`` scores
class i as an inner product with the concatenated rectified hidden
states, so slicing that row into per-timestep blocks says exactly which
timesteps push a prediction toward (positive weights) or away from
(negative weights) each class. ``weight_map(model, c)`` is that row as a
``(layers, T, directions, hidden_dim)`` array. This script trains a small
model, prints each class's mean weight per timestep as a bar strip, and
exports the analysis CSVs. Every reader here takes the model itself.
"""

import numpy as np

from neuroview import (
    AblationMode,
    CellKind,
    EncoderConfig,
    HeadKind,
    InitKind,
    InitScheme,
    TrainConfig,
    class_similarity,
    export_report,
    fit,
    rank_timesteps,
    synth_separable,
    weight_map,
)

BARS = " ▁▂▃▄▅▆▇█"


def strip(values):
    lo, hi = values.min(), values.max()
    span = (hi - lo) or 1.0
    return "".join(BARS[int(round((v - lo) / span * 8))] for v in values)


train = synth_separable(num_classes=3, horizon=30, feature_dim=1,
                        n_per_class=25, seed=7)
encoder = EncoderConfig(CellKind.GRU, 1, 8, train.horizon)
model, _ = fit(train, TrainConfig(epochs=400, seed=7), encoder,
               HeadKind.NEUROVIEW, InitScheme(InitKind.UNIFORM, 7))

print("per-timestep mean classifier weight, one strip per class")
print("(each class's evidence window sits at a different early position)\n")
for c in range(train.num_classes):
    means = weight_map(model, c).mean(axis=3)[0, :, 0]  # layer 0, forward
    top = rank_timesteps(model, c, AblationMode.TOP_POSITIVE)[:4]
    print(f"class {c}: {strip(means)}  top steps {sorted(int(t) for t in top)}")

sim = class_similarity(model)
print("\ncosine similarity between class weight rows:")
print(np.round(sim, 3))

files = export_report(model, range(train.num_classes), [], "analysis")
print(f"\nexported {len(files)} files to analysis/:")
for f in files:
    print("  ", f.name)
