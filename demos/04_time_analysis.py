#!/usr/bin/env python3
"""Counterfactual timestep ablation.

Rank a class's timesteps by their mean classifier weight, zero the input
data at the top-K of them for every test sequence, and watch the accuracy
respond. Zeroing the most positive steps starves the class of evidence;
zeroing the most negative steps removes counter-evidence and should never
meaningfully hurt it. Each table is one ``sweep`` call: the unablated
forward pass runs once, and each ablated pass resumes in its arrays at the
first zeroed step.
"""

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
    synth_separable,
    sweep,
)

train = synth_separable(2, 24, 1, 20, seed=11, amplitude=3.0)
test = synth_separable(2, 24, 1, 40, seed=22, amplitude=3.0)
encoder = EncoderConfig(CellKind.GRU, 1, 8, train.horizon)
model, _ = fit(train, TrainConfig(epochs=400, seed=11), encoder,
               HeadKind.NEUROVIEW, InitScheme(InitKind.UNIFORM, 11))

base = evaluate(model, test)
print(f"unmodified test accuracy: {base.overall_accuracy:.3f}\n")

cls = 0
inputs = AblationTarget.INPUTS


def table(mode, ks):
    for r in sweep(model, test, [(cls, k, mode, inputs) for k in ks]):
        pc = r.report.per_class_accuracy
        print(f"{r.k:3d} {str(sorted(r.zeroed_steps)):24s} "
              f"{r.report.overall_accuracy:8.3f} {pc[0]:8.3f} {pc[1]:8.3f}")


print(f"zeroing input data at class-{cls}'s highest-weight timesteps:")
print(f"{'k':>3s} {'zeroed steps':24s} {'overall':>8s} {'class 0':>8s} {'class 1':>8s}")
table(AblationMode.TOP_POSITIVE, (0, 1, 3, 6, 10))

print(f"\nsame, but zeroing class-{cls}'s most NEGATIVE timesteps:")
table(AblationMode.TOP_NEGATIVE, (0, 1, 5))
