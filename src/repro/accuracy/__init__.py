"""Accuracy models.

The paper evaluates candidate architectures with weight-sharing
(supernet-inherited) accuracy during search, and trains the discovered
HSCoNets from scratch on ImageNet for the final comparison. Training
1000-class ImageNet models is infeasible in a numpy-only environment, so
this package provides a **calibrated accuracy surrogate**: a saturating
capacity->error curve fit to published (FLOPs, top-1) anchor points of
searched mobile architectures, plus structural penalty terms (excessive
skips, width bottlenecks) and a deterministic per-architecture residual.

The surrogate is only used where the paper consumed a scalar ``ACC``;
the *mechanisms* (weight sharing, channel masking, progressive
shrinking) are additionally demonstrated with real numpy training on a
synthetic task via :mod:`repro.train`.

Note the paper itself quotes baseline accuracies from the literature —
only latencies were re-measured — and this reproduction does the same
(see :mod:`repro.baselines.zoo`).
"""

from repro.accuracy.features import ArchFeatures, extract_features, features_many
from repro.accuracy.calibration import (
    ACCURACY_ANCHORS,
    TOP5_PAIRS,
    CapacityCurve,
    fit_capacity_curve,
    fit_top5_mapping,
    frontier_curve,
)
from repro.accuracy.surrogate import AccuracySurrogate

__all__ = [
    "ArchFeatures",
    "extract_features",
    "features_many",
    "ACCURACY_ANCHORS",
    "TOP5_PAIRS",
    "CapacityCurve",
    "fit_capacity_curve",
    "fit_top5_mapping",
    "frontier_curve",
    "AccuracySurrogate",
]
