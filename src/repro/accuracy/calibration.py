"""Calibration data and fits for the accuracy surrogate.

``ACCURACY_ANCHORS`` lists published (FLOPs, top-1 error) pairs of
*searched* mobile architectures — the quality level HSCoNAS's
ShuffleNetV2-block space is known to reach. The capacity curve is a
three-parameter saturating power law fit to these anchors with scipy
(imported by :func:`fit_capacity_curve` alone, so importing this module
does not load it);
the top-1 -> top-5 mapping is a least-squares line through the paired
error rates reported in the paper's Table I.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

# (name, MACs, published top-1 error %) — searched mobile models.
ACCURACY_ANCHORS: Tuple[Tuple[str, float, float], ...] = (
    ("MobileNetV3-Large", 219e6, 24.8),
    ("FBNet-A", 249e6, 27.0),
    ("FBNet-B", 295e6, 25.9),
    ("MnasNet-A1", 312e6, 24.8),
    ("ProxylessNAS-Mobile", 320e6, 25.4),
    ("FBNet-C", 375e6, 25.1),
    ("ProxylessNAS-GPU", 465e6, 24.9),
    ("DARTS", 574e6, 26.7),
    ("ShuffleNetV2-2x", 591e6, 25.1),
)

# Paired (top-1, top-5) error rates from the paper's Table I.
TOP5_PAIRS: Tuple[Tuple[float, float], ...] = (
    (26.7, 8.7),
    (24.8, 7.5),
    (27.0, 9.1),
    (25.9, 8.2),
    (25.1, 7.7),
    (24.9, 7.5),
    (25.4, 7.8),
)


@dataclass(frozen=True)
class CapacityCurve:
    """``err(C) = floor + scale * (C / 3e8) ** (-gamma)`` in error points."""

    floor: float
    scale: float
    gamma: float
    ref_flops: float = 3e8

    def error_at(self, flops: float) -> float:
        return float(self.errors_at(np.array([flops], dtype=np.float64))[0])

    def errors_at(self, flops: np.ndarray) -> np.ndarray:
        """:meth:`error_at` of every entry of a float64 array.

        The power is Python's ``**`` per element: numpy's array
        ``power`` differs from it in the last bit on some values.
        """
        if (flops <= 0).any():
            raise ValueError("flops must be positive")
        exponent = -self.gamma
        powers = [ratio**exponent for ratio in (flops / self.ref_flops).tolist()]
        return self.floor + self.scale * np.array(powers, dtype=np.float64)


def frontier_curve() -> CapacityCurve:
    """The default capacity curve used by the surrogate.

    Calibrated on the *searched frontier*: it passes through
    MobileNetV3-Large (219M MACs, 24.8% top-1 error) — the best
    published searched model in the paper's comparison — and matches the
    within-family scaling slope of MobileNetV2 (0.75x/1.0x/1.4x). Models
    from well-run NAS in an efficient block space (which HSCoNAS's
    ShuffleNetV2 space is) sit on this curve; older or hardware-agnostic
    designs sit above it by their structural penalties.
    """
    return CapacityCurve(floor=20.0, scale=4.0, gamma=0.52)


def fit_capacity_curve(
    anchors: Sequence[Tuple[str, float, float]] = ACCURACY_ANCHORS,
) -> CapacityCurve:
    """Least-squares fit of the saturating capacity curve to the anchors.

    The fit is deliberately loose (the anchors scatter by ~1 point at
    equal FLOPs — that scatter is architecture quality, which the
    surrogate models separately), but it pins the level and slope of the
    capacity/accuracy trade-off that the EA exploits.
    """
    flops = np.array([a[1] for a in anchors])
    errors = np.array([a[2] for a in anchors])

    def residual(params: np.ndarray) -> np.ndarray:
        floor, scale, gamma = params
        pred = floor + scale * (flops / 3e8) ** (-gamma)
        return pred - errors

    from scipy import optimize

    result = optimize.least_squares(
        residual,
        x0=np.array([20.0, 4.0, 0.5]),
        bounds=(np.array([0.0, 0.0, 0.01]), np.array([26.0, 30.0, 1.5])),
    )
    floor, scale, gamma = result.x
    return CapacityCurve(float(floor), float(scale), float(gamma))


@dataclass(frozen=True)
class Top5Mapping:
    """Linear top-1 -> top-5 error mapping fit to the paper's pairs."""

    slope: float
    intercept: float

    def top5_of(self, top1: float) -> float:
        return max(0.1, self.slope * top1 + self.intercept)


def fit_top5_mapping(
    pairs: Sequence[Tuple[float, float]] = TOP5_PAIRS,
) -> Top5Mapping:
    """Least-squares line through the (top-1, top-5) error pairs."""
    top1 = np.array([p[0] for p in pairs])
    top5 = np.array([p[1] for p in pairs])
    slope, intercept = np.polyfit(top1, top5, deg=1)
    return Top5Mapping(float(slope), float(intercept))
