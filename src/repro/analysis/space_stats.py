"""Monte-Carlo statistics of a search (sub)space.

Used to characterize what a space *offers* before searching it — the
latency/FLOPs/depth distribution a uniform sampler sees — and to
diagnose shrinking decisions (how a pinned operator shifts those
distributions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.space.architecture import Architecture
from repro.space.search_space import SearchSpace


@dataclass(frozen=True)
class Distribution:
    """Five-number summary + mean of a sampled quantity."""

    mean: float
    std: float
    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float

    @classmethod
    def from_samples(cls, values: np.ndarray) -> "Distribution":
        if values.size == 0:
            raise ValueError("no samples")
        return cls(
            mean=float(values.mean()),
            std=float(values.std()),
            minimum=float(values.min()),
            p25=float(np.percentile(values, 25)),
            median=float(np.percentile(values, 50)),
            p75=float(np.percentile(values, 75)),
            maximum=float(values.max()),
        )

    def __str__(self) -> str:
        return (
            f"mean {self.mean:.3g} ± {self.std:.3g} "
            f"[{self.minimum:.3g} | {self.p25:.3g} {self.median:.3g} "
            f"{self.p75:.3g} | {self.maximum:.3g}]"
        )


@dataclass(frozen=True)
class SpaceStats:
    """Sampled distributions of a space's key quantities."""

    num_samples: int
    flops: Distribution
    params: Distribution
    depth: Distribution
    latency_ms: Optional[Distribution] = None


def space_statistics(
    space: SearchSpace,
    num_samples: int = 200,
    seed: int = 0,
    latency_fn: Optional[Callable[[Architecture], float]] = None,
) -> SpaceStats:
    """Estimate the space's FLOPs/params/depth (and latency) distributions.

    ``latency_fn`` is optional because it requires a device; pass
    ``device.latency_ms`` or a predictor's ``predict`` bound to a space.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    rng = np.random.default_rng(seed)
    archs = space.sample_many(rng, num_samples)
    flops = np.array([space.arch_flops(a) for a in archs])
    params = np.array([space.arch_params(a) for a in archs])
    depth = np.array([float(a.depth()) for a in archs])
    latency = None
    if latency_fn is not None:
        latency = Distribution.from_samples(
            np.array([latency_fn(a) for a in archs])
        )
    return SpaceStats(
        num_samples=num_samples,
        flops=Distribution.from_samples(flops),
        params=Distribution.from_samples(params),
        depth=Distribution.from_samples(depth),
        latency_ms=latency,
    )


def feasible_fraction(
    space: SearchSpace,
    latency_fn: Callable[[Architecture], float],
    target_ms: float,
    tolerance: float = 0.05,
    num_samples: int = 200,
    seed: int = 0,
) -> float:
    """Fraction of uniform samples within ``tolerance`` of the target.

    A sanity metric before searching: if the fraction is ~0, the EA is
    hunting a needle (expect slower convergence); if it is large, random
    search would already do fine.
    """
    if target_ms <= 0 or tolerance < 0:
        raise ValueError("target must be positive and tolerance non-negative")
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(num_samples):
        lat = latency_fn(space.sample(rng))
        if abs(lat / target_ms - 1.0) <= tolerance:
            hits += 1
    return hits / num_samples
