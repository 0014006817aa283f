"""The calibrated ImageNet-accuracy surrogate.

``top1_error(arch) = capacity_curve(FLOPs) + structural penalties +
deterministic residual``. The penalties encode well-established design
knowledge the EA must navigate:

* **excessive skips** collapse effective depth and hurt accuracy far
  beyond their FLOPs savings;
* a **width bottleneck** (one very narrow layer) throttles information
  flow through the whole network;
* **erratic width profiles** (large layer-to-layer factor variance)
  train worse than smooth ones;
* mild **kernel-diversity** benefit, as reported by multi-kernel NAS
  papers.

The residual is a zero-mean pseudo-random offset seeded by the
architecture digest — two evaluations of the same architecture always
agree, but near-identical architectures differ by a realistic scatter,
so the EA cannot exploit a perfectly smooth objective.

The surrogate also exposes the *weight-sharing proxy* accuracy used
during search: a noisier, systematically lower score whose ranking is
imperfectly correlated with the stand-alone score (as with real
supernets).
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence

import numpy as np

from repro.accuracy.calibration import (
    CapacityCurve,
    Top5Mapping,
    fit_top5_mapping,
    frontier_curve,
)
from repro.accuracy.features import ArchFeatures, extract_features, features_many
from repro.space.architecture import Architecture
from repro.space.search_space import SearchSpace
from repro.streams import seeded_normals


def _seed_bytes(digest: str, salt: str) -> bytes:
    """The little-endian bytes of a digest's 64-bit residual seed."""
    return hashlib.sha256((digest + salt).encode()).digest()[:8]


def _digest_seed(digest: str, salt: str) -> int:
    return int.from_bytes(_seed_bytes(digest, salt), "little")


def _digest_residual(digest: str, salt: str, sigma: float) -> float:
    """Deterministic ~N(0, sigma) draw keyed by an architecture digest."""
    return float(np.random.default_rng(_digest_seed(digest, salt)).normal(0.0, sigma))


def _digest_residuals(digests: List[str], salt: str, sigma: float) -> List[float]:
    """:func:`_digest_residual` of every digest, drawn in one pass.

    Each seed's bytes are its two little-endian uint32 entropy words;
    ``normal(0, sigma)`` computes ``0.0 + sigma * z``.
    """
    seeds = b"".join(_seed_bytes(digest, salt) for digest in digests)
    words = np.frombuffer(seeds, dtype="<u4").reshape(len(digests), 2)
    return (0.0 + sigma * seeded_normals(words, 1)[:, 0]).tolist()


class AccuracySurrogate:
    """Maps architectures to (proxy and stand-alone) ImageNet accuracy.

    Parameters
    ----------
    space:
        The search space the architectures live in (provides FLOPs).
    curve:
        Capacity curve; defaults to the anchor fit.
    residual_sigma:
        Scatter (error points) of the per-architecture residual.
    proxy_gap:
        Systematic accuracy gap of weight-sharing evaluation vs.
        stand-alone training (error points; supernets score lower).
    proxy_sigma:
        Extra scatter of the weight-sharing proxy score.
    flops_scale:
        Multiplier applied to architecture FLOPs before entering the
        capacity curve. The curve is calibrated at ImageNet scale;
        scaled-down proxy spaces map onto it by relative capacity (see
        :meth:`for_space`).
    """

    # The A-layout space tops out near this capacity; proxy spaces are
    # mapped so *their* maximum architecture lands at the same point.
    _REFERENCE_MAX_FLOPS = 2.3e8

    def __init__(
        self,
        space: SearchSpace,
        curve: Optional[CapacityCurve] = None,
        top5_mapping: Optional[Top5Mapping] = None,
        residual_sigma: float = 0.15,
        proxy_gap: float = 8.0,
        proxy_sigma: float = 0.35,
        flops_scale: float = 1.0,
    ):
        self.space = space
        self.curve = curve if curve is not None else frontier_curve()
        self.top5_mapping = (
            top5_mapping if top5_mapping is not None else fit_top5_mapping()
        )
        if residual_sigma < 0 or proxy_sigma < 0:
            raise ValueError("sigmas must be non-negative")
        if flops_scale <= 0:
            raise ValueError("flops_scale must be positive")
        self.residual_sigma = residual_sigma
        self.proxy_gap = proxy_gap
        self.proxy_sigma = proxy_sigma
        self.flops_scale = flops_scale

    @classmethod
    def for_space(cls, space: SearchSpace, **kwargs) -> "AccuracySurrogate":
        """Surrogate with capacity auto-scaled to the space.

        ImageNet-scale spaces (>= 50M MACs at the top end) use absolute
        FLOPs; smaller proxy spaces are rescaled so their largest
        architecture matches the A-layout's capacity, keeping the
        error landscape (and hence the NAS dynamics) comparable.
        """
        probe = Architecture.uniform(space.num_layers, op_index=2, factor=1.0)
        max_flops = space.arch_flops(probe)
        scale = 1.0 if max_flops >= 5e7 else cls._REFERENCE_MAX_FLOPS / max_flops
        return cls(space, flops_scale=scale, **kwargs)

    # -- structural penalties -------------------------------------------------

    @staticmethod
    def _penalties(feats: ArchFeatures) -> float:
        penalty = 0.0
        # Excessive skip connections: a couple of skips are harmless
        # (residual-like shortcuts), but beyond ~L/8 each one removes a
        # transformation stage and costs real accuracy.
        free_skips = feats.num_layers // 8
        num_skips = feats.num_layers - feats.depth
        if num_skips > free_skips:
            penalty += 0.45 * (num_skips - free_skips) ** 1.3
        # Width bottleneck below factor 0.3.
        if feats.min_factor < 0.3:
            penalty += 8.0 * (0.3 - feats.min_factor)
        # Erratic width profile.
        penalty += 1.2 * feats.std_factor
        # Kernel diversity bonus (small).
        if feats.num_distinct_ops >= 3:
            penalty -= 0.15
        return penalty

    # -- stand-alone (train-from-scratch) accuracy ------------------------------

    def top1_error(self, arch: Architecture) -> float:
        """Stand-alone top-1 error (%) after full training."""
        residual = _digest_residual(
            arch.digest(), salt="standalone", sigma=self.residual_sigma
        )
        return self._top1_error(extract_features(self.space, arch), residual)

    def _top1_error(self, feats: ArchFeatures, residual: float) -> float:
        error = self.curve.error_at(feats.flops * self.flops_scale)
        error += self._penalties(feats)
        error += residual
        return float(min(max(error, 5.0), 95.0))

    def top5_error(self, arch: Architecture) -> float:
        """Stand-alone top-5 error (%), via the fitted top-1 mapping."""
        return round(self.top5_mapping.top5_of(self.top1_error(arch)), 1)

    def accuracy(self, arch: Architecture) -> float:
        """Stand-alone top-1 accuracy as a fraction in [0, 1].

        This is the ``ACC(arch)`` consumed by the paper's objective
        (Eq. 1).
        """
        return (100.0 - self.top1_error(arch)) / 100.0

    # -- weight-sharing proxy accuracy -----------------------------------------

    def proxy_accuracy(self, arch: Architecture) -> float:
        """Supernet-inherited (weight-sharing) top-1 accuracy fraction.

        Systematically below stand-alone accuracy and noisier, but
        rank-correlated with it — the regime in which one-shot NAS
        actually operates.
        """
        digest = arch.digest()
        return self._proxy_accuracy(
            extract_features(self.space, arch),
            _digest_residual(digest, salt="standalone", sigma=self.residual_sigma),
            _digest_residual(digest, salt="proxy", sigma=self.proxy_sigma),
        )

    def proxy_accuracy_many(self, archs: Sequence[Architecture]) -> List[float]:
        """:meth:`proxy_accuracy` of every architecture, bit for bit:
        features from one pass over the batch's gene arrays
        (:func:`features_many`), residual streams seeded in bulk."""
        archs = list(archs)
        digests = [arch.digest() for arch in archs]
        standalone = _digest_residuals(digests, "standalone", self.residual_sigma)
        proxy = _digest_residuals(digests, "proxy", self.proxy_sigma)
        return [
            self._proxy_accuracy(feats, s, p)
            for feats, s, p in zip(
                features_many(self.space, archs), standalone, proxy
            )
        ]

    def _proxy_accuracy(
        self, feats: ArchFeatures, standalone: float, proxy: float
    ) -> float:
        error = self._top1_error(feats, standalone) + self.proxy_gap
        error += proxy
        return float(min(max((100.0 - error) / 100.0, 0.0), 1.0))
