"""Structural features of an architecture, consumed by the surrogate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.space.architecture import Architecture
from repro.space.operators import operators
from repro.space.search_space import SearchSpace

# Per-operator-index lookups: feature extraction runs once per scored
# architecture, so it reads these instead of an ``OperatorSpec`` per layer.
_IS_SKIP = tuple(op.is_skip for op in operators())
_KERNEL = tuple(op.kernel_size for op in operators())


@dataclass(frozen=True)
class ArchFeatures:
    """Capacity and shape descriptors of one architecture.

    Attributes
    ----------
    flops:
        Total MACs (stem + searchable layers + head).
    depth:
        Number of non-skip layers.
    num_layers:
        Searchable layer count ``L``.
    mean_factor, std_factor, min_factor:
        Channel scaling profile statistics.
    num_distinct_ops:
        Operator diversity (distinct non-skip operator kinds used).
    mean_kernel:
        Average kernel size over non-skip layers (0 if all skip).
    """

    flops: float
    depth: int
    num_layers: int
    mean_factor: float
    std_factor: float
    min_factor: float
    num_distinct_ops: int
    mean_kernel: float


def extract_features(space: SearchSpace, arch: Architecture) -> ArchFeatures:
    """Compute :class:`ArchFeatures` for ``arch`` within ``space``."""
    # Mean and std stay in numpy: its pairwise summation order is part
    # of the surrogate's values.
    factors = np.asarray(arch.factors, dtype=np.float64)
    non_skip = [op for op in arch.ops if not _IS_SKIP[op]]
    # Kernel sizes are small integers, so the float sum is exact and
    # ``sum / len`` equals ``np.mean``.
    kernel_sum = sum(_KERNEL[op] for op in non_skip)
    return ArchFeatures(
        flops=space.arch_flops(arch),
        depth=len(non_skip),
        num_layers=arch.num_layers,
        mean_factor=float(factors.mean()),
        std_factor=float(factors.std()),
        min_factor=min(arch.factors),
        num_distinct_ops=len(set(non_skip)),
        mean_kernel=kernel_sum / len(non_skip) if non_skip else 0.0,
    )
