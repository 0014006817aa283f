"""Structural features of an architecture, consumed by the surrogate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.space.architecture import Architecture
from repro.space.operators import (
    IS_SKIP,
    IS_SKIP_ARRAY,
    KERNEL_SIZE,
    KERNEL_SIZE_ARRAY,
    NUM_OPERATORS,
)
from repro.space.search_space import SearchSpace


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
    non_skip = [op for op in arch.ops if not IS_SKIP[op]]
    # Kernel sizes are small integers, so the float sum is exact and
    # ``sum / len`` equals ``np.mean``.
    kernel_sum = sum(KERNEL_SIZE[op] for op in non_skip)
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


def features_many(
    space: SearchSpace, archs: Sequence[Architecture]
) -> List[ArchFeatures]:
    """:func:`extract_features` of every architecture, bit for bit.

    The population is scored as ``(N, L)`` gene arrays: MACs from
    :meth:`SearchSpace.arch_flops_many`, and the factor mean, standard
    deviation and minimum reduced row by row. A row reduction runs
    numpy's 1-D summation over each row, so it matches the 1-D calls of
    :func:`extract_features`; that is numpy's behaviour rather than a
    documented contract, and ``tests/accuracy/test_features_many.py``
    holds it. Depth, kernel sums and distinct operators are integer
    counts.
    """
    ops, factors = space.gene_arrays(archs)
    non_skip = ~IS_SKIP_ARRAY[ops]
    used = np.zeros((len(ops), NUM_OPERATORS), dtype=bool)
    used[np.arange(len(ops))[:, None], ops] = True
    used &= ~IS_SKIP_ARRAY
    columns = zip(
        space.arch_flops_many(ops, factors).tolist(),
        non_skip.sum(axis=1).tolist(),
        factors.mean(axis=1).tolist(),
        factors.std(axis=1).tolist(),
        factors.min(axis=1).tolist(),
        used.sum(axis=1).tolist(),
        (KERNEL_SIZE_ARRAY[ops] * non_skip).sum(axis=1).tolist(),
    )
    num_layers = space.num_layers
    return [
        ArchFeatures(
            flops=flops,
            depth=depth,
            num_layers=num_layers,
            mean_factor=mean,
            std_factor=std,
            min_factor=low,
            num_distinct_ops=distinct,
            mean_kernel=kernel_sum / depth if depth else 0.0,
        )
        for flops, depth, mean, std, low, distinct, kernel_sum in columns
    ]
