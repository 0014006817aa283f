"""Structural features of an architecture, consumed by the surrogate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Sequence

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


class FeatureColumns(NamedTuple):
    """:class:`ArchFeatures` of a batch: one ``(N,)`` array per field,
    row ``i`` from the batch's ``i``-th architecture (int64 counts,
    float64 measures)."""

    flops: np.ndarray
    depth: np.ndarray
    num_layers: np.ndarray
    mean_factor: np.ndarray
    std_factor: np.ndarray
    min_factor: np.ndarray
    num_distinct_ops: np.ndarray
    mean_kernel: np.ndarray

    @classmethod
    def of(cls, feats: ArchFeatures) -> "FeatureColumns":
        """The columns of a batch of one."""
        return cls._make(np.array([getattr(feats, name)]) for name in cls._fields)


def feature_columns(
    space: SearchSpace, archs: Sequence[Architecture]
) -> FeatureColumns:
    """:func:`extract_features` of every architecture as columns, bit for
    bit.

    The population is scored as ``(N, L)`` gene arrays: MACs from
    :meth:`SearchSpace.arch_flops_many`, and the factor mean, standard
    deviation and minimum reduced row by row. A row reduction runs
    numpy's 1-D summation over each row, so it matches the 1-D calls of
    :func:`extract_features`; that is numpy's behaviour rather than a
    documented contract, and ``tests/accuracy/test_features_many.py``
    holds it. Depth, kernel sums and distinct operators are integer
    counts, and their float quotient is the one ``sum / len`` rounds.
    """
    ops, factors = space.gene_arrays(archs)
    non_skip = ~IS_SKIP_ARRAY[ops]
    used = np.zeros((len(ops), NUM_OPERATORS), dtype=bool)
    used[np.arange(len(ops))[:, None], ops] = True
    used &= ~IS_SKIP_ARRAY
    depth = non_skip.sum(axis=1)
    kernel_sum = (KERNEL_SIZE_ARRAY[ops] * non_skip).sum(axis=1)
    mean_kernel = np.zeros(len(ops))
    np.divide(kernel_sum, depth, out=mean_kernel, where=depth > 0)
    return FeatureColumns(
        flops=space.arch_flops_many(ops, factors),
        depth=depth,
        num_layers=np.full(len(ops), space.num_layers),
        mean_factor=factors.mean(axis=1),
        std_factor=factors.std(axis=1),
        min_factor=factors.min(axis=1),
        num_distinct_ops=used.sum(axis=1),
        mean_kernel=mean_kernel,
    )


def features_many(
    space: SearchSpace, archs: Sequence[Architecture]
) -> List[ArchFeatures]:
    """:func:`extract_features` of every architecture, bit for bit: the
    rows of :func:`feature_columns` as Python ``int``/``float`` fields."""
    columns = feature_columns(space, archs)
    return [
        ArchFeatures(*row) for row in zip(*(column.tolist() for column in columns))
    ]
