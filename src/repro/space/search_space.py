"""The search space ``A`` and its shrinkable subspaces.

A :class:`SearchSpace` tracks, for every layer, the candidate operator
indices and channel factors that remain available. Progressive space
shrinking (paper Sec. III-C) produces smaller spaces by fixing a single
operator for a layer; the EA then samples and mutates strictly inside
the shrunk space.
"""

from __future__ import annotations

import functools
import math
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.space.architecture import Architecture
from repro.space.config import SpaceConfig
from repro.space.cost_tables import CellCost, cost_tables
from repro.space.geometry import LayerGeometry
from repro.space.operators import NUM_OPERATORS, Primitive
from repro.streams import bounded_draws

_T = TypeVar("_T")


def pick(rng: np.random.Generator, cands: Sequence[_T]) -> _T:
    """One uniform draw from ``cands``.

    Same value, and the same Generator state afterwards, as the element
    ``rng.choice(cands)`` returns (``Generator.choice`` draws its index
    with ``integers(0, len(cands))``), without converting ``cands`` to
    an array first.
    """
    return cands[int(rng.integers(len(cands)))]


class SearchSpace:
    """Candidate sets per layer plus the analytic cost model.

    Parameters
    ----------
    config:
        The space definition (stage plan, factors, resolution).
    candidate_ops:
        Optional per-layer operator candidate lists; defaults to all K
        operators for every layer.
    candidate_factors:
        Optional per-layer factor candidate lists; defaults to the
        config's full factor set everywhere.
    """

    def __init__(
        self,
        config: SpaceConfig,
        candidate_ops: Optional[Sequence[Sequence[int]]] = None,
        candidate_factors: Optional[Sequence[Sequence[float]]] = None,
    ):
        self.config = config
        self._costs = cost_tables(config)
        self.geometry: List[LayerGeometry] = self._costs.geometry
        num_layers = config.num_layers

        if candidate_ops is None:
            candidate_ops = [list(range(NUM_OPERATORS))] * num_layers
        if candidate_factors is None:
            candidate_factors = [list(config.channel_factors)] * num_layers
        if len(candidate_ops) != num_layers or len(candidate_factors) != num_layers:
            raise ValueError("candidate lists must have one entry per layer")

        self.candidate_ops: List[Tuple[int, ...]] = []
        for layer, ops in enumerate(candidate_ops):
            ops = tuple(sorted(set(int(o) for o in ops)))
            if not ops:
                raise ValueError(f"layer {layer} has no candidate operators")
            for o in ops:
                if not 0 <= o < NUM_OPERATORS:
                    raise ValueError(f"operator index {o} out of range")
            self.candidate_ops.append(ops)

        self.candidate_factors: List[Tuple[float, ...]] = []
        for layer, factors in enumerate(candidate_factors):
            factors = [float(f) for f in factors]
            if not factors:
                raise ValueError(f"layer {layer} has no candidate factors")
            for f in factors:
                if not 0.0 < f <= 1.0:
                    raise ValueError(f"channel factor {f} outside (0, 1]")
            self.candidate_factors.append(tuple(sorted(set(factors))))

    # -- basic properties -----------------------------------------------------

    @property
    def num_layers(self) -> int:
        return self.config.num_layers

    def space_size(self) -> float:
        """|A| — the number of distinct architectures (may exceed float64
        integer precision; returned as float, e.g. ``9.5e33``)."""
        size = 1.0
        for ops, factors in zip(self.candidate_ops, self.candidate_factors):
            size *= len(ops) * len(factors)
        return size

    def log10_size(self) -> float:
        """log10 |A| — used to verify the 3-orders-per-stage shrinking claim."""
        total = 0.0
        for ops, factors in zip(self.candidate_ops, self.candidate_factors):
            total += math.log10(len(ops) * len(factors))
        return total

    def contains(self, arch: Architecture) -> bool:
        """Whether ``arch`` lies inside this (possibly shrunk) space.

        A factor within 1e-9 of a candidate counts as that candidate.
        """
        members = self._member_sets
        if len(arch.ops) != len(members):
            return False
        for layer, (ops, factors) in enumerate(members):
            if arch.ops[layer] not in ops:
                return False
            factor = arch.factors[layer]
            if factor not in factors and not any(
                abs(factor - f) < 1e-9 for f in self.candidate_factors[layer]
            ):
                return False
        return True

    @functools.cached_property
    def _member_sets(self) -> List[Tuple[frozenset, frozenset]]:
        """Per-layer candidate ops and factors as sets, for exact hits."""
        return [
            (frozenset(ops), frozenset(factors))
            for ops, factors in zip(self.candidate_ops, self.candidate_factors)
        ]

    # -- sampling ----------------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> Architecture:
        """Uniformly sample one architecture from the space."""
        return self.sample_many(rng, 1)[0]

    def sample_many(self, rng: np.random.Generator, n: int) -> List[Architecture]:
        """``n`` uniform samples, decoded from one block of draws.

        Each sample picks every layer's operator, then every layer's
        factor, with :func:`pick`; the architectures, and the state
        ``rng`` is left in, are exactly those of ``n`` such loops.
        """
        bounds, op_table, factor_table = self._draw_tables
        idx = bounded_draws(rng, np.tile(bounds, n)).reshape(n, len(bounds))
        layers = np.arange(self.num_layers)
        ops = op_table[layers, idx[:, : self.num_layers]].tolist()
        factors = factor_table[layers, idx[:, self.num_layers :]].tolist()
        return [
            Architecture.from_candidates(tuple(o), tuple(f))
            for o, f in zip(ops, factors)
        ]

    @functools.cached_property
    def _draw_tables(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-draw bounds (ops then factors, by layer) and the padded
        per-layer candidate tables the draws index."""
        bounds = [len(c) for c in self.candidate_ops]
        bounds += [len(c) for c in self.candidate_factors]
        op_table = np.zeros((self.num_layers, max(bounds)), dtype=np.int64)
        factor_table = np.ones((self.num_layers, max(bounds)))
        for layer, (ops, factors) in enumerate(
            zip(self.candidate_ops, self.candidate_factors)
        ):
            op_table[layer, : len(ops)] = ops
            factor_table[layer, : len(factors)] = factors
        return np.array(bounds, dtype=np.int64), op_table, factor_table

    def max_architecture(self) -> Architecture:
        """The largest architecture (first op candidates, factor 1.0-ish)."""
        ops = tuple(cands[0] for cands in self.candidate_ops)
        factors = tuple(max(cands) for cands in self.candidate_factors)
        return Architecture(ops, factors)

    # -- shrinking -------------------------------------------------------------

    def fix_operator(self, layer: int, op_index: int) -> "SearchSpace":
        """Return a new space with layer ``layer`` pinned to ``op_index``."""
        if not 0 <= layer < self.num_layers:
            raise IndexError(f"layer {layer} out of range")
        if op_index not in self.candidate_ops[layer]:
            raise ValueError(
                f"operator {op_index} is not a candidate for layer {layer}"
            )
        ops = [list(c) for c in self.candidate_ops]
        ops[layer] = [op_index]
        return SearchSpace(self.config, ops, self.candidate_factors)

    def restrict_to_operator_subspace(self, layer: int, op_index: int) -> "SearchSpace":
        """The subspace used when *evaluating* candidate ``op_index`` for a
        layer during progressive shrinking — identical to
        :meth:`fix_operator` but kept as a distinct name to mirror the
        paper's procedure (sample-from-subspace vs. commit)."""
        return self.fix_operator(layer, op_index)

    def fixed_layers(self) -> Dict[int, int]:
        """Layers whose operator is already pinned: ``{layer: op_index}``."""
        return {
            layer: ops[0]
            for layer, ops in enumerate(self.candidate_ops)
            if len(ops) == 1
        }

    # -- analytic costs --------------------------------------------------------
    #
    # Every cost below reads the geometry's shared, lazily filled cost
    # tables (see :mod:`repro.space.cost_tables`); no primitive is built
    # on the FLOPs/params path.

    def out_channels(self, layer: int, factor: float) -> int:
        """Active output channels ``round(S^l * c)`` (at least 1) of a
        layer under channel factor ``factor``."""
        return self._costs.out_channels(layer, factor)

    def active_channels(self, arch: Architecture) -> List[Tuple[int, int]]:
        """Active (in, out) channel counts per layer under channel scaling.

        The active output of layer ``l`` is ``round(S^l * c^l)`` (at
        least 1); the active input is the previous layer's active output
        (the stem provides full channels to layer 0). A stride-1 skip is
        an identity: its mask can only *remove* channels, so its active
        output is ``min(active_in, round(S^l * c^l))``.
        """
        self._check_arch(arch)
        return self._costs.chain(arch.ops, arch.factors)[0]

    def operator_cell(
        self, layer: int, op_index: int, factor: float, cin: int
    ) -> CellCost:
        """Cost-table cell of one LUT cell: operator ``op_index`` at
        ``layer`` fed ``cin`` active channels, output scaled by
        ``factor``. Shared by every space of this geometry."""
        cout = self._costs.out_channels(layer, factor)
        return self._costs.cell(layer, op_index, cin, cout)

    def operator_primitives(
        self, layer: int, op_index: int, factor: float, cin: int
    ) -> Tuple[Primitive, ...]:
        """Kernels of one LUT cell (see :meth:`operator_cell`).

        The tuple is shared with every other caller; do not mutate it.
        """
        return self.operator_cell(layer, op_index, factor, cin).primitives

    def arch_primitives(self, arch: Architecture) -> List[List[Primitive]]:
        """Per-layer primitive lists (searchable layers only).

        The stem/head primitives are provided separately by
        :meth:`stem_head_primitives` because the latency LUT (paper
        Eq. 2) is built over the searchable operators while stem/head
        cost is part of the bias term's measured end-to-end latency.
        """
        self._check_arch(arch)
        cells = self._costs.chain(arch.ops, arch.factors)[1]
        return [list(cell.primitives) for cell in cells]

    def stem_primitives(self) -> List[Primitive]:
        """Primitives of the fixed stem convolution."""
        return list(self._costs.stem.primitives)

    def head_primitives(self, last_c: int) -> List[Primitive]:
        """Primitives of the classifier head for a given input width."""
        return list(self._costs.head(last_c).primitives)

    def stem_head_primitives(self, arch: Architecture) -> List[Primitive]:
        """Stem + head primitives for an architecture (head input width
        follows the last layer's active channels)."""
        last_c = self.active_channels(arch)[-1][1]
        return self.stem_primitives() + self.head_primitives(last_c)

    def arch_flops(self, arch: Architecture) -> float:
        """Total MACs including stem and head."""
        self._check_arch(arch)
        return self._costs.flops(arch.ops, arch.factors)

    def arch_params(self, arch: Architecture) -> float:
        """Total weight count including stem and head."""
        self._check_arch(arch)
        costs = self._costs
        channels, cells = costs.chain(arch.ops, arch.factors)
        total = costs.stem.params + costs.head(channels[-1][1]).params
        for cell in cells:
            total += cell.params
        return total

    # -- population costs ---------------------------------------------------------
    #
    # A population is scored as ``(N, L)`` gene arrays: one row per
    # architecture, one column per layer.

    def gene_arrays(
        self, archs: Sequence[Architecture]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(N, L)`` operator indices (int64) and channel factors
        (float64) of ``archs``, row ``i`` from ``archs[i]``.

        Raises the same ``ValueError`` as the per-architecture methods
        for an architecture with the wrong number of layers.
        """
        num_layers = self.num_layers
        for arch in archs:
            if len(arch.ops) != num_layers:
                self._check_arch(arch)
        count = len(archs) * num_layers
        ops = np.fromiter(
            chain.from_iterable(a.ops for a in archs), dtype=np.int64, count=count
        )
        factors = np.fromiter(
            chain.from_iterable(a.factors for a in archs),
            dtype=np.float64,
            count=count,
        )
        return ops.reshape(-1, num_layers), factors.reshape(-1, num_layers)

    def active_channels_many(
        self, ops: np.ndarray, factors: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`active_channels` of every row of :meth:`gene_arrays`
        output, as ``(N, L)`` int64 arrays ``(cins, couts)``."""
        return self._costs.chain_many(ops, factors)

    def arch_flops_many(self, ops: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """:meth:`arch_flops` of every row of :meth:`gene_arrays` output,
        exactly, as a float64 array."""
        return self._costs.flops_many(ops, factors)

    # -- internals ------------------------------------------------------------

    def _check_arch(self, arch: Architecture) -> None:
        if arch.num_layers != self.num_layers:
            raise ValueError(
                f"architecture has {arch.num_layers} layers; "
                f"space expects {self.num_layers}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SearchSpace(config={self.config.name!r}, "
            f"layers={self.num_layers}, log10|A|={self.log10_size():.1f})"
        )
