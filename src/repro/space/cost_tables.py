"""Per-layer analytic cost tables, shared by every space of one geometry.

Progressive shrinking and the EAs create many :class:`SearchSpace`
objects over one :class:`SpaceConfig` (one per ``fix_operator``), and
they all score architectures over the same layers. :func:`cost_tables`
therefore hands out one :class:`CostTables` per config *geometry* — not
per candidate set — and every subspace, search and serve thread reads
the same memo. Three tables fill lazily, on first use:

* per layer, ``factor -> active output channels`` for the config's
  factors (any other factor takes the unmemoized ``channels_kept``
  path, which also keeps its range check);
* per ``(layer, op, cin, cout)`` cell, the operator's MACs, weight count
  and primitive tuple, all derived from :meth:`OperatorSpec.primitives`
  and :meth:`OperatorSpec.params` — the single source of truth;
* per final width, the head's MACs, weight count and primitives.

MACs and weight counts are integer-valued floats far below ``2**53``,
so summing per-cell totals gives exactly the value of summing every
primitive in turn, in any order. The memo is bounded by the distinct
cells of the geometry (about 10k for the paper layouts); equal
primitives are interned, so a full LUT build adds little memory.

A fill is idempotent: two threads that miss the same entry compute
equal values and either store wins, so reads and fills take no lock.
Only the registry that maps a geometry to its tables does. Every entry
is a pure function of the geometry, so sharing the tables process-wide
never lets one caller's results depend on another's.
"""

from __future__ import annotations

import threading
from typing import Dict, List, NamedTuple, Tuple

from repro.nn.layers.mask import channels_kept
from repro.space.config import SpaceConfig
from repro.space.geometry import LayerGeometry, build_layer_geometry
from repro.space.operators import (
    _DTYPE_BYTES,
    Primitive,
    _conv1x1,
    get_operator,
    operators,
)

_IS_SKIP = tuple(op.is_skip for op in operators())


class CellCost(NamedTuple):
    """Analytic cost of one module at one width: MACs, weights, kernels."""

    flops: float
    params: float
    primitives: Tuple[Primitive, ...]


class CostTables:
    """Memoized costs of every layer of one space geometry."""

    def __init__(self, config: SpaceConfig):
        self.config = config
        self.geometry: List[LayerGeometry] = build_layer_geometry(config)
        self._config_factors = frozenset(config.channel_factors)
        self._identity_skip_layer = [g.stride == 1 for g in self.geometry]
        self._out_channels: List[Dict[float, int]] = [{} for _ in self.geometry]
        self._cells: Dict[Tuple[int, int, int, int], CellCost] = {}
        self._heads: Dict[int, CellCost] = {}
        self._interned: Dict[Primitive, Primitive] = {}
        self.stem = self._stem_cost()

    # -- lookups ----------------------------------------------------------------

    def out_channels(self, layer: int, factor: float) -> int:
        """Active output channels of ``layer`` under ``factor``."""
        memo = self._out_channels[layer]
        cout = memo.get(factor)
        if cout is None:
            cout = channels_kept(self.geometry[layer].max_out_channels, factor)
            if factor in self._config_factors:
                memo[factor] = cout
        return cout

    def cell(self, layer: int, op: int, cin: int, cout: int) -> CellCost:
        """Cost of operator ``op`` at ``layer`` with active ``cin -> cout``."""
        key = (layer, op, cin, cout)
        cost = self._cells.get(key)
        if cost is None:
            geom = self.geometry[layer]
            spec = get_operator(op)
            prims = self._intern(
                spec.primitives(cin, cout, geom.in_size, geom.stride)
            )
            cost = CellCost(
                sum(p.flops for p in prims),
                spec.params(cin, cout, geom.stride),
                prims,
            )
            self._cells[key] = cost
        return cost

    def head(self, last_c: int) -> CellCost:
        """Cost of the classifier head fed ``last_c`` active channels."""
        cost = self._heads.get(last_c)
        if cost is None:
            cost = self._heads[last_c] = self._head_cost(last_c)
        return cost

    def chain(
        self, ops: Tuple[int, ...], factors: Tuple[float, ...]
    ) -> Tuple[List[Tuple[int, int]], List[CellCost]]:
        """Active ``(cin, cout)`` and the cell cost of every layer.

        The active input of a layer is the previous layer's active
        output (the stem feeds layer 0 in full). A stride-1 skip is an
        identity whose mask can only remove channels, so its output is
        ``min(cin, out_channels(layer, factor))``.
        """
        channels: List[Tuple[int, int]] = []
        cells: List[CellCost] = []
        memo = self._cells
        cin = self.config.stem_channels
        # The hit paths of out_channels() and cell() are inlined: this
        # loop runs once per layer of every scored architecture.
        for layer, (op, factor, out_memo, identity_layer) in enumerate(
            zip(ops, factors, self._out_channels, self._identity_skip_layer)
        ):
            cout = out_memo.get(factor)
            if cout is None:
                cout = self.out_channels(layer, factor)
            if cout > cin and identity_layer and _IS_SKIP[op]:
                cout = cin
            cell = memo.get((layer, op, cin, cout))
            if cell is None:
                cell = self.cell(layer, op, cin, cout)
            channels.append((cin, cout))
            cells.append(cell)
            cin = cout
        return channels, cells

    # -- construction -------------------------------------------------------------

    def _intern(self, prims: List[Primitive]) -> Tuple[Primitive, ...]:
        interned = self._interned
        return tuple(interned.setdefault(p, p) for p in prims)

    def _stem_cost(self) -> CellCost:
        cfg = self.config
        s_in = cfg.input_size
        s_stem = s_in // 2
        stem = Primitive(
            name="stem-conv3x3",
            kind="conv",
            flops=float(s_stem * s_stem * cfg.input_channels * cfg.stem_channels * 9),
            bytes_read=float(
                (s_in * s_in * cfg.input_channels
                 + cfg.input_channels * cfg.stem_channels * 9) * _DTYPE_BYTES
            ),
            bytes_written=float(s_stem * s_stem * cfg.stem_channels * _DTYPE_BYTES),
        )
        return CellCost(
            stem.flops, float(cfg.input_channels * cfg.stem_channels * 9), (stem,)
        )

    def _head_cost(self, last_c: int) -> CellCost:
        cfg = self.config
        s_out = self.geometry[-1].out_size
        gap = Primitive(
            name="head-gap",
            kind="memory",
            flops=0.0,
            bytes_read=float(s_out * s_out * cfg.head_channels * _DTYPE_BYTES),
            bytes_written=float(cfg.head_channels * _DTYPE_BYTES),
        )
        prims = (
            _conv1x1("head-conv1x1", last_c, cfg.head_channels, s_out, s_out),
            gap,
            _conv1x1("head-fc", cfg.head_channels, cfg.num_classes, 1, 1),
        )
        params = float(
            last_c * cfg.head_channels
            + cfg.head_channels * cfg.num_classes + cfg.num_classes
        )
        return CellCost(sum(p.flops for p in prims), params, prims)


_REGISTRY: Dict[Tuple, CostTables] = {}
_REGISTRY_LOCK = threading.Lock()


def cost_tables(config: SpaceConfig) -> CostTables:
    """The shared :class:`CostTables` of ``config``'s geometry.

    Configs that differ only in ``name`` share one set of tables; every
    field that changes a layer's cost, width or channel factors is part
    of the key. Nothing is filled until a lookup needs it.
    """
    key = (
        config.input_size,
        config.input_channels,
        config.num_classes,
        config.stem_channels,
        config.stages,
        config.head_channels,
        config.channel_factors,
    )
    with _REGISTRY_LOCK:
        tables = _REGISTRY.get(key)
        if tables is None:
            tables = _REGISTRY[key] = CostTables(config)
    return tables
