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
* per operator shape ``(op, cin, cout, in_size, stride)``, one
  :class:`CellCost`: the operator's MACs, weight count and primitive
  tuple, all derived from :meth:`OperatorSpec.primitives` and
  :meth:`OperatorSpec.params` — the single source of truth. A cell
  depends on its layer only through ``(in_size, stride)``, so layers of
  equal geometry share one object (layout ``a``'s 9,550 LUT cells are
  3,550 shapes); a per-layer ``(layer, op, cin, cout)`` index over the
  shared cells keeps :meth:`CostTables.chain`'s lookup one dict read;
* per final width, the head's MACs, weight count and primitives.

Populations are scored as ``(N, L)`` gene arrays. :meth:`CostTables.chain_many`
runs the active-channel recurrence once per layer over every row, and
:meth:`CostTables.flops_many` gathers layer MACs from a dense
``[layer, op, cin, factor index]`` float64 array (about 4 MB for layout
``a``), allocated on first use and filled from the cell table on a miss.

MACs and weight counts are integer-valued floats far below ``2**53``,
so summing per-cell totals gives exactly the value of summing every
primitive in turn, in any order. The cells are bounded by the distinct
operator shapes of the geometry (about 3.5k for the paper layouts, under
about 10k per-layer keys); equal primitives are interned, so a full LUT
build adds little memory.

A fill is idempotent: two threads that miss the same entry compute
equal values and either store wins, so reads and fills take no lock.
Only the registry that maps a geometry to its tables does. Every entry
is a pure function of the geometry, so sharing the tables process-wide
never lets one caller's results depend on another's.
"""

from __future__ import annotations

import functools
import threading
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.nn.layers.mask import channels_kept
from repro.space.config import SpaceConfig
from repro.space.geometry import LayerGeometry, build_layer_geometry
from repro.space.operators import (
    _DTYPE_BYTES,
    IS_SKIP,
    IS_SKIP_ARRAY,
    NUM_OPERATORS,
    Primitive,
    _conv1x1,
    get_operator,
)


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
        self._identity_skip_array = np.array(self._identity_skip_layer)
        self._max_out = np.array([g.max_out_channels for g in self.geometry])
        # Ascending (SpaceConfig checks it), so searchsorted finds a
        # factor's index and equality tells on-grid from off-grid.
        self._factor_grid = np.array(config.channel_factors, dtype=np.float64)
        self._out_channels: List[Dict[float, int]] = [{} for _ in self.geometry]
        # (layer, op, cin, cout) -> cell, read by chain(); every entry
        # is the one cell of its operator shape in ``_shapes``.
        self._cells: Dict[Tuple[int, int, int, int], CellCost] = {}
        self._shapes: Dict[Tuple[int, int, int, int, int], CellCost] = {}
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
        """Cost of operator ``op`` at ``layer`` with active ``cin -> cout``.

        Layers of equal ``(in_size, stride)`` get the same object for
        the same ``(op, cin, cout)``.
        """
        key = (layer, op, cin, cout)
        cost = self._cells.get(key)
        if cost is None:
            geom = self.geometry[layer]
            shape = (op, cin, cout, geom.in_size, geom.stride)
            cost = self._shapes.get(shape)
            if cost is None:
                spec = get_operator(op)
                prims = self._intern(
                    spec.primitives(cin, cout, geom.in_size, geom.stride)
                )
                # setdefault: threads racing on one shape share one object.
                cost = self._shapes.setdefault(shape, CellCost(
                    sum(p.flops for p in prims),
                    spec.params(cin, cout, geom.stride),
                    prims,
                ))
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
            if cout > cin and identity_layer and IS_SKIP[op]:
                cout = cin
            cell = memo.get((layer, op, cin, cout))
            if cell is None:
                cell = self.cell(layer, op, cin, cout)
            channels.append((cin, cout))
            cells.append(cell)
            cin = cout
        return channels, cells

    def flops(self, ops: Tuple[int, ...], factors: Tuple[float, ...]) -> float:
        """Total MACs (stem, every layer, head) of one architecture."""
        channels, cells = self.chain(ops, factors)
        total = self.stem.flops + self.head(channels[-1][1]).flops
        for cell in cells:
            total += cell.flops
        return total

    # -- batched lookups ----------------------------------------------------------

    def chain_many(
        self, ops: np.ndarray, factors: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`chain`'s active channels for every row of ``(N, L)``
        gene arrays, as two ``(N, L)`` int64 arrays ``(cins, couts)``.

        Any factor in ``(0, 1]`` is exact here: ``floor(max_out * f +
        0.5)`` clamped to ``[1, max_out]`` is ``channels_kept``'s
        arithmetic, and a stride-1 skip takes ``min(cin, cout)`` in
        layer order, so the recurrence runs only over layers where some
        row has one.
        """
        # Column 0 is the stem's output; column l + 1 is layer l's.
        widths = np.empty((len(ops), len(self.geometry) + 1), dtype=np.int64)
        widths[:, 0] = self.config.stem_channels
        couts = widths[:, 1:]
        max_out = self._max_out
        np.floor(max_out * factors + 0.5, out=couts, casting="unsafe")
        np.clip(couts, 1, max_out, out=couts)
        identity = IS_SKIP_ARRAY[ops] & self._identity_skip_array
        for layer in np.flatnonzero(identity.any(axis=0)).tolist():
            np.minimum(
                widths[:, layer + 1],
                widths[:, layer],
                out=widths[:, layer + 1],
                where=identity[:, layer],
            )
        return widths[:, :-1], couts

    def flops_many(self, ops: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """:meth:`flops` of every row of ``(N, L)`` gene arrays.

        Rows whose factors are all config factors gather their layer
        MACs from :attr:`_layer_flops`; a row with any other factor
        takes :meth:`flops`. Every term is an integer-valued float below
        ``2**53``, so the row sums equal the scalar sums exactly.
        """
        grid = self._factor_grid
        fidx = np.searchsorted(grid, factors)
        np.minimum(fidx, len(grid) - 1, out=fidx)
        on_grid = (grid[fidx] == factors).all(axis=1)
        total = np.empty(len(ops), dtype=np.float64)
        for row in np.flatnonzero(~on_grid).tolist():
            total[row] = self.flops(
                tuple(ops[row].tolist()), tuple(factors[row].tolist())
            )
        if not on_grid.all():
            ops, factors, fidx = ops[on_grid], factors[on_grid], fidx[on_grid]
        cins, couts = self.chain_many(ops, factors)
        key = (np.arange(len(self.geometry)), ops, cins, fidx)
        memo = self._layer_flops
        cells = memo[key]
        missing = np.isnan(cells)
        if missing.any():
            rows, layers = np.nonzero(missing)
            fills = set(zip(
                layers.tolist(),
                ops[rows, layers].tolist(),
                cins[rows, layers].tolist(),
                couts[rows, layers].tolist(),
                fidx[rows, layers].tolist(),
            ))
            for layer, op, cin, cout, f in fills:
                memo[layer, op, cin, f] = self.cell(layer, op, cin, cout).flops
            cells = memo[key]
        heads = [self.head(width).flops for width in couts[:, -1].tolist()]
        total[on_grid] = cells.sum(axis=1) + heads + self.stem.flops
        return total

    @functools.cached_property
    def _layer_flops(self) -> np.ndarray:
        """Dense MACs memo ``[layer, op, cin, factor index]``, NaN until
        filled from :meth:`cell`. A stride-1 skip's width follows from
        ``cin`` and the factor, so every entry is one cell's MACs."""
        max_cin = max(g.max_in_channels for g in self.geometry)
        return np.full(
            (len(self.geometry), NUM_OPERATORS, max_cin + 1, len(self._factor_grid)),
            np.nan,
        )

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
