"""The per-operator latency lookup table (paper Eq. 2, first term).

Cells are keyed on ``(layer, operator, input_channels, factor)``: an
operator's execution time depends on its *active* input channel count,
which is set by the previous layer's scaling factor, so the
micro-benchmark enumerates the possible input widths per layer (as
op-level latency predictors such as nn-Meter do). What the LUT still
cannot see — stem/head kernels, per-layer boundary synchronization, and
framework entry costs — is exactly the systematic gap the bias term
``B`` (Eq. 3) compensates.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.degradation import DegradationReport
from repro.hardware.device import DeviceModel
from repro.hardware.faults import (
    ProbeError,
    RetryPolicy,
    run_with_retry,
    timed_attempt,
)
from repro.space.architecture import Architecture
from repro.space.cost_tables import CellCost, CostTables, cost_tables
from repro.space.operators import NUM_OPERATORS
from repro.space.search_space import SearchSpace
from repro.streams import seeded_normals, spawn_entropy

_Key = Tuple[int, int, int, float]


def _quantize_factor(factor: float) -> float:
    """Channel factors live on a one-decimal grid; quantizing at key
    construction makes cell identity immune to float-arithmetic drift
    (``0.1 * 3 != 0.3``) on both the build and the lookup side."""
    return round(float(factor), 1)


def _cell_key(layer: int, op: int, cin: int, factor: float) -> _Key:
    return (layer, op, cin, _quantize_factor(factor))


def _jitter_rng(seed: int, index: int) -> np.random.Generator:
    """Retry-jitter stream of LUT cell ``index``, spawn-keyed away from
    its noise stream. Built only once the cell's first attempt fails."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(index, 1))
    )


@dataclass(frozen=True, eq=False)
class DenseLatencyTable:
    """Array view of a :class:`LatencyLUT` for fancy-indexed batch sums.

    ``cells[layer, op, cin, decile]`` holds the cell latency in ms
    (``NaN`` for cells the LUT does not contain); ``decile`` is the
    quantized factor times ten. ``head[cin]`` holds the head cell for a
    final active width (``NaN`` when absent).
    """

    cells: np.ndarray  # (L, num_ops, max_cin + 1, 11)
    head: np.ndarray  # (max_head_cin + 1,)
    stem_ms: float

    @property
    def num_layers(self) -> int:
        return self.cells.shape[0]


def layer_cin_choices(space: SearchSpace, layer: int) -> List[int]:
    """Possible active input-channel counts of a layer.

    Layer 0 always receives the full stem output; deeper layers receive
    whatever the previous layer's factor kept.
    """
    return _cin_choices(cost_tables(space.config), space.candidate_factors, layer)


def _cin_choices(
    costs: CostTables, candidate_factors: Sequence[Sequence[float]], layer: int
) -> List[int]:
    if layer == 0:
        return [costs.config.stem_channels]
    prev = layer - 1
    return sorted({costs.out_channels(prev, f) for f in candidate_factors[prev]})


class LutCells(NamedTuple):
    """Every cell of a LUT, in build order: the stem, each distinct head
    width, then the operator cells in layer/cin/op/factor order. A
    cell's position is its identity (its noise stream's spawn key)."""

    kinds: Tuple[str, ...]  # "stem", "head" or "cell"
    keys: Tuple[Tuple[int, int, int, float], ...]  # (layer, op, cin, factor)
    costs: Tuple[CellCost, ...]
    heads: slice  # positions of the head cells
    operators: slice  # positions of the operator cells
    head_cins: Tuple[int, ...]
    entry_keys: Tuple[_Key, ...]  # LUT keys of the operator cells


@functools.lru_cache(maxsize=32)
def _enumerate_cells(
    costs: CostTables,
    candidate_ops: Tuple[Tuple[int, ...], ...],
    candidate_factors: Tuple[Tuple[float, ...], ...],
) -> LutCells:
    num_layers = len(candidate_ops)
    head_cins: List[int] = []
    for factor in candidate_factors[-1]:
        cin = costs.out_channels(num_layers - 1, factor)
        if cin not in head_cins:
            head_cins.append(cin)
    keys = [(0, 0, 0, 0.0)] + [(0, 0, cin, 0.0) for cin in head_cins]
    cell_costs = [costs.stem] + [costs.head(cin) for cin in head_cins]
    for layer in range(num_layers):
        for cin in _cin_choices(costs, candidate_factors, layer):
            for op in candidate_ops[layer]:
                for factor in candidate_factors[layer]:
                    keys.append((layer, op, cin, factor))
                    cell_costs.append(
                        costs.cell(layer, op, cin, costs.out_channels(layer, factor))
                    )
    first_op = 1 + len(head_cins)
    return LutCells(
        kinds=("stem",) + ("head",) * len(head_cins)
        + ("cell",) * (len(keys) - first_op),
        keys=tuple(keys),
        costs=tuple(cell_costs),
        heads=slice(1, first_op),
        operators=slice(first_op, len(keys)),
        head_cins=tuple(head_cins),
        entry_keys=tuple(_cell_key(*key) for key in keys[first_op:]),
    )


class LatencyLUT:
    """Latency lookup table over (layer, operator, cin, factor) cells,
    plus micro-benchmarked stem and per-input-width head cells (the stem
    and head are fixed modules, so they are profiled once like any other
    operator)."""

    def __init__(
        self,
        device_key: str,
        entries: Dict[_Key, float],
        stem_ms: float = 0.0,
        head_ms: Dict[int, float] = None,
    ):
        self.device_key = device_key
        self.entries = dict(entries)
        self.stem_ms = stem_ms
        self.head_ms = dict(head_ms) if head_ms else {}
        self._dense = (-1, None)  # (entry count at build, DenseLatencyTable)
        # Probe faults observed while building (empty for a clean build).
        self.build_degradation = DegradationReport()
        # Memoized nearest-cell fallback values: a missing cell resolves
        # to the same substitute every time, scalar or batched.
        self._fallback_memo: Dict[_Key, float] = {}
        self._head_fallback_memo: Dict[int, float] = {}

    # -- construction -----------------------------------------------------------

    @staticmethod
    def cells(space: SearchSpace) -> "LutCells":
        """Every cell a LUT of ``space`` holds, in build order.

        Memoized per geometry and candidate set, so every build, and the
        coverage check, of an equal space reads one enumeration.
        """
        return _enumerate_cells(
            cost_tables(space.config),
            tuple(space.candidate_ops),
            tuple(space.candidate_factors),
        )

    @classmethod
    def build(
        cls,
        space: SearchSpace,
        device: DeviceModel,
        samples_per_cell: int = 4,
        seed: int = 0,
        ledger=None,
        workers: int = 0,
        backend: str = "auto",
        retry: Optional[RetryPolicy] = None,
    ) -> "LatencyLUT":
        """Micro-benchmark every operator cell on the device.

        Each cell averages ``samples_per_cell`` noisy measurements, as a
        real micro-benchmark would. With a ``ledger``, the number of
        profiled cells is recorded for search-cost accounting.

        Cells are enumerated once (:meth:`cells`: stem, head widths,
        then operator cells in layer/cin/op/factor order) and cell ``i``
        draws its measurement noise from ``SeedSequence(seed,
        spawn_key=(i,))`` — every cell's value depends only on its own
        identity, never on profiling order. That is what lets
        ``workers >= 2`` fan the profiling out across processes with
        bit-identical results; ``workers=0`` (default) profiles serially
        in-process. A device that overrides :meth:`DeviceModel._probe`
        (a :class:`~repro.hardware.faults.FlakyDevice`) always profiles
        in-process: its fault stream is one sequence over the probes in
        cell order, which worker processes would each replay from the
        start.

        With a :class:`~repro.hardware.faults.RetryPolicy`, each cell's
        probe is retried under backoff (jitter drawn from a per-cell
        stream spawn-keyed away from the noise stream, so healthy-device
        values are unchanged; the retry loop, and the jitter generator,
        start only once a cell's first attempt fails). A cell that
        exhausts its retries is *omitted* rather than fatal: the build
        records it in the returned LUT's ``build_degradation`` report,
        and lookups can later fall back to the nearest present cell (see
        :meth:`lookup`).
        """
        if samples_per_cell < 1:
            raise ValueError("samples_per_cell must be >= 1")
        sigma = device.spec.noise_sigma
        cells = cls.cells(space)
        first_attempt = device._probe
        if retry is not None and retry.timeout_s is not None:
            first_attempt = functools.partial(timed_attempt, device._probe, retry)

        def profile_chunk(indices: List[int]) -> List[Tuple]:
            """Per cell: ``(value | None, extra_attempts, fault message)``.

            Fault accounting is *returned* rather than accumulated in
            place so it survives the trip back from worker processes.
            Cells are probed one by one, in cell order (a
            :class:`~repro.hardware.faults.FlakyDevice` consumes its
            fault stream per probe); their noise-free prices come from
            the device's memo, and the noise of every noisy cell is drawn
            and averaged in a handful of whole-array operations.
            """
            extra = [0] * len(indices)
            faults: Dict[int, str] = {}  # chunk position -> last fault
            for pos, index in enumerate(indices):
                try:
                    first_attempt()
                except ProbeError as fault:
                    if retry is None:
                        faults[pos] = str(fault)
                        continue
                    try:
                        _, attempts = run_with_retry(
                            device._probe,
                            retry,
                            make_rng=functools.partial(_jitter_rng, seed, index),
                            first_fault=fault,
                        )
                    except ProbeError as last:
                        faults[pos] = str(last)
                        attempts = retry.attempts
                    extra[pos] = attempts - 1
            values = device.cell_prices_ms([cells.costs[i] for i in indices])
            if sigma > 0:
                rows = np.flatnonzero(values > 0)
                # Row j holds the draws of the j-th noisy cell from its
                # own ``SeedSequence(seed, spawn_key=(i,))`` stream, so
                # a failed cell's draws change no other cell's.
                # ``normal(0, sigma)`` computes ``0.0 + sigma * z``,
                # which is exactly ``z * sigma``.
                draws = seeded_normals(
                    spawn_entropy(seed, np.asarray(indices)[rows]),
                    samples_per_cell,
                )
                draws *= sigma
                np.exp(draws, out=draws)
                draws *= values[rows, None]
                values[rows] = draws.mean(axis=1)
            out = values.tolist()
            messages: List[Optional[str]] = [None] * len(out)
            for pos, message in faults.items():
                out[pos] = None
                messages[pos] = message
            return list(zip(out, extra, messages))

        if type(device)._probe is not DeviceModel._probe:
            backend, workers = "serial", 0

        from repro.parallel.backend import create_backend

        with create_backend(
            backend, profile_chunk, workers=workers
        ) as pool:
            results = pool.map(range(len(cells.costs)))

        values, extras, faults = (list(column) for column in zip(*results))
        degradation = DegradationReport()
        degradation.probe_retries = sum(extras)
        failed = len(faults) - faults.count(None)
        if failed:
            degradation.probe_failures = failed
            degradation.missing_cells = failed
            for kind, (layer, op, cin, factor), fault in zip(
                cells.kinds, cells.keys, faults
            ):
                if fault is not None:
                    degradation.record_event(
                        f"LUT {kind} cell layer={layer} op={op} cin={cin} "
                        f"factor={factor} failed after retries: {fault}"
                    )
        stem_ms = 0.0 if values[0] is None else values[0]
        head_ms = dict(zip(cells.head_cins, values[cells.heads]))
        entries = dict(zip(cells.entry_keys, values[cells.operators]))
        if failed:
            head_ms = {k: v for k, v in head_ms.items() if v is not None}
            entries = {k: v for k, v in entries.items() if v is not None}
        if ledger is not None:
            ledger.record_lut_cells(len(values) - failed)
        lut = cls(device.spec.key, entries, stem_ms=stem_ms, head_ms=head_ms)
        lut.build_degradation = degradation
        return lut

    # -- queries -----------------------------------------------------------------

    def lookup(
        self,
        layer: int,
        op: int,
        cin: int,
        factor: float,
        fallback: bool = False,
        report: Optional[DegradationReport] = None,
    ) -> float:
        """Latency (ms) of one operator cell.

        Factors are quantized to the one-decimal grid before the lookup,
        so values that drifted through float arithmetic still hit their
        cell. A genuine miss raises a ``KeyError`` naming the nearest
        existing cell to make the mismatch diagnosable — unless
        ``fallback=True``, in which case the nearest present cell's
        value is served instead (deterministically: the substitute for a
        given key is memoized, so scalar and batched queries agree) and
        the concession is recorded on ``report``.
        """
        key = _cell_key(layer, op, cin, factor)
        if key not in self.entries:
            if not fallback:
                raise KeyError(self._miss_message(layer, op, cin, factor))
            return self._fallback_value(key, report)
        return self.entries[key]

    def head_lookup(
        self,
        cin: int,
        fallback: bool = False,
        report: Optional[DegradationReport] = None,
    ) -> float:
        """Latency (ms) of the head at final width ``cin``.

        ``0.0`` for a LUT without head cells; a missing width raises
        ``KeyError`` or, with ``fallback=True``, is served by the
        nearest head cell exactly as :meth:`lookup` serves operators.
        """
        if not self.head_ms:
            return 0.0
        if cin in self.head_ms:
            return self.head_ms[cin]
        if not fallback:
            raise KeyError(f"LUT has no head cell for cin={cin}")
        return self._head_fallback_value(cin, report)

    def _fallback_value(
        self, key: _Key, report: Optional[DegradationReport]
    ) -> float:
        """Nearest present cell's value for a missing key (memoized)."""
        if key not in self._fallback_memo:
            if not self.entries:
                raise KeyError(
                    f"LUT has no cell for layer={key[0]} op={key[1]} "
                    f"cin={key[2]} factor={key[3]} and is empty — nothing "
                    "to fall back to"
                )
            layer, op, cin, qf = key
            # Distance is lexicographic (layer, op, cin, factor), with
            # the candidate key itself as the final tiebreak so the
            # substitute is unique and deterministic.
            nearest = min(
                self.entries,
                key=lambda k: (
                    abs(k[0] - layer),
                    abs(k[1] - op),
                    abs(k[2] - cin),
                    abs(k[3] - qf),
                    k,
                ),
            )
            self._fallback_memo[key] = self.entries[nearest]
            if report is not None:
                report.fallback_cells += 1
                report.record_event(
                    f"missing LUT cell layer={layer} op={op} cin={cin} "
                    f"factor={qf} served by nearest cell layer={nearest[0]} "
                    f"op={nearest[1]} cin={nearest[2]} factor={nearest[3]}"
                )
        if report is not None:
            report.fallback_lookups += 1
        return self._fallback_memo[key]

    def _head_fallback_value(
        self, cin: int, report: Optional[DegradationReport]
    ) -> float:
        """Nearest present head cell for a missing final width."""
        if cin not in self._head_fallback_memo:
            if not self.head_ms:
                raise KeyError(f"LUT has no head cell for cin={cin}")
            nearest = min(self.head_ms, key=lambda c: (abs(c - cin), c))
            self._head_fallback_memo[cin] = self.head_ms[nearest]
            if report is not None:
                report.fallback_cells += 1
                report.record_event(
                    f"missing LUT head cell cin={cin} served by nearest "
                    f"head cell cin={nearest}"
                )
        if report is not None:
            report.fallback_lookups += 1
        return self._head_fallback_memo[cin]

    def _miss_message(self, layer: int, op: int, cin: int, factor: float) -> str:
        qf = _quantize_factor(factor)
        nearest = min(
            self.entries,
            key=lambda k: (
                abs(k[0] - layer),
                abs(k[1] - op),
                abs(k[2] - cin),
                abs(k[3] - qf),
            ),
            default=None,
        )
        msg = (
            f"LUT has no cell for layer={layer} op={op} cin={cin} "
            f"factor={factor} (quantized to {qf})"
        )
        if nearest is None:
            return msg + "; the LUT is empty"
        return (
            msg
            + f"; nearest existing cell is layer={nearest[0]} "
            f"op={nearest[1]} cin={nearest[2]} factor={nearest[3]}"
        )

    def uncovered(self, space: SearchSpace) -> Tuple[int, str]:
        """How many cells of ``space`` this LUT lacks, and a one-line
        message naming the first with its nearest present cell (empty
        when none is missing). Operator cells come first, then heads."""
        cells = self.cells(space)
        holes = [
            key
            for key, entry in zip(cells.keys[cells.operators], cells.entry_keys)
            if entry not in self.entries
        ]
        heads = [cin for cin in cells.head_cins if cin not in self.head_ms]
        if holes:
            return len(holes) + len(heads), self._miss_message(*holes[0])
        if not heads:
            return 0, ""
        message = f"LUT has no head cell for cin={heads[0]}"
        if self.head_ms:
            nearest = min(self.head_ms, key=lambda c: (abs(c - heads[0]), c))
            message += f"; nearest existing head cell is cin={nearest}"
        return len(heads), message

    def sum_ops_ms(
        self,
        arch: Architecture,
        space: SearchSpace,
        fallback: bool = False,
        report: Optional[DegradationReport] = None,
    ) -> float:
        """``sum_l LAT(op^l)`` — Eq. 2 without the bias term.

        Walks the layer chain to resolve each layer's active input
        channel count from the previous layer's factor; the fixed stem
        and the (width-dependent) head count as operators too.
        ``fallback``/``report`` are forwarded to :meth:`lookup` for
        degraded LUTs with missing cells.
        """
        total = self.stem_ms
        channels = space.active_channels(arch)
        for layer, (op, factor) in enumerate(zip(arch.ops, arch.factors)):
            cin = channels[layer][0]
            total += self.lookup(
                layer, op, cin, factor, fallback=fallback, report=report
            )
        total += self.head_lookup(
            channels[-1][1], fallback=fallback, report=report
        )
        return total

    # -- batched queries ---------------------------------------------------------

    def as_table(self) -> DenseLatencyTable:
        """Dense :class:`DenseLatencyTable` view of the LUT.

        Built lazily and memoized (rebuilt if the entry count changed);
        this is what makes :meth:`sum_ops_ms_batch` a handful of numpy
        fancy-indexing operations instead of ``P x L`` dict lookups.
        """
        cached_len, cached = self._dense
        if cached is not None and cached_len == len(self.entries):
            return cached
        count = len(self.entries)
        keys = np.fromiter(
            chain.from_iterable(self.entries), dtype=np.float64, count=4 * count
        ).reshape(count, 4)
        layers, ops, cins = keys[:, :3].astype(np.intp).T
        # ``np.rint`` rounds half to even, as ``round`` does.
        deciles = np.rint(keys[:, 3] * 10).astype(np.intp)
        num_layers = 1 + int(layers.max(initial=-1))
        num_ops = max(NUM_OPERATORS, 1 + int(ops.max(initial=0)))
        max_cin = int(cins.max(initial=0))
        cells = np.full((num_layers, num_ops, max_cin + 1, 11), np.nan)
        cells[layers, ops, cins, deciles] = np.fromiter(
            self.entries.values(), dtype=np.float64, count=count
        )
        max_head = max(self.head_ms, default=0)
        head = np.full(max_head + 1, np.nan)
        for cin, ms in self.head_ms.items():
            head[cin] = ms
        table = DenseLatencyTable(cells=cells, head=head, stem_ms=self.stem_ms)
        self._dense = (len(self.entries), table)
        return table

    def sum_ops_ms_batch(
        self,
        archs: Sequence[Architecture],
        space: SearchSpace,
        fallback: bool = False,
        report: Optional[DegradationReport] = None,
    ) -> np.ndarray:
        """Vectorized :meth:`sum_ops_ms` over a whole population.

        Resolves every architecture's active-channel chain with
        :meth:`SearchSpace.active_channels_many`, then gathers all
        ``P x L`` operator cells from the dense table in a single
        fancy-indexed read.
        Bit-identical to mapping :meth:`sum_ops_ms` over ``archs`` (the
        accumulation order per architecture is the same; with
        ``fallback=True`` the same memoized nearest-cell substitutes
        patch the missing positions, so the equivalence holds on
        degraded LUTs too).
        """
        archs = list(archs)
        if not archs:
            return np.zeros(0, dtype=np.float64)
        table = self.as_table()
        num_layers = space.num_layers
        pop = len(archs)
        ops, factors = space.gene_arrays(archs)
        deciles = np.rint(np.round(factors, 1) * 10).astype(np.int64)
        cins, couts = space.active_channels_many(ops, factors)

        in_range = (
            (ops < table.cells.shape[1])
            & (cins < table.cells.shape[2])
            & (deciles >= 0)
            & (deciles < 11)
        )
        if not in_range.all() and not fallback:
            pos, layer = np.argwhere(~in_range)[0]
            raise KeyError(
                self._miss_message(
                    int(layer),
                    int(ops[pos, layer]),
                    int(cins[pos, layer]),
                    float(factors[pos, layer]),
                )
            )
        layer_idx = np.arange(num_layers)[None, :]
        # Out-of-range indices (possible only on the fallback path) are
        # clamped for the gather and patched below with the rest of the
        # missing positions.
        safe_ops = np.minimum(ops, table.cells.shape[1] - 1)
        safe_cins = np.minimum(cins, table.cells.shape[2] - 1)
        safe_deciles = np.clip(deciles, 0, 10)
        gathered = table.cells[layer_idx, safe_ops, safe_cins, safe_deciles]
        missing = ~in_range | np.isnan(gathered)
        if missing.any():
            if not fallback:
                pos, layer = np.argwhere(missing)[0]
                raise KeyError(
                    self._miss_message(
                        int(layer),
                        int(ops[pos, layer]),
                        int(cins[pos, layer]),
                        float(factors[pos, layer]),
                    )
                )
            for pos, layer in np.argwhere(missing):
                gathered[pos, layer] = self.lookup(
                    int(layer),
                    int(ops[pos, layer]),
                    int(cins[pos, layer]),
                    float(factors[pos, layer]),
                    fallback=True,
                    report=report,
                )
        # Left-to-right accumulation reproduces the scalar sum order
        # exactly (stem + layer 0 + ... + head), keeping the batch path
        # bit-identical to sum_ops_ms.
        total = np.full(pop, self.stem_ms, dtype=np.float64)
        for layer in range(num_layers):
            total += gathered[:, layer]
        if self.head_ms:
            last_c = couts[:, -1]
            head_vals = table.head[np.minimum(last_c, len(table.head) - 1)]
            head_missing = (last_c >= len(table.head)) | np.isnan(head_vals)
            if head_missing.any():
                if not fallback:
                    raise KeyError(
                        "LUT has no head cell for "
                        f"cin={int(last_c[head_missing.argmax()])}"
                    )
                head_vals = head_vals.copy()
                for pos in np.flatnonzero(head_missing):
                    head_vals[pos] = self._head_fallback_value(
                        int(last_c[pos]), report
                    )
            total += head_vals
        return total

    def __len__(self) -> int:
        return len(self.entries)

    # -- (de)serialization ----------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "device": self.device_key,
            "stem_ms": self.stem_ms,
            "head_ms": {str(k): v for k, v in self.head_ms.items()},
            "entries": [
                {
                    "layer": k[0],
                    "op": k[1],
                    "cin": k[2],
                    "factor": k[3],
                    "ms": v,
                }
                for k, v in sorted(self.entries.items())
            ],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "LatencyLUT":
        payload = json.loads(text)
        entries = {
            _cell_key(e["layer"], e["op"], e["cin"], e["factor"]): float(e["ms"])
            for e in payload["entries"]
        }
        return cls(
            payload["device"],
            entries,
            stem_ms=float(payload.get("stem_ms", 0.0)),
            head_ms={int(k): float(v) for k, v in payload.get("head_ms", {}).items()},
        )
