"""Analytical device execution model ("the hardware").

This module plays the role of the paper's physical testbed: given the
primitive kernels of a network, it returns an end-to-end latency that
includes per-kernel roofline time, launch overheads, per-layer boundary
(communication) costs, a fixed base cost, and measurement noise.

The latency *predictor* (Eq. 2-3) never sees these internals — it only
gets end-to-end measurements, exactly like the paper's on-device
profiling.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.spec import DeviceSpec, spec_by_key
from repro.space.architecture import Architecture
from repro.space.cost_tables import CellCost
from repro.space.operators import Primitive
from repro.space.search_space import SearchSpace


class DeviceModel:
    """Executes primitive lists and reports latency in milliseconds."""

    def __init__(self, spec: DeviceSpec):
        self.spec = spec
        # Noise-free kernel times by (primitive, batch). They depend on
        # the frozen spec alone, so LUT builds and measurements after the
        # first read them back instead of recomputing them. Threads that
        # miss the same key store equal values, so no lock is needed.
        self._kernel_s: Dict[Tuple[Primitive, int], float] = {}
        # Noise-free isolated times (ms) of cost-table cells, keyed on
        # the cell's id so that a lookup hashes no Primitive. The cells
        # are kept alive beside the memo, so an id is never reused
        # while it is a key. Filled like ``_kernel_s``, without a lock.
        self._cell_ms: Dict[int, float] = {}
        self._cells_kept: List[CellCost] = []

    def _probe(self) -> None:
        """Called once per probe (one LUT cell micro-benchmark, one
        network run) before its time is read. A healthy device never
        fails; :class:`~repro.hardware.faults.FlakyDevice` injects its
        faults here."""

    # -- kernel-level timing --------------------------------------------------

    def primitive_time_s(self, prim: Primitive, batch: Optional[int] = None) -> float:
        """Noise-free execution time of one kernel, in seconds.

        Roofline with utilization: the achievable compute throughput is
        ``peak * kind_eff * work / (work + saturation)``, so small
        kernels never reach steady-state throughput; memory-bound
        kernels are limited by bandwidth instead. A launch overhead is
        always paid. Memoized per device.
        """
        b = self.spec.batch_size if batch is None else batch
        key = (prim, b)
        seconds = self._kernel_s.get(key)
        if seconds is None:
            seconds = self._kernel_s[key] = self._primitive_time_s(prim, b)
        return seconds

    def _primitive_time_s(self, prim: Primitive, b: int) -> float:
        spec = self.spec
        if b < 1:
            raise ValueError("batch must be >= 1")
        work = prim.flops * b
        traffic = (prim.bytes_read + prim.bytes_written) * b
        if work > 0:
            eff = spec.kind_efficiency.get(prim.kind, 0.3)
            utilization = work / (work + spec.saturation_for(prim.kind))
            compute_s = work / (spec.peak_macs_per_s * eff * max(utilization, 1e-9))
        else:
            compute_s = 0.0
        bw_eff = spec.bandwidth_efficiency.get(prim.kind, 1.0)
        memory_s = traffic / (spec.bandwidth_bytes_per_s * bw_eff)
        return spec.launch_overhead_s + max(compute_s, memory_s)

    # -- network-level timing -----------------------------------------------------

    def network_time_s(
        self,
        layer_primitives: Sequence[Sequence[Primitive]],
        extra_primitives: Sequence[Primitive] = (),
        batch: Optional[int] = None,
    ) -> float:
        """Noise-free time of a network in device seconds, before the
        spec's ``time_scale``: kernel times plus the per-layer boundary
        and base overheads. The one summation every network-level time
        reads (see :meth:`run_network_ms` for the arguments)."""
        spec = self.spec
        total_s = spec.base_overhead_s
        boundaries = 0
        for layer in layer_primitives:
            if not layer:
                continue
            boundaries += 1
            for prim in layer:
                total_s += self.primitive_time_s(prim, batch)
        if extra_primitives:
            boundaries += 1
            for prim in extra_primitives:
                total_s += self.primitive_time_s(prim, batch)
        total_s += boundaries * spec.layer_overhead_s
        return total_s

    def network_probe_ms(
        self, network_s: float, rng: Optional[np.random.Generator] = None
    ) -> float:
        """One run of a network whose :meth:`network_time_s` is
        ``network_s``, in milliseconds: the probe, the time scale and,
        with ``rng``, one log-normal noise draw. A measurement session
        computes ``network_s`` once and calls this once per run."""
        self._probe()
        spec = self.spec
        total_s = network_s * spec.time_scale
        if rng is not None and spec.noise_sigma > 0:
            total_s *= float(np.exp(rng.normal(0.0, spec.noise_sigma)))
        return total_s * 1e3

    def run_network_ms(
        self,
        layer_primitives: Sequence[Sequence[Primitive]],
        extra_primitives: Sequence[Primitive] = (),
        batch: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """End-to-end latency of a network, in milliseconds.

        Parameters
        ----------
        layer_primitives:
            Kernels grouped by layer; every *non-empty* layer pays the
            per-layer boundary overhead (identity skips execute nothing
            and are fused away, so they pay nothing).
        extra_primitives:
            Stem/head kernels (counted once, one boundary).
        batch:
            Override the device's default batch size.
        rng:
            If given, multiplicative log-normal measurement noise is
            applied — this makes the call a *measurement*; omit it for
            the noise-free ground truth.
        """
        return self.network_probe_ms(
            self.network_time_s(layer_primitives, extra_primitives, batch),
            rng,
        )

    # -- architecture-level convenience ------------------------------------------

    def arch_time_s(self, space: SearchSpace, arch: Architecture) -> float:
        """:meth:`network_time_s` of a search-space architecture (stem +
        layers + head)."""
        return self.network_time_s(
            space.arch_primitives(arch), space.stem_head_primitives(arch)
        )

    def latency_ms(
        self,
        space: SearchSpace,
        arch: Architecture,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Latency of a search-space architecture (stem + layers + head).

        With ``rng`` this simulates one noisy on-device measurement
        (``LAT+`` in the paper's Eq. 3); without it, the noise-free
        device time.
        """
        return self.network_probe_ms(self.arch_time_s(space, arch), rng)

    def _isolated_ms(self, prims: Sequence[Primitive]) -> float:
        total_s = sum(self.primitive_time_s(p) for p in prims)
        return total_s * self.spec.time_scale * 1e3

    def primitives_time_ms(self, prims: Sequence[Primitive]) -> float:
        """Summed kernel time of isolated primitives (no boundary/base
        overheads) — the micro-benchmark view; one probe."""
        self._probe()
        return self._isolated_ms(prims)

    def cell_time_ms(self, cell: CellCost) -> float:
        """:meth:`primitives_time_ms` of a cost-table cell's kernels.

        A probe like any other, but its noise-free price is computed
        once per cell object and read back from a memo afterwards.
        """
        self._probe()
        ms = self._cell_ms.get(id(cell))
        if ms is None:
            ms = self._price_cell(cell)
        return ms

    def cell_prices_ms(self, cells: Sequence[CellCost]) -> np.ndarray:
        """Noise-free isolated times (ms) of many cost-table cells, from
        the memo :meth:`cell_time_ms` reads. No probe: the caller probes
        each cell itself."""
        memo = self._cell_ms
        prices = list(map(memo.get, map(id, cells)))
        if None in prices:
            for pos, cell in enumerate(cells):
                if prices[pos] is None:
                    # Again from the memo: a cell may repeat in ``cells``
                    # (layers of equal geometry share one).
                    ms = memo.get(id(cell))
                    prices[pos] = self._price_cell(cell) if ms is None else ms
        return np.array(prices, dtype=np.float64)

    def _price_cell(self, cell: CellCost) -> float:
        ms = self._cell_ms[id(cell)] = self._isolated_ms(cell.primitives)
        self._cells_kept.append(cell)
        return ms

    def operator_time_ms(
        self,
        space: SearchSpace,
        layer: int,
        op_index: int,
        factor: float,
        cin: int,
    ) -> float:
        """Isolated execution time of one operator choice at one layer.

        This is what an op-level micro-benchmark measures when building
        the latency LUT: kernel times only, no layer-boundary or base
        overheads (which is precisely why the summed LUT underestimates
        end-to-end latency and the paper needs the bias ``B``).
        """
        return self.cell_time_ms(space.operator_cell(layer, op_index, factor, cin))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeviceModel({self.spec.key!r}, batch={self.spec.batch_size})"


def get_device(key: str, time_scale: Optional[float] = None) -> DeviceModel:
    """Construct a default device model by key (``"gpu"``/``"cpu"``/``"edge"``)."""
    spec = spec_by_key(key)
    if time_scale is not None:
        spec = spec.with_time_scale(time_scale)
    return DeviceModel(spec)
