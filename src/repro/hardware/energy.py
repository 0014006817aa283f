"""Energy modeling — the paper's announced extension.

The conclusion of the paper states: "In future, we plan to extend
HSCoNAS, which will incorporate different hardware constraints like
power consumption." This module implements that extension on top of the
same device substrate:

* :meth:`EnergyModel.network_energy_mj` — per-inference energy of a
  network on a device: dynamic switching energy (per MAC + per byte of
  DRAM traffic) plus static power integrated over the latency-model
  execution time. The static term couples energy to the latency model,
  so the energy landscape is *not* simply proportional to FLOPs.
* :class:`EnergyPredictor` — a per-operator energy lookup table with a
  calibrated bias, the exact analogue of the Eq. 2-3 latency model, so
  the search never needs on-device power measurement either.

Use :class:`repro.core.multi_constraint.MultiConstraintObjective` to
search under a latency target *and* an energy budget simultaneously.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.hardware.device import DeviceModel
from repro.space.architecture import Architecture
from repro.space.operators import Primitive
from repro.space.search_space import SearchSpace


class EnergyModel:
    """Per-inference energy of networks on a simulated device."""

    def __init__(self, device: DeviceModel):
        self.device = device

    # -- kernel-level --------------------------------------------------------

    def primitive_energy_j(
        self, prim: Primitive, batch: Optional[int] = None
    ) -> float:
        """Energy of one kernel in joules (dynamic + static-over-time)."""
        spec = self.device.spec
        b = spec.batch_size if batch is None else batch
        dynamic = (
            prim.flops * b * spec.pj_per_mac
            + (prim.bytes_read + prim.bytes_written) * b * spec.pj_per_byte
        ) * 1e-12
        static = spec.static_watts * self.device.primitive_time_s(prim, batch)
        return dynamic + static

    # -- network-level --------------------------------------------------------

    def network_energy_mj(
        self,
        layer_primitives: Sequence[Sequence[Primitive]],
        extra_primitives: Sequence[Primitive] = (),
        batch: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """End-to-end energy per inference batch, in millijoules.

        The static power also burns through the latency model's
        boundary and base overheads. With ``rng``, multiplicative
        measurement noise is applied (a power rail is at least as noisy
        as a timer).
        """
        spec = self.device.spec
        total_j = spec.static_watts * spec.base_overhead_s
        boundaries = 0
        for layer in layer_primitives:
            if not layer:
                continue
            boundaries += 1
            for prim in layer:
                total_j += self.primitive_energy_j(prim, batch)
        if extra_primitives:
            boundaries += 1
            for prim in extra_primitives:
                total_j += self.primitive_energy_j(prim, batch)
        total_j += spec.static_watts * boundaries * spec.layer_overhead_s
        total_j *= spec.time_scale  # static time scales with latency
        if rng is not None and spec.noise_sigma > 0:
            total_j *= float(np.exp(rng.normal(0.0, spec.noise_sigma)))
        return total_j * 1e3

    def arch_energy_mj(
        self,
        space: SearchSpace,
        arch: Architecture,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Per-inference energy of a search-space architecture."""
        return self.network_energy_mj(
            space.arch_primitives(arch),
            space.stem_head_primitives(arch),
            rng=rng,
        )

    def operator_energy_mj(
        self, space: SearchSpace, layer: int, op_index: int, factor: float,
        cin: int,
    ) -> float:
        """Isolated energy of one operator cell (for the energy LUT)."""
        prims = space.operator_primitives(layer, op_index, factor, cin)
        total = sum(self.primitive_energy_j(p) for p in prims)
        return total * self.device.spec.time_scale * 1e3


class EnergyPredictor:
    """LUT-plus-bias energy model — the Eq. 2-3 pattern applied to power.

    Built the same way as :class:`repro.hardware.LatencyPredictor`:
    micro-benchmark each (layer, op, cin, factor) cell on the simulated
    power rail, then calibrate a constant bias against end-to-end
    measurements of M sampled architectures.
    """

    def __init__(self, space: SearchSpace, model: EnergyModel):
        self.space = space
        self.model = model
        self.entries: Dict = {}
        self.stem_head_mj: Dict[int, float] = {}
        self.bias_mj = 0.0
        self.calibrated = False

    def build(self, samples_per_cell: int = 2, seed: int = 0) -> "EnergyPredictor":
        """Micro-benchmark every operator cell (with measurement noise)."""
        from repro.hardware.lut import layer_cin_choices

        if samples_per_cell < 1:
            raise ValueError("samples_per_cell must be >= 1")
        rng = np.random.default_rng(seed)
        sigma = self.model.device.spec.noise_sigma
        space = self.space

        def measured(base: float) -> float:
            if sigma > 0 and base > 0:
                draws = base * np.exp(
                    rng.normal(0.0, sigma, size=samples_per_cell)
                )
                return float(np.mean(draws))
            return base

        for layer in range(space.num_layers):
            for cin in layer_cin_choices(space, layer):
                for op in space.candidate_ops[layer]:
                    for factor in space.candidate_factors[layer]:
                        base = self.model.operator_energy_mj(
                            space, layer, op, factor, cin
                        )
                        key = (layer, op, cin, round(factor, 6))
                        self.entries[key] = measured(base)

        # stem + per-width head cells, as in the latency LUT.
        scale = self.model.device.spec.time_scale
        stem_mj = measured(
            sum(
                self.model.primitive_energy_j(p)
                for p in space.stem_primitives()
            ) * scale * 1e3
        )
        for factor in space.candidate_factors[-1]:
            cin = space.out_channels(space.num_layers - 1, factor)
            if cin not in self.stem_head_mj:
                head = sum(
                    self.model.primitive_energy_j(p)
                    for p in space.head_primitives(cin)
                ) * scale * 1e3
                self.stem_head_mj[cin] = stem_mj + measured(head)
        return self

    def predict(self, arch: Architecture) -> float:
        """Predicted per-inference energy in millijoules."""
        if not self.entries:
            raise RuntimeError("call build() before predict()")
        total = 0.0
        channels = self.space.active_channels(arch)
        for layer, (op, factor) in enumerate(zip(arch.ops, arch.factors)):
            cin = channels[layer][0]
            total += self.entries[(layer, op, cin, round(factor, 6))]
        total += self.stem_head_mj[channels[-1][1]]
        return total + self.bias_mj

    def calibrate_bias(
        self, num_archs: int = 30, seed: int = 1
    ) -> float:
        """Fit the constant bias against noisy end-to-end measurements."""
        rng = np.random.default_rng(seed)
        noise_rng = np.random.default_rng(seed + 1)
        archs = self.space.sample_many(rng, num_archs)
        measured = [
            self.model.arch_energy_mj(self.space, a, rng=noise_rng)
            for a in archs
        ]
        predicted = [self.predict(a) - self.bias_mj for a in archs]
        self.bias_mj = float(np.mean(measured) - np.mean(predicted))
        self.calibrated = True
        return self.bias_mj
