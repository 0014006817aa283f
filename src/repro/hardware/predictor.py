"""The paper's hardware performance model (Eq. 2-3).

``LAT(arch) = sum_l LAT(op^l) + B`` where the per-operator terms come
from a micro-benchmark LUT and ``B`` compensates the communication
overheads of sequential layers:

``B = (1/M) * sum_i [ LAT+(arch_i) - sum_l LAT(op^l_i) ]``

with ``LAT+`` the measured end-to-end on-device latency over ``M``
sampled architectures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.degradation import DegradationReport
from repro.hardware.faults import ProbeError
from repro.hardware.lut import LatencyLUT
from repro.space.operators import get_operator
from repro.hardware.metrics import mean_bias, pearson, rmse, spearman
from repro.hardware.profiler import OnDeviceProfiler
from repro.space.architecture import Architecture
from repro.space.search_space import SearchSpace


@dataclass(frozen=True)
class PredictorReport:
    """Accuracy of a latency predictor on an evaluation set."""

    device_key: str
    num_archs: int
    rmse_ms: float
    mae_ms: float
    bias_ms: float
    pearson_r: float
    spearman_rho: float

    def __str__(self) -> str:
        return (
            f"[{self.device_key}] n={self.num_archs} "
            f"RMSE={self.rmse_ms:.3f}ms MAE={self.mae_ms:.3f}ms "
            f"bias={self.bias_ms:+.3f}ms r={self.pearson_r:.4f} "
            f"rho={self.spearman_rho:.4f}"
        )


class LatencyPredictor:
    """LUT-plus-bias latency model for one device.

    Typical usage::

        lut = LatencyLUT.build(space, device)
        predictor = LatencyPredictor(lut, space)
        predictor.calibrate_bias(space, profiler, num_archs=40, seed=1)
        ms = predictor.predict(arch)
    """

    def __init__(
        self,
        lut: LatencyLUT,
        space: SearchSpace,
        bias_ms: float = 0.0,
        ledger=None,
        degraded_ok: bool = False,
        degradation: Optional[DegradationReport] = None,
    ):
        self.lut = lut
        self.space = space
        self.bias_ms = bias_ms
        self.calibrated = False
        self.ledger = ledger
        # Graceful-degradation policy: with degraded_ok, a missing LUT
        # cell is served by the nearest present cell and recorded on the
        # degradation report — instead of a mid-search KeyError.
        self.degraded_ok = degraded_ok
        self.degradation = (
            degradation if degradation is not None else DegradationReport()
        )
        # Faults observed while the LUT was built belong to this
        # predictor's story too.
        if lut.build_degradation.degraded():
            self.degradation.merge(lut.build_degradation)

    @property
    def device_key(self) -> str:
        return self.lut.device_key

    # -- Eq. 2 ----------------------------------------------------------------

    def predict(self, arch: Architecture) -> float:
        """Predicted end-to-end latency in milliseconds."""
        if self.ledger is not None:
            self.ledger.record_prediction()
        if not self.degraded_ok:
            return self.lut.sum_ops_ms(arch, self.space) + self.bias_ms
        return (
            self.lut.sum_ops_ms(
                arch, self.space, fallback=True, report=self.degradation
            )
            + self.bias_ms
        )

    def predict_many(self, archs: Sequence[Architecture]) -> List[float]:
        """Batched :meth:`predict` via the dense LUT table.

        One fancy-indexed gather replaces ``P x L`` dict lookups;
        returns exactly what ``[self.predict(a) for a in archs]`` would
        — including on degraded LUTs, where both paths consult the same
        memoized nearest-cell substitutes.
        """
        archs = list(archs)
        if self.ledger is not None:
            self.ledger.record_prediction(count=len(archs))
        if not self.degraded_ok:
            sums = self.lut.sum_ops_ms_batch(archs, self.space)
            return [float(s) + self.bias_ms for s in sums]
        sums = self.lut.sum_ops_ms_batch(
            archs, self.space, fallback=True, report=self.degradation
        )
        return [float(s) + self.bias_ms for s in sums]

    def breakdown(self, arch: Architecture) -> List[Tuple[str, float]]:
        """Per-component predicted latency: stem, each layer, head, B.

        The per-layer terms are the LUT cells the prediction sums —
        useful for seeing *where* an architecture spends its budget
        (e.g. which layers the EA should thin out). Cells resolve as in
        :meth:`predict`: on a degraded LUT a missing cell shows the
        substitute value the prediction serves (``degraded_ok``) or
        raises ``KeyError`` (otherwise).
        """
        fallback, report = self.degraded_ok, self.degradation
        channels = self.space.active_channels(arch)
        parts: List[Tuple[str, float]] = [("stem", self.lut.stem_ms)]
        for layer, (op, factor) in enumerate(zip(arch.ops, arch.factors)):
            cin = channels[layer][0]
            name = f"layer{layer:02d}:{get_operator(op).name}@{factor:.1f}"
            parts.append((name, self.lut.lookup(
                layer, op, cin, factor, fallback=fallback, report=report
            )))
        parts.append(("head", self.lut.head_lookup(
            channels[-1][1], fallback=fallback, report=report
        )))
        parts.append(("bias B", self.bias_ms))
        return parts

    # -- Eq. 3 ----------------------------------------------------------------

    def calibrate_bias(
        self,
        space: SearchSpace,
        profiler: OnDeviceProfiler,
        num_archs: int = 40,
        seed: int = 1,
        archs: Optional[Sequence[Architecture]] = None,
    ) -> float:
        """Estimate ``B`` from ``M`` measured architectures.

        Returns the fitted bias (also stored on the predictor). An
        explicit architecture list can be supplied; otherwise ``M``
        architectures are sampled uniformly from the space, as in the
        paper.
        """
        if archs is None:
            rng = np.random.default_rng(seed)
            archs = space.sample_many(rng, num_archs)
        if not archs:
            raise ValueError("bias calibration needs at least one architecture")
        archs = list(archs)
        if self.degraded_ok:
            # Graceful path: a session whose probes exhausted their
            # retries is dropped from *both* Eq. 3 means (the pairing
            # must stay aligned), and the concession is recorded.
            measured = profiler.measure_many_ms(space, archs, on_failure="skip")
            kept = [
                (m, a) for m, a in zip(measured, archs) if not np.isnan(m)
            ]
            if not kept:
                raise ProbeError(
                    "bias calibration failed: every measurement session "
                    "was dropped after retries"
                )
            if len(kept) < len(archs):
                self.degradation.record_event(
                    f"bias calibration degraded: {len(archs) - len(kept)} of "
                    f"{len(archs)} sessions dropped"
                )
            measured = [m for m, _ in kept]
            summed = [
                self.lut.sum_ops_ms(
                    a, self.space, fallback=True, report=self.degradation
                )
                for _, a in kept
            ]
        else:
            measured = profiler.measure_many_ms(space, archs)
            summed = [self.lut.sum_ops_ms(a, self.space) for a in archs]
        self.bias_ms = float(np.mean(measured) - np.mean(summed))
        self.calibrated = True
        return self.bias_ms

    # -- evaluation -----------------------------------------------------------

    def evaluate(
        self,
        space: SearchSpace,
        profiler: OnDeviceProfiler,
        archs: Sequence[Architecture],
    ) -> PredictorReport:
        """Compare predictions against fresh on-device measurements."""
        if not archs:
            raise ValueError("evaluation needs at least one architecture")
        measured = profiler.measure_many_ms(space, list(archs))
        predicted = self.predict_many(archs)
        return PredictorReport(
            device_key=self.device_key,
            num_archs=len(archs),
            rmse_ms=rmse(predicted, measured),
            mae_ms=float(np.mean(np.abs(np.array(predicted) - np.array(measured)))),
            bias_ms=mean_bias(predicted, measured),
            pearson_r=pearson(predicted, measured),
            spearman_rho=spearman(predicted, measured),
        )
