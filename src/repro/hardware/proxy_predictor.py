"""FLOPs-proxy latency predictor — the straw man Fig. 2 dismisses.

A common shortcut predicts latency as an affine function of FLOPs.
Fig. 2 shows why that fails: equal-FLOPs architectures differ widely in
device latency. This predictor exists so the comparison is quantitative:
fit it on measured architectures, evaluate it with the same
:class:`~repro.hardware.predictor.PredictorReport`, and watch it lose
to the LUT+B model by a wide RMSE margin (see
``tests/hardware/test_proxy_predictor.py``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.hardware.metrics import mean_bias, pearson, rmse, spearman
from repro.hardware.predictor import PredictorReport
from repro.hardware.profiler import OnDeviceProfiler
from repro.space.architecture import Architecture
from repro.space.search_space import SearchSpace


class FlopsLatencyPredictor:
    """``latency ~= a * FLOPs + b``, least-squares fit on measurements."""

    def __init__(self, space: SearchSpace, device_key: str = "unknown"):
        self.space = space
        self.device_key = device_key
        self.slope = 0.0
        self.intercept = 0.0
        self.fitted = False

    def fit(
        self,
        profiler: OnDeviceProfiler,
        num_archs: int = 40,
        seed: int = 0,
        archs: Optional[Sequence[Architecture]] = None,
    ) -> "FlopsLatencyPredictor":
        """Fit the affine map on measured (FLOPs, latency) pairs."""
        if archs is None:
            rng = np.random.default_rng(seed)
            archs = self.space.sample_many(rng, num_archs)
        if len(archs) < 2:
            raise ValueError("need at least two architectures to fit a line")
        flops = np.array([self.space.arch_flops(a) for a in archs])
        measured = np.array(profiler.measure_many_ms(self.space, list(archs)))
        self.slope, self.intercept = np.polyfit(flops, measured, deg=1)
        self.device_key = profiler.device.spec.key
        self.fitted = True
        return self

    def predict(self, arch: Architecture) -> float:
        """Predicted latency in milliseconds."""
        if not self.fitted:
            raise RuntimeError("call fit() before predict()")
        return float(self.slope * self.space.arch_flops(arch) + self.intercept)

    def predict_many(self, archs: Sequence[Architecture]) -> List[float]:
        return [self.predict(a) for a in archs]

    def evaluate(
        self, profiler: OnDeviceProfiler, archs: Sequence[Architecture]
    ) -> PredictorReport:
        """Same report format as the LUT+B predictor, for comparison."""
        if not archs:
            raise ValueError("evaluation needs at least one architecture")
        measured = profiler.measure_many_ms(self.space, list(archs))
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
