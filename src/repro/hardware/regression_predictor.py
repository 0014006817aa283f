"""Feature-regression latency predictor (nn-Meter-style comparator).

Between the FLOPs-affine straw man and the paper's exhaustive LUT sits
the kernel-level *regression* approach (as in nn-Meter): describe each
operator by cheap features — MACs split by kind, bytes moved, kernel
count — and fit a linear model on measured architectures. It needs far
fewer measurements than a LUT build, at some accuracy cost; the
ablation benchmark quantifies where it lands between the two.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.hardware.metrics import mean_bias, pearson, rmse, spearman
from repro.hardware.predictor import PredictorReport
from repro.hardware.profiler import OnDeviceProfiler
from repro.space.architecture import Architecture
from repro.space.search_space import SearchSpace

_FEATURE_NAMES = (
    "conv_macs",
    "dwconv_macs",
    "bytes_moved",
    "kernel_count",
    "layer_count",
    "bias",
)


def architecture_features(space: SearchSpace, arch: Architecture) -> np.ndarray:
    """The regression feature vector of one architecture.

    MACs are split by kind because device efficiency differs per kind;
    the kernel and (non-empty) layer counts capture launch/boundary
    overheads that no MAC count sees.
    """
    conv_macs = 0.0
    dw_macs = 0.0
    bytes_moved = 0.0
    kernel_count = 0.0
    layer_count = 0.0
    layers = space.arch_primitives(arch)
    extra = space.stem_head_primitives(arch)
    for group in list(layers) + [extra]:
        if not group:
            continue
        layer_count += 1.0
        for prim in group:
            kernel_count += 1.0
            bytes_moved += prim.bytes_read + prim.bytes_written
            if prim.kind == "dwconv":
                dw_macs += prim.flops
            else:
                conv_macs += prim.flops
    return np.array([
        conv_macs / 1e6,
        dw_macs / 1e6,
        bytes_moved / 1e6,
        kernel_count,
        layer_count,
        1.0,
    ])


class FeatureLatencyPredictor:
    """Least-squares linear model over :func:`architecture_features`."""

    def __init__(self, space: SearchSpace, device_key: str = "unknown"):
        self.space = space
        self.device_key = device_key
        self.weights: Optional[np.ndarray] = None

    @property
    def fitted(self) -> bool:
        return self.weights is not None

    def fit(
        self,
        profiler: OnDeviceProfiler,
        num_archs: int = 40,
        seed: int = 0,
        archs: Optional[Sequence[Architecture]] = None,
    ) -> "FeatureLatencyPredictor":
        """Fit on measured architectures (ridge-regularized lstsq)."""
        if archs is None:
            rng = np.random.default_rng(seed)
            archs = self.space.sample_many(rng, num_archs)
        if len(archs) < len(_FEATURE_NAMES):
            raise ValueError(
                f"need at least {len(_FEATURE_NAMES)} architectures to fit"
            )
        features = np.stack(
            [architecture_features(self.space, a) for a in archs]
        )
        measured = np.array(profiler.measure_many_ms(self.space, list(archs)))
        # Small ridge term keeps the fit stable when features correlate.
        lam = 1e-6
        gram = features.T @ features + lam * np.eye(features.shape[1])
        self.weights = np.linalg.solve(gram, features.T @ measured)
        self.device_key = profiler.device.spec.key
        return self

    def predict(self, arch: Architecture) -> float:
        """Predicted latency in milliseconds."""
        if self.weights is None:
            raise RuntimeError("call fit() before predict()")
        return float(architecture_features(self.space, arch) @ self.weights)

    def predict_many(self, archs: Sequence[Architecture]) -> List[float]:
        return [self.predict(a) for a in archs]

    def evaluate(
        self, profiler: OnDeviceProfiler, archs: Sequence[Architecture]
    ) -> PredictorReport:
        """Same report format as the other predictors."""
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

    def coefficients(self) -> dict:
        """Named fitted coefficients (interpretability / debugging)."""
        if self.weights is None:
            raise RuntimeError("call fit() before reading coefficients")
        return dict(zip(_FEATURE_NAMES, (float(w) for w in self.weights)))
