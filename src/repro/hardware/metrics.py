"""Error and correlation metrics for predictor evaluation.

scipy is imported inside :func:`pearson` and :func:`spearman`, the only
functions that need it, so importing this module (and ``repro``) does not
load ``scipy.stats``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _pair(a: Sequence[float], b: Sequence[float]) -> tuple:
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be 1-D sequences of equal length")
    if x.size == 0:
        raise ValueError("inputs must be non-empty")
    return x, y


def rmse(predicted: Sequence[float], measured: Sequence[float]) -> float:
    """Root-mean-squared error (the paper's Fig. 3 metric)."""
    x, y = _pair(predicted, measured)
    return float(np.sqrt(np.mean((x - y) ** 2)))


def mae(predicted: Sequence[float], measured: Sequence[float]) -> float:
    """Mean absolute error."""
    x, y = _pair(predicted, measured)
    return float(np.mean(np.abs(x - y)))


def mean_bias(predicted: Sequence[float], measured: Sequence[float]) -> float:
    """Mean signed error (predicted - measured); near zero after B."""
    x, y = _pair(predicted, measured)
    return float(np.mean(x - y))


def pearson(a: Sequence[float], b: Sequence[float]) -> float:
    """Pearson linear correlation coefficient."""
    x, y = _pair(a, b)
    if np.allclose(x, x[0]) or np.allclose(y, y[0]):
        return 0.0
    from scipy import stats

    return float(stats.pearsonr(x, y).statistic)


def spearman(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman rank correlation coefficient."""
    x, y = _pair(a, b)
    if np.allclose(x, x[0]) or np.allclose(y, y[0]):
        return 0.0
    from scipy import stats

    return float(stats.spearmanr(x, y).statistic)
