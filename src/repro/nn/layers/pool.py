"""Spatial pooling layers."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.functional import col2im, im2col, pad_nchw
from repro.nn.module import Module


class MaxPool2d(Module):
    """Max pooling over square windows."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding
        self._cache: Optional[dict] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.kernel_size
        # Pool each channel independently by treating channels as batch.
        # Padding is -inf, so a padded cell can never win the max; the
        # padded input is then unfolded without further padding.
        padded = pad_nchw(x.reshape(n * c, 1, h, w), self.padding, value=-np.inf)
        cols, out_h, out_w = im2col(padded, k, self.stride, 0)
        # cols: (N*C, k*k, OHW)
        idx = np.argmax(cols, axis=1)  # (N*C, OHW)
        out = np.take_along_axis(cols, idx[:, None, :], axis=1)[:, 0, :]
        if self.training:
            self._cache = {
                "idx": idx,
                "cols_shape": cols.shape,
                "x_shape": x.shape,
            }
        else:
            self._cache = None
        return out.reshape(n, c, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called without a cached training forward")
        idx = self._cache["idx"]
        cols_shape = self._cache["cols_shape"]
        n, c, h, w = self._cache["x_shape"]
        k = self.kernel_size
        p = self.padding

        grad_cols = np.zeros(cols_shape, dtype=grad_out.dtype)
        flat = grad_out.reshape(n * c, -1)
        np.put_along_axis(grad_cols, idx[:, None, :], flat[:, None, :], axis=1)
        # Fold into the padded shape, then crop the padding away.
        grad_padded = col2im(
            grad_cols, (n * c, 1, h + 2 * p, w + 2 * p), k, self.stride, 0
        )
        grad_x = grad_padded[:, :, p : p + h, p : p + w].reshape(n, c, h, w)
        self._cache = None
        return grad_x


class AvgPool2d(Module):
    """Average pooling over square windows."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding
        self._x_shape: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.kernel_size
        cols, out_h, out_w = im2col(
            x.reshape(n * c, 1, h, w), k, self.stride, self.padding
        )
        out = cols.mean(axis=1)
        self._x_shape = x.shape if self.training else None
        return out.reshape(n, c, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called without a cached training forward")
        n, c, h, w = self._x_shape
        k = self.kernel_size
        flat = grad_out.reshape(n * c, 1, -1) / (k * k)
        grad_cols = np.broadcast_to(flat, (n * c, k * k, flat.shape[2]))
        grad_x = col2im(
            np.ascontiguousarray(grad_cols), (n * c, 1, h, w), k, self.stride, self.padding
        ).reshape(n, c, h, w)
        self._x_shape = None
        return grad_x


class GlobalAvgPool2d(Module):
    """Global average pooling: NCHW -> (N, C)."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape if self.training else None
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called without a cached training forward")
        n, c, h, w = self._x_shape
        grad_x = np.broadcast_to(
            grad_out[:, :, None, None] / (h * w), (n, c, h, w)
        ).copy()
        self._x_shape = None
        return grad_x
