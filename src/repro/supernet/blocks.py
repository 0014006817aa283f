"""Numpy implementations of the five candidate operators.

These mirror the analytic :class:`repro.space.operators.OperatorSpec`
definitions exactly: ShuffleNetV2 basic/downsampling units with kernel
3/5/7, the Xception variant (three stacked depthwise-3x3 stages), and
the skip connection (identity, or pool+project in downsampling layers).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers.activation import ReLU
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.layers.pool import AvgPool2d
from repro.nn.layers.shuffle import ChannelShuffle
from repro.nn.module import Module, Sequential
from repro.space.operators import OperatorSpec


class ShuffleV2Block(Module):
    """ShuffleNetV2 unit with a configurable depthwise kernel size.

    stride 1: channel split, transform the right half
    (1x1 -> dw kxk -> 1x1), concat, shuffle. Requires ``cin == cout``.
    stride 2: both branches consume the full input; concat halves.
    """

    def __init__(self, cin: int, cout: int, kernel_size: int, stride: int,
                 rng: np.random.Generator):
        super().__init__()
        if stride not in (1, 2):
            raise ValueError("stride must be 1 or 2")
        if stride == 1 and cin != cout:
            raise ValueError("stride-1 shuffle block needs cin == cout")
        if cout % 2:
            raise ValueError("cout must be even (channel split)")
        self.stride = stride
        self.cin = cin
        self.cout = cout
        half = cout // 2
        k = kernel_size
        if stride == 1:
            branch_in = cin // 2
            self.branch = Sequential(
                Conv2d(branch_in, half, 1, rng=rng),
                BatchNorm2d(half),
                ReLU(),
                Conv2d(half, half, k, stride=1, padding=k // 2, groups=half, rng=rng),
                BatchNorm2d(half),
                Conv2d(half, half, 1, rng=rng),
                BatchNorm2d(half),
                ReLU(),
            )
            self.left = None
        else:
            self.left = Sequential(
                Conv2d(cin, cin, k, stride=2, padding=k // 2, groups=cin, rng=rng),
                BatchNorm2d(cin),
                Conv2d(cin, half, 1, rng=rng),
                BatchNorm2d(half),
                ReLU(),
            )
            self.branch = Sequential(
                Conv2d(cin, half, 1, rng=rng),
                BatchNorm2d(half),
                ReLU(),
                Conv2d(half, half, k, stride=2, padding=k // 2, groups=half, rng=rng),
                BatchNorm2d(half),
                Conv2d(half, half, 1, rng=rng),
                BatchNorm2d(half),
                ReLU(),
            )
        self.shuffle = ChannelShuffle(groups=2)
        self._left_channels: Optional[int] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.stride == 1:
            split = x.shape[1] // 2
            # Only training forwards may retain per-call state: eval
            # forwards must leave no caches behind (docs/performance.md).
            self._left_channels = split if self.training else None
            left, right = x[:, :split], x[:, split:]
            out = np.concatenate([left, self.branch(right)], axis=1)
        else:
            out = np.concatenate([self.left(x), self.branch(x)], axis=1)
        return self.shuffle(out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = self.shuffle.backward(grad_out)
        if self.stride == 1:
            split = self._left_channels
            if split is None:
                raise RuntimeError(
                    "backward called without a cached training forward"
                )
            grad_left = grad[:, :split]
            grad_right = self.branch.backward(grad[:, split:])
            return np.concatenate([grad_left, grad_right], axis=1)
        half = self.cout // 2
        grad_in = self.left.backward(grad[:, :half])
        grad_in = grad_in + self.branch.backward(grad[:, half:])
        return grad_in


class ShuffleXceptionBlock(Module):
    """ShuffleNetV2-Xception unit: dw3-1x1 repeated three times."""

    def __init__(self, cin: int, cout: int, stride: int, rng: np.random.Generator):
        super().__init__()
        if stride not in (1, 2):
            raise ValueError("stride must be 1 or 2")
        if stride == 1 and cin != cout:
            raise ValueError("stride-1 xception block needs cin == cout")
        if cout % 2:
            raise ValueError("cout must be even (channel split)")
        self.stride = stride
        self.cin = cin
        self.cout = cout
        half = cout // 2
        if stride == 1:
            branch_in = cin // 2
            self.branch = Sequential(
                Conv2d(branch_in, branch_in, 3, padding=1, groups=branch_in, rng=rng),
                BatchNorm2d(branch_in),
                Conv2d(branch_in, half, 1, rng=rng),
                BatchNorm2d(half),
                ReLU(),
                Conv2d(half, half, 3, padding=1, groups=half, rng=rng),
                BatchNorm2d(half),
                Conv2d(half, half, 1, rng=rng),
                BatchNorm2d(half),
                ReLU(),
                Conv2d(half, half, 3, padding=1, groups=half, rng=rng),
                BatchNorm2d(half),
                Conv2d(half, half, 1, rng=rng),
                BatchNorm2d(half),
                ReLU(),
            )
            self.left = None
        else:
            self.left = Sequential(
                Conv2d(cin, cin, 3, stride=2, padding=1, groups=cin, rng=rng),
                BatchNorm2d(cin),
                Conv2d(cin, half, 1, rng=rng),
                BatchNorm2d(half),
                ReLU(),
            )
            self.branch = Sequential(
                Conv2d(cin, cin, 3, stride=2, padding=1, groups=cin, rng=rng),
                BatchNorm2d(cin),
                Conv2d(cin, half, 1, rng=rng),
                BatchNorm2d(half),
                ReLU(),
                Conv2d(half, half, 3, padding=1, groups=half, rng=rng),
                BatchNorm2d(half),
                Conv2d(half, half, 1, rng=rng),
                BatchNorm2d(half),
                ReLU(),
                Conv2d(half, half, 3, padding=1, groups=half, rng=rng),
                BatchNorm2d(half),
                Conv2d(half, half, 1, rng=rng),
                BatchNorm2d(half),
                ReLU(),
            )
        self.shuffle = ChannelShuffle(groups=2)
        self._left_channels: Optional[int] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.stride == 1:
            split = x.shape[1] // 2
            # Only training forwards may retain per-call state: eval
            # forwards must leave no caches behind (docs/performance.md).
            self._left_channels = split if self.training else None
            left, right = x[:, :split], x[:, split:]
            out = np.concatenate([left, self.branch(right)], axis=1)
        else:
            out = np.concatenate([self.left(x), self.branch(x)], axis=1)
        return self.shuffle(out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = self.shuffle.backward(grad_out)
        if self.stride == 1:
            split = self._left_channels
            if split is None:
                raise RuntimeError(
                    "backward called without a cached training forward"
                )
            grad_left = grad[:, :split]
            grad_right = self.branch.backward(grad[:, split:])
            return np.concatenate([grad_left, grad_right], axis=1)
        half = self.cout // 2
        grad_in = self.left.backward(grad[:, :half])
        grad_in = grad_in + self.branch.backward(grad[:, half:])
        return grad_in


class SkipOp(Module):
    """Skip connection: identity at stride 1, pool+project at stride 2."""

    def __init__(self, cin: int, cout: int, stride: int, rng: np.random.Generator):
        super().__init__()
        self.stride = stride
        if stride == 1 and cin == cout:
            self.proj = None
        else:
            self.pool = AvgPool2d(kernel_size=stride, stride=stride)
            self.proj = Sequential(
                Conv2d(cin, cout, 1, rng=rng),
                BatchNorm2d(cout),
            )

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.proj is None:
            return x
        return self.proj(self.pool(x))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self.proj is None:
            return grad_out
        return self.pool.backward(self.proj.backward(grad_out))


def build_operator_module(
    spec: OperatorSpec,
    cin: int,
    cout: int,
    stride: int,
    rng: np.random.Generator,
) -> Module:
    """Instantiate the numpy module for an analytic operator spec."""
    if spec.kind == "shuffle":
        return ShuffleV2Block(cin, cout, spec.kernel_size, stride, rng)
    if spec.kind == "shuffle_x":
        return ShuffleXceptionBlock(cin, cout, stride, rng)
    if spec.kind == "skip":
        return SkipOp(cin, cout, stride, rng)
    raise ValueError(f"unknown operator kind {spec.kind!r}")
