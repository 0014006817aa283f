"""Stateless tensor operations shared by the layer implementations.

The convolution layers are built on an ``im2col``/``col2im`` pair: the
input patches are unfolded into a matrix so that the convolution becomes
a single GEMM, which is the only way to get acceptable throughput out of
numpy for supernet training.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def pad_nchw(x: np.ndarray, padding: int, value: float = 0.0) -> np.ndarray:
    """Pad the spatial dimensions of an NCHW tensor with ``value``.

    One fill plus one slice assignment; the result equals
    ``np.pad(..., constant_values=value)`` at a fraction of its cost.
    """
    if padding == 0:
        return x
    n, c, h, w = x.shape
    out = np.full((n, c, h + 2 * padding, w + 2 * padding), value, dtype=x.dtype)
    out[:, :, padding : padding + h, padding : padding + w] = x
    return out


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


def im2col(
    x: np.ndarray,
    kernel: int,
    stride: int,
    padding: int,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int, int]:
    """Unfold NCHW input into columns.

    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(N, C * kernel * kernel, out_h * out_w)``. ``out`` may supply a
    preallocated ``(N, C, kernel, kernel, out_h, out_w)`` buffer (see
    :class:`Im2colWorkspace`); it is filled and returned reshaped.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    x = pad_nchw(x, padding)

    # Every (ki, kj) tap of every output position is a strided window
    # into the padded input, so the whole column tensor is one read-only
    # view of it, copied out in a single pass. The strides come from the
    # array itself, so non-contiguous inputs (channel slices, transposed
    # views) need no contiguous copy first.
    shape = (n, c, kernel, kernel, out_h, out_w)
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=shape,
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    if out is not None and out.shape == shape and out.dtype == x.dtype:
        cols = out
    else:
        cols = np.empty(shape, dtype=x.dtype)
    np.copyto(cols, windows)
    return cols.reshape(n, c * kernel * kernel, out_h * out_w), out_h, out_w


class Im2colWorkspace:
    """Reusable im2col output buffers keyed on the unfold geometry.

    Supernet training calls the same convolution with the same input
    shape every step; reusing the column buffer avoids a fresh
    ``C * k * k * OH * OW``-sized allocation per call. Each layer owns
    its own workspace (a shared one would alias the column buffers that
    the training forward caches for backward).
    """

    def __init__(self) -> None:
        self._buffers: dict = {}

    def get(
        self,
        x_shape: Tuple[int, int, int, int],
        kernel: int,
        stride: int,
        padding: int,
        dtype: np.dtype,
    ) -> np.ndarray:
        """Buffer of shape ``(N, C, k, k, out_h, out_w)`` for this geometry."""
        key = (tuple(x_shape), kernel, stride, padding, np.dtype(dtype))
        buf = self._buffers.get(key)
        if buf is None:
            n, c, h, w = x_shape
            out_h = conv_output_size(h, kernel, stride, padding)
            out_w = conv_output_size(w, kernel, stride, padding)
            buf = np.empty((n, c, kernel, kernel, out_h, out_w), dtype=dtype)
            self._buffers[key] = buf
        return buf

    def clear(self) -> None:
        self._buffers.clear()

    def __len__(self) -> int:
        return len(self._buffers)


def grouped_conv2d_loop(
    x: np.ndarray,
    weight: np.ndarray,
    stride: int,
    padding: int,
    groups: int,
) -> Tuple[np.ndarray, list]:
    """Per-group Python-loop reference forward (pre-vectorization path).

    Kept as the reference implementation the equivalence tests check
    :class:`~repro.nn.layers.conv.Conv2d` against. Returns
    ``(out, cols_per_group)`` so :func:`grouped_conv2d_loop_backward`
    can mirror the old training cache exactly.
    """
    n = x.shape[0]
    cout, cin_g, k, _ = weight.shape
    cout_g = cout // groups
    out = None
    cols_per_group = []
    out_h = out_w = 0
    for gi in range(groups):
        xg = x[:, gi * cin_g : (gi + 1) * cin_g]
        cols, out_h, out_w = im2col(xg, k, stride, padding)
        wmat = weight[gi * cout_g : (gi + 1) * cout_g].reshape(cout_g, -1)
        yg = np.einsum("oc,ncp->nop", wmat, cols, optimize=True)
        if out is None:
            out = np.empty((n, cout, out_h * out_w), dtype=x.dtype)
        out[:, gi * cout_g : (gi + 1) * cout_g] = yg
        cols_per_group.append(cols)
    return out.reshape(n, cout, out_h, out_w), cols_per_group


def grouped_conv2d_loop_backward(
    grad_out: np.ndarray,
    cols_per_group: list,
    weight: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    stride: int,
    padding: int,
    groups: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-group loop reference backward; returns ``(grad_x, grad_weight)``."""
    n = grad_out.shape[0]
    cout, cin_g, k, _ = weight.shape
    cout_g = cout // groups
    grad_flat = grad_out.reshape(n, cout, -1)
    grad_weight = np.zeros_like(weight)
    grad_x = np.empty(x_shape, dtype=grad_out.dtype)
    group_shape = (n, cin_g, x_shape[2], x_shape[3])
    for gi in range(groups):
        gyg = grad_flat[:, gi * cout_g : (gi + 1) * cout_g]
        cols = cols_per_group[gi]
        gw = np.einsum("nop,ncp->oc", gyg, cols, optimize=True)
        grad_weight[gi * cout_g : (gi + 1) * cout_g] = gw.reshape(
            cout_g, cin_g, k, k
        )
        wmat = weight[gi * cout_g : (gi + 1) * cout_g].reshape(cout_g, -1)
        gcols = np.einsum("oc,nop->ncp", wmat, gyg, optimize=True)
        grad_x[:, gi * cin_g : (gi + 1) * cin_g] = col2im(
            gcols, group_shape, k, stride, padding
        )
    return grad_x, grad_weight


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold columns back into an NCHW tensor, summing overlapping patches.

    Inverse-accumulation counterpart of :func:`im2col`, used by the
    convolution backward pass to produce the input gradient.
    """
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    cols = cols.reshape(n, c, kernel, kernel, out_h, out_w)

    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for ki in range(kernel):
        hi_end = ki + stride * out_h
        for kj in range(kernel):
            wj_end = kj + stride * out_w
            padded[:, :, ki:hi_end:stride, kj:wj_end:stride] += cols[:, :, ki, kj, :, :]
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode an integer label vector."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.min(initial=0) < 0 or (labels.size and labels.max() >= num_classes):
        raise ValueError("labels out of range for one-hot encoding")
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
