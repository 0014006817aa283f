"""im2col / pad_nchw against the historical per-tap reference.

``im2col`` unfolds through one strided-window view of the padded input.
The convolution layers and the fast evaluator feed its columns straight
into BLAS, so the columns must hold exactly the values the old k*k
slice-assignment loop produced, for every geometry, dtype and memory
layout. The reference below is that loop, kept verbatim.
"""

import numpy as np
import pytest

from repro.nn.functional import conv_output_size, im2col, pad_nchw


def reference_pad(x, padding):
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def reference_im2col(x, kernel, stride, padding):
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    x = reference_pad(x, padding)
    cols = np.empty((n, c, kernel, kernel, out_h, out_w), dtype=x.dtype)
    for ki in range(kernel):
        hi_end = ki + stride * out_h
        for kj in range(kernel):
            wj_end = kj + stride * out_w
            cols[:, :, ki, kj, :, :] = x[:, :, ki:hi_end:stride, kj:wj_end:stride]
    return cols.reshape(n, c * kernel * kernel, out_h * out_w), out_h, out_w


def assert_same_unfold(x, kernel, stride, padding, out=None):
    got = im2col(x, kernel, stride, padding, out=out)
    want = reference_im2col(x, kernel, stride, padding)
    assert got[1:] == want[1:]
    assert got[0].dtype == want[0].dtype
    np.testing.assert_array_equal(got[0], want[0])
    return got[0]


RNG = np.random.default_rng(2024)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("padding", [0, 1, 2, 3])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("kernel", [1, 2, 3, 5, 7])
def test_matches_reference_grid(kernel, stride, padding, dtype):
    # H != W, and large enough for a 7x7 window without padding.
    x = RNG.standard_normal((2, 3, 9, 11)).astype(dtype)
    assert_same_unfold(x, kernel, stride, padding)


@pytest.mark.parametrize("kernel,stride,padding", [(3, 1, 1), (5, 2, 2), (7, 1, 3)])
def test_channel_slice_input(kernel, stride, padding):
    # The ShuffleV2 split hands the branch a channel slice of the block
    # input: a non-contiguous view with the parent's strides.
    x = RNG.standard_normal((2, 8, 8, 10))
    right = x[:, 3:]
    assert not right.flags.c_contiguous
    assert_same_unfold(right, kernel, stride, padding)
    # Unpadded, the window view is taken on the slice itself.
    assert_same_unfold(right, kernel, stride, 0)


@pytest.mark.parametrize("padding", [0, 2])
def test_transposed_input(padding):
    x = RNG.standard_normal((8, 10, 3, 2)).transpose(3, 2, 1, 0)
    assert x.shape == (2, 3, 10, 8)
    assert not x.flags.c_contiguous
    assert_same_unfold(x, 3, 2, padding)


def test_fills_supplied_buffer():
    x = RNG.standard_normal((2, 4, 8, 8))
    buf = np.full((2, 4, 5, 5, 4, 4), np.nan)
    cols = assert_same_unfold(x, 5, 2, 2, out=buf)
    assert np.shares_memory(cols, buf)


@pytest.mark.parametrize(
    "buf",
    [
        np.zeros((2, 4, 3, 3, 8, 8)),  # wrong geometry
        np.zeros((2, 4, 5, 5, 4, 4), dtype=np.float32),  # wrong dtype
    ],
)
def test_mismatched_buffer_is_not_used(buf):
    x = RNG.standard_normal((2, 4, 8, 8))
    before = buf.copy()
    cols = assert_same_unfold(x, 5, 2, 2, out=buf)
    assert not np.shares_memory(cols, buf)
    np.testing.assert_array_equal(buf, before)


def test_columns_do_not_alias_input():
    x = RNG.standard_normal((1, 2, 6, 6))
    cols, _, _ = im2col(x, 3, 1, 0)
    assert not np.shares_memory(cols, x)
    assert cols.flags.writeable


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
@pytest.mark.parametrize("padding", [1, 2, 3])
def test_pad_matches_np_pad(padding, dtype):
    x = (RNG.standard_normal((2, 3, 5, 7)) * 10).astype(dtype)
    got = pad_nchw(x, padding)
    want = reference_pad(x, padding)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    view = x[:, 1:]
    np.testing.assert_array_equal(pad_nchw(view, padding), reference_pad(view, padding))


def test_pad_fill_value():
    x = np.ones((1, 1, 2, 3))
    got = pad_nchw(x, 1, value=-np.inf)
    want = np.pad(
        x, ((0, 0), (0, 0), (1, 1), (1, 1)), constant_values=-np.inf
    )
    np.testing.assert_array_equal(got, want)
