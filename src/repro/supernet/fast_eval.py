"""Single-core fast evaluation path for the weight-sharing supernet.

Search-time evaluation (the Eq.-4 quality estimate, EA/NSGA-II fitness,
LUT validation) only ever runs forward passes, and on the 1-core target
host the per-arch training-style forward is the wall.
:class:`SupernetFastEval` attacks it four ways:

* **No-grad forwards** — every layer is computed from its parameters
  and running statistics directly, never through a module's
  ``forward``, so no layer allocates backward caches and the
  supernet's ``training`` flags are never touched. 1x1 convolutions
  skip im2col, eval BN is one allocation, ReLU rectifies in place and
  concat + channel shuffle is one write into the shuffled layout.
* **Batched candidate evaluation with shared prefixes** —
  :meth:`forward_many` keeps one activation row per distinct path
  prefix (architectures that agree on ``(operator, channels kept)`` up
  to a layer share its input) and runs *one* forward per distinct
  operator per layer (at most 5) over the rows that take it, instead of
  N per-arch passes. The stem runs once, duplicate architectures cost
  nothing extra, and the Python/layer-dispatch overhead is paid once
  per layer, not per arch.
* **Dead right halves** — a stride-1 ShuffleNetV2 unit feeds only the
  right half of its input to its branch, and a channel factor <= 0.5
  on the layer before zeroes that whole half. Such rows skip the
  branch: it runs once per call on one all-zero image, and each dead
  row takes its left half beside that constant.
* **Channel-major depthwise unfold** — every non-skip operator is built
  on depthwise kxk convolutions. Their input is padded once into a
  ``(C, Hp, Wp, N)`` buffer and unfolded as ``(C, k*k, OH*OW*N)``, so
  each copy run is ``OW*N`` elements long instead of ``OW``, and each
  channel is one GEMV per block of rows instead of one per image. Every
  output still goes through OpenBLAS's ``dgemv_n`` SIMD kernel with
  the same taps in the same order, which keeps it bit-identical to the
  per-image product under two conditions that the dispatch checks:
  ``OH*OW`` is a multiple of 4 (so the per-image product has no rows in
  the kernel's scalar tail), and each block's row count is a multiple
  of 8 with ``rows * k*k`` below OpenBLAS's threading threshold (so no
  GEMV is split across threads). Other geometries unfold per image.
* **Opt-in int8 GEMMs** — ``precision="int8"`` runs every conv/linear
  GEMM against the *deployment* int8 weight grid (the per-output-channel
  scales of :mod:`repro.deploy.quantize`, via
  :func:`repro.nn.quantized.quantize_weight`), with float32 activations
  and fused eval-mode BN, all through float32 sgemm. This is an
  approximation of the float64 forward: gate it with
  :func:`repro.nn.quantized.ranking_fidelity` before trusting rankings.

The default ``precision="float"`` path is **exact** against per-arch
eval-mode forwards through ``Supernet.forward`` — it performs the
identical numpy operations in the identical order, just batched — which
the equivalence tests assert with ``assert_array_equal``. (A dead row's
branch output may differ from the per-arch one only in the sign of a
zero.)

Per-stage wall-time attribution (im2col / GEMM / scoring / other, and
BN and masking inside other) is accumulated in :meth:`stage_times`;
the end-to-end benchmark's ``supernet_proxy`` workload reads it for its
per-operation table.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.nn.functional import conv_output_size, im2col, pad_nchw
from repro.nn.layers.activation import ReLU
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.linear import Linear
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.layers.pool import AvgPool2d
from repro.nn.module import Module, Sequential
from repro.nn.quantized import QuantizedTensor, quantize_weight
from repro.space.architecture import Architecture
from repro.space.cost_tables import cost_tables
from repro.supernet.blocks import ShuffleV2Block, ShuffleXceptionBlock, SkipOp
from repro.supernet.model import Supernet
from repro.train.metrics import top_k_accuracy

PRECISIONS = ("float", "int8")

#: Bytes of running sums per sample block of :func:`_depthwise_taps`.
_DW_BLOCK_BYTES = 1 << 17

#: OpenBLAS runs a GEMV on one thread while ``rows * columns`` stays
#: below ``2304 * GEMM_MULTITHREAD_THRESHOLD`` (4 unless rebuilt).
_GEMV_ONE_THREAD = 2304 * 4


def _depthwise_block_rows(k: int, out_hw: int, n: int) -> int:
    """Rows per GEMV of the channel-major depthwise unfold, or 0 when
    ``n`` images of ``out_hw`` outputs each would not be bit-exact there
    (see the module docstring)."""
    block = (_GEMV_ONE_THREAD - 1) // (k * k) // 8 * 8
    if out_hw % 4 or (out_hw * n) % 8 or block == 0:
        return 0
    return block


def _depthwise_taps(
    x: np.ndarray, taps: np.ndarray, k: int, stride: int, padding: int
) -> np.ndarray:
    """Depthwise convolution by direct tap accumulation (float32).

    ``taps`` is ``(C, k*k, 1)``; every output sums ``tap * input`` over
    the taps in row-major order. Two layout tricks keep numpy's inner
    loops long and in cache without changing that order:

    * each channel's padded input is flattened, so output ``(i, j)``
      sits at flat offset ``i * Wp + j`` and every tap is one strided
      run over the flat array (the ``Wp - OW`` columns past the right
      edge are computed and dropped);
    * the taps are accumulated over one block of samples at a time, so
      the running sum stays in cache across all ``k*k`` taps.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, k, stride, padding)
    out_w = conv_output_size(w, k, stride, padding)
    xp = pad_nchw(x, padding)
    wp = xp.shape[3]
    flat = xp.reshape(n, c, -1)
    span = (out_h - 1) * wp + out_w
    out = np.empty((n, c, out_h, out_w), dtype=np.float32)
    step = max(1, _DW_BLOCK_BYTES // (c * span * 4))
    acc_buf = np.empty((min(step, n), c, span), dtype=np.float32)
    prod_buf = np.empty_like(acc_buf)
    for lo in range(0, n, step):
        xb = flat[lo : lo + step]
        acc = acc_buf[: len(xb)]
        prod = prod_buf[: len(xb)]
        for t in range(k * k):
            first = (t // k) * wp + t % k
            view = xb[:, :, first : first + stride * (span - 1) + 1 : stride]
            if t == 0:
                np.multiply(view, taps[:, 0], out=acc)
            else:
                np.multiply(view, taps[:, t], out=prod)
                acc += prod
        out[lo : lo + step] = np.lib.stride_tricks.as_strided(
            acc,
            shape=(len(xb), c, out_h, out_w),
            strides=acc.strides[:2] + (wp * acc.itemsize, acc.itemsize),
            writeable=False,
        )
    return out


def _bits(a: np.ndarray) -> np.ndarray:
    """``a``'s bytes as a flat ``uint8`` array (a view when contiguous)."""
    return np.ascontiguousarray(a).reshape(-1).view(np.uint8)


def _shuffled(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``ChannelShuffle(groups=2)`` of ``concat([left, right])``, one write.

    The shuffle sends ``left[:, i]`` to channel ``2i`` and ``right[:, i]``
    to ``2i + 1``, so both halves go straight into one
    ``(n, C/2, 2, h, w)`` buffer.
    """
    n, half, h, w = right.shape
    out = np.empty((n, half, 2, h, w), dtype=np.result_type(left, right))
    out[:, :, 0] = left
    out[:, :, 1] = right
    return out.reshape(n, 2 * half, h, w)


def _avg_pool(pool: AvgPool2d, x: np.ndarray) -> np.ndarray:
    """``AvgPool2d.forward`` without its training-mode shape cache."""
    n, c, h, w = x.shape
    cols, out_h, out_w = im2col(
        x.reshape(n * c, 1, h, w), pool.kernel_size, pool.stride, pool.padding
    )
    return cols.mean(axis=1).reshape(n, c, out_h, out_w)


def _splits_input(m: Module) -> bool:
    """Whether ``m`` passes its input's left half through untouched and
    feeds only the right half to its branch (a stride-1 shuffle unit)."""
    return isinstance(m, (ShuffleV2Block, ShuffleXceptionBlock)) and m.stride == 1


class SupernetFastEval:
    """Evaluation-only forward engine over a shared :class:`Supernet`.

    Parameters
    ----------
    supernet:
        The weight-sharing supernet. Its weights are read, never
        written, and no module's ``forward`` runs, so its train/eval
        flags and backward caches stay as they were.
        BN constants, int8 weight codes and the stem's output on the
        last image batch are cached, so build a new instance once the
        weights or BN statistics change.
    precision:
        ``"float"`` (default) for the bit-exact float64 path, or
        ``"int8"`` for quantized GEMMs (see module docstring).
    bits:
        Quantization width for the int8 path (kept at 8 in practice).
    """

    def __init__(self, supernet: Supernet, precision: str = "float", bits: int = 8):
        if precision not in PRECISIONS:
            raise ValueError(f"precision must be one of {PRECISIONS}")
        self.supernet = supernet
        self.precision = precision
        self.bits = bits
        # One column arena for every conv: a conv's columns are dead
        # once its GEMM returns, so each im2col reuses the same bytes,
        # grown to the largest unfold seen.
        self._cols = np.empty(0, dtype=np.uint8)
        self._qweights: Dict[int, QuantizedTensor] = {}
        self._bn_consts: Dict[int, tuple] = {}
        # (images, stem output) of the last stem pass, both read-only.
        self._stem_memo: Optional[tuple] = None
        self._times: Dict[str, float] = {}
        self.reset_stage_times()

    # -- timing ----------------------------------------------------------------

    def reset_stage_times(self) -> None:
        """Zero the per-stage wall-time accumulators."""
        self._times = {
            "im2col_s": 0.0,
            "gemm_s": 0.0,
            "scoring_s": 0.0,
            "other_s": 0.0,
            "bn_s": 0.0,
            "mask_s": 0.0,
            "total_s": 0.0,
        }

    def stage_times(self) -> Dict[str, float]:
        """Accumulated wall time per stage since the last reset.

        ``gemm_s`` includes int8 quantize/rescale when running at int8;
        ``other_s`` is everything not otherwise attributed (BN,
        activations, pooling, concat/shuffle, mask application, the
        dead-row test and the dead rows' writes). Two of its parts are
        also reported on their own: ``bn_s`` (eval BN) and ``mask_s``
        (channel masks, the dead-row test and the dead rows' writes).
        """
        times = dict(self._times)
        attributed = times["im2col_s"] + times["gemm_s"] + times["scoring_s"]
        times["other_s"] = max(0.0, times["total_s"] - attributed)
        return times

    def _count_scoring(self, seconds: float) -> None:
        # Scoring runs after the forward has closed its span, so it is
        # added to the total as well: other_s = total - attributed.
        self._times["scoring_s"] += seconds
        self._times["total_s"] += seconds

    # -- kernels ---------------------------------------------------------------

    def _qweight(self, layer: Module) -> QuantizedTensor:
        cached = self._qweights.get(id(layer))
        if cached is None:
            cached = quantize_weight(layer.weight.data, bits=self.bits)
            self._qweights[id(layer)] = cached
        return cached

    def _conv(self, conv: Conv2d, x: np.ndarray) -> np.ndarray:
        if self.precision == "int8":
            return self._conv_int8(conv, x)
        out = None
        if conv.groups == x.shape[1] == conv.out_channels and not conv._is_pointwise:
            out = self._depthwise(conv, x)
        if out is None:
            out = self._conv_gemm(conv, x)
        if conv.bias is not None:
            out = out + conv.bias.data[None, :, None, None]
        return out

    def _conv_gemm(self, conv: Conv2d, x: np.ndarray) -> np.ndarray:
        """``Conv2d.forward``'s im2col and grouped GEMM, without bias."""
        n, c, h, w = x.shape
        g = conv.groups
        k = conv.kernel_size
        cin_g = conv.in_channels // g
        cout_g = conv.out_channels // g

        t0 = time.perf_counter()
        if conv._is_pointwise:
            if x.strides[3] != x.itemsize:
                # A channel-major depthwise output (after its BN): BLAS
                # takes only unit-stride rows, so copy it image-major.
                x = np.ascontiguousarray(x)
            cols, out_h, out_w = x.reshape(n, c, h * w), h, w
        else:
            cols, out_h, out_w = self._im2col(conv, x)
        t1 = time.perf_counter()
        self._times["im2col_s"] += t1 - t0

        colsg = cols.reshape(n, g, cin_g * k * k, out_h * out_w)
        wmat = conv.weight.data.reshape(g, cout_g, cin_g * k * k)
        out = np.matmul(wmat[None], colsg)
        self._times["gemm_s"] += time.perf_counter() - t1
        return out.reshape(n, conv.out_channels, out_h, out_w)

    def _arena(self, shape: tuple, dtype: np.dtype) -> np.ndarray:
        """A ``shape`` array over the shared column arena."""
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        if self._cols.size < nbytes:
            self._cols = np.empty(nbytes, dtype=np.uint8)
        return self._cols[:nbytes].view(dtype).reshape(shape)

    def _im2col(self, conv: Conv2d, x: np.ndarray):
        """im2col into the shared column arena."""
        n, c, h, w = x.shape
        k = conv.kernel_size
        shape = (
            n, c, k, k,
            conv_output_size(h, k, conv.stride, conv.padding),
            conv_output_size(w, k, conv.stride, conv.padding),
        )
        return im2col(x, k, conv.stride, conv.padding, out=self._arena(shape, x.dtype))

    def _depthwise(self, conv: Conv2d, x: np.ndarray) -> Optional[np.ndarray]:
        """Depthwise convolution unfolded channel-major, without bias, or
        ``None`` where that would not be bit-exact.

        Channel ``c``'s columns are ``(k*k, OH*OW*N)`` with the image
        index innermost, and its outputs are GEMVs over blocks of them
        (:func:`_depthwise_block_rows`), bit-identical to the per-image
        ``(1, k*k) @ (k*k, OH*OW)`` products of ``Conv2d.forward``.
        Returns an ``(N, C, OH, OW)`` view of a ``(C, OH, OW, N)``
        array: the BN that follows runs on it in place, and the 1x1
        convolution after that copies it image-major.
        """
        n, c, h, w = x.shape
        k, stride, p = conv.kernel_size, conv.stride, conv.padding
        out_h = conv_output_size(h, k, stride, p)
        out_w = conv_output_size(w, k, stride, p)
        block = _depthwise_block_rows(k, out_h * out_w, n)
        if not block:
            return None
        rows = out_h * out_w * n
        t0 = time.perf_counter()
        xp = np.zeros((c, h + 2 * p, w + 2 * p, n), dtype=x.dtype)
        xp[:, p : p + h, p : p + w] = x.transpose(1, 2, 3, 0)
        sc, sh, sw, sn = xp.strides
        # ``as_strided``'s view, without its ~10 us of Python per call.
        windows = np.ndarray(
            (c, k, k, out_h, out_w, n),
            dtype=xp.dtype,
            buffer=xp,
            strides=(sc, sh, sw, sh * stride, sw * stride, sn),
        )
        cols = self._arena((c, k * k, rows), x.dtype)
        np.copyto(cols.reshape(c, k, k, out_h, out_w, n), windows)
        t1 = time.perf_counter()
        self._times["im2col_s"] += t1 - t0

        taps = conv.weight.data.reshape(c, 1, 1, k * k)
        out = np.empty((c, rows), dtype=np.result_type(taps, cols))
        full = rows - rows % block
        if full:
            # (C, blocks, k*k, block) views: one single-thread GEMV each.
            np.matmul(
                taps,
                cols[:, :, :full].reshape(c, k * k, -1, block).transpose(0, 2, 1, 3),
                out=out[:, :full].reshape(c, -1, 1, block),
            )
        if full < rows:
            np.matmul(taps[:, 0], cols[:, :, full:], out=out[:, None, full:])
        self._times["gemm_s"] += time.perf_counter() - t1
        return out.reshape(c, out_h, out_w, n).transpose(3, 0, 1, 2)

    def _conv_int8(self, conv: Conv2d, x: np.ndarray) -> np.ndarray:
        """Convolution against the deployment int8 weight grid, float32.

        The weight enters the GEMM as its int8 integer codes (one
        symmetric scale per output channel — the identical grid
        :func:`repro.deploy.quantize.quantize_model_weights` ships);
        activations stay float32, as deployment keeps biases and norm
        parameters in float. The sgemm halves memory traffic against
        the float64 path, and depthwise kernels skip im2col entirely: a
        grouped GEMM with one input channel per group is block-diagonal,
        so a direct k*k tap accumulation over strided views does
        strictly less work.
        """
        x = x.astype(np.float32, copy=False)
        n, c, h, w = x.shape
        g = conv.groups
        k = conv.kernel_size
        cin_g = conv.in_channels // g
        cout_g = conv.out_channels // g
        qw = self._qweight(conv)
        wscale = np.asarray(qw.scale, dtype=np.float32)

        if g == conv.in_channels and cout_g == 1:  # depthwise, direct
            t0 = time.perf_counter()
            taps = qw.q.reshape(c, k * k, 1)
            out = _depthwise_taps(x, taps, k, conv.stride, conv.padding)
            out *= wscale[None, :, None, None]
            self._times["gemm_s"] += time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            if conv._is_pointwise:
                cols, out_h, out_w = x.reshape(n, c, h * w), h, w
            else:
                cols, out_h, out_w = self._im2col(conv, x)
            t1 = time.perf_counter()
            self._times["im2col_s"] += t1 - t0
            colsg = cols.reshape(n, g, cin_g * k * k, out_h * out_w)
            qwmat = qw.q.reshape(g, cout_g, cin_g * k * k)
            out = np.matmul(qwmat[None], colsg)
            out *= wscale.reshape(g, cout_g)[None, :, :, None]
            out = out.reshape(n, conv.out_channels, out_h, out_w)
            self._times["gemm_s"] += time.perf_counter() - t1

        if conv.bias is not None:
            out = out + conv.bias.data.astype(np.float32)[None, :, None, None]
        return out

    def _bn(self, bn: BatchNorm2d, x: np.ndarray, inplace: bool) -> np.ndarray:
        """Eval-mode BN from the running statistics, over ``x`` itself
        when ``inplace``.

        Float: ``BatchNorm2d.forward``'s operations in its order
        (subtract the mean, scale by ``inv_std``, then ``gamma``, add
        ``beta``) on one array. Int8: folded to one float32
        multiply-add per element. Either way the per-channel constants
        are computed once per layer and cached.
        """
        t0 = time.perf_counter()
        consts = self._bn_consts.get(id(bn))
        if consts is None:
            inv_std = 1.0 / np.sqrt(bn.running_var + bn.eps)
            if self.precision == "int8":
                scale = bn.gamma.data * inv_std
                shift = bn.beta.data - bn.running_mean * bn.gamma.data * inv_std
                consts = (scale.astype(np.float32), shift.astype(np.float32))
            else:
                consts = (bn.running_mean, inv_std, bn.gamma.data, bn.beta.data)
            consts = tuple(np.array(v)[None, :, None, None] for v in consts)
            self._bn_consts[id(bn)] = consts
        if self.precision == "int8":
            scale, shift = consts
            out = np.multiply(x, scale, out=x if inplace else None)
            out += shift
        else:
            mean, inv_std, gamma, beta = consts
            out = np.subtract(x, mean, out=x if inplace else None)
            out *= inv_std
            out *= gamma
            out += beta
        self._times["bn_s"] += time.perf_counter() - t0
        return out

    def _mask(self, block, x: np.ndarray) -> np.ndarray:
        """Apply a choice block's channel mask (float32 at int8)."""
        t0 = time.perf_counter()
        mask = block.mask.mask
        if self.precision == "int8":
            mask = mask.astype(np.float32)
        out = x * mask[None, :, None, None]
        self._times["mask_s"] += time.perf_counter() - t0
        return out

    def _stem(self, images: np.ndarray) -> np.ndarray:
        """The stem's output on ``images``, read-only.

        Kept for the next call: a batch equal to the last one, bit for
        bit, reuses it (every search scores its candidates on one fixed
        image batch).
        """
        memo = self._stem_memo
        if memo is not None:
            seen, out = memo
            if (
                seen.shape == images.shape
                and seen.dtype == images.dtype
                and np.array_equal(_bits(seen), _bits(images))
            ):
                return out
        seen = np.array(images)
        out = self._module(self.supernet.stem, seen)
        seen.flags.writeable = False
        out.flags.writeable = False
        self._stem_memo = (seen, out)
        return out

    def _linear(self, linear: Linear, x: np.ndarray) -> np.ndarray:
        t0 = time.perf_counter()
        if self.precision == "int8":
            qw = self._qweight(linear)
            out = x.astype(np.float32, copy=False) @ qw.q.T
            out *= np.asarray(qw.scale, dtype=np.float32)[None, :]
        else:
            out = x @ linear.weight.data.T
        self._times["gemm_s"] += time.perf_counter() - t0
        if linear.bias is not None:
            bias = linear.bias.data
            if self.precision == "int8":
                bias = bias.astype(np.float32)
            out = out + bias[None, :]
        return out

    def _module(self, m: Module, x: np.ndarray) -> np.ndarray:
        """Structure-walking dispatch mirroring each module's forward."""
        if isinstance(m, Sequential):
            entry = x
            for layer in m.layers:
                # Past the first layer, ``x`` is a fresh array this walk
                # owns (a BN follows a conv, a ReLU follows a BN), so BN
                # and ReLU overwrite it instead of allocating.
                owned = x is not entry
                if isinstance(layer, ReLU):
                    # ReLU.forward's own ``x * (x > 0)``, -0.0s included.
                    x = np.multiply(x, x > 0, out=x if owned else None)
                elif isinstance(layer, BatchNorm2d):
                    x = self._bn(layer, x, owned)
                else:
                    x = self._module(layer, x)
            return x
        if isinstance(m, Conv2d):
            return self._conv(m, x)
        if isinstance(m, Linear):
            return self._linear(m, x)
        if isinstance(m, (ShuffleV2Block, ShuffleXceptionBlock)):
            if m.stride == 1:
                split = x.shape[1] // 2
                return _shuffled(x[:, :split], self._module(m.branch, x[:, split:]))
            return _shuffled(self._module(m.left, x), self._module(m.branch, x))
        if isinstance(m, SkipOp):
            if m.proj is None:
                return x
            return self._module(m.proj, _avg_pool(m.pool, x))
        raise TypeError(f"no fast-eval rule for {type(m).__name__}")

    # -- forwards --------------------------------------------------------------

    def forward(self, arch: Architecture, images: np.ndarray) -> np.ndarray:
        """Logits ``(N, num_classes)`` for one architecture."""
        net = self.supernet
        net.set_architecture(arch)
        t0 = time.perf_counter()
        x = self._stem(images)
        for block in net.blocks:
            x = self._module(block.ops[block.active_op], x)
            x = self._mask(block, x)
        x = self._module(net.head, x)
        logits = self._linear(net.classifier, x.mean(axis=(2, 3)))
        self._times["total_s"] += time.perf_counter() - t0
        return logits

    def forward_many(
        self,
        archs: Sequence[Architecture],
        images: np.ndarray,
        chunk_archs: Optional[int] = None,
    ) -> np.ndarray:
        """Logits ``(A, N, num_classes)`` for a batch of architectures.

        Every layer is per-sample, so architectures that agree on
        ``(operator, channels kept)`` over layers ``< l`` see identical
        inputs at layer ``l``. The pass keeps one activation row (all N
        images) per distinct path prefix: the stem runs once, each
        choice layer runs one forward per distinct operator over the
        rows that take it, the mask is applied once per distinct
        ``(row, operator, channels kept)``, and the head and classifier
        run once per final row. A stride-1 shuffle unit whose input row
        has an all-zero right half (the previous mask kept at most half
        the channels) runs its branch once per call on a zero image
        instead of on that row. Exact: every architecture's logits
        equal :meth:`forward` on its own.

        ``chunk_archs`` bounds peak activation memory (which scales with
        the row count, at most ``A x N`` images) by running at most that
        many architectures per pass. The batch is sorted by path first,
        so shared prefixes land in the same chunk; the logits come back
        in the caller's order.
        """
        if len(archs) == 0:
            raise ValueError("need at least one architecture")
        if chunk_archs is not None and chunk_archs < 1:
            raise ValueError("chunk_archs must be >= 1")
        net = self.supernet
        for arch in archs:
            if arch.num_layers != len(net.blocks):
                raise ValueError(
                    f"architecture has {arch.num_layers} layers; "
                    f"supernet has {len(net.blocks)}"
                )
        # Key the mask on the channels it keeps, not the raw factor:
        # several factors keep the same channels on narrow layers.
        tables = cost_tables(net.space.config)
        paths = [
            tuple(
                (op, tables.out_channels(li, factor))
                for li, (op, factor) in enumerate(zip(arch.ops, arch.factors))
            )
            for arch in archs
        ]
        order = sorted(range(len(paths)), key=paths.__getitem__)
        step = len(order) if chunk_archs is None else chunk_archs
        logits = None
        consts: Dict[tuple, np.ndarray] = {}
        t0 = time.perf_counter()
        for lo in range(0, len(order), step):
            idx = order[lo : lo + step]
            part = self._forward_paths([paths[i] for i in idx], images, consts)
            if logits is None:
                logits = np.empty((len(paths),) + part.shape[1:], part.dtype)
            logits[idx] = part
        self._times["total_s"] += time.perf_counter() - t0
        return logits

    def _forward_paths(
        self,
        paths: Sequence[tuple],
        images: np.ndarray,
        consts: Dict[tuple, np.ndarray],
    ) -> np.ndarray:
        """Logits for ``(op, channels kept)`` paths, one row per prefix.

        ``consts`` holds each ``(layer, op)`` branch's output on a zero
        image, filled on first use and shared by the chunks of one call.
        """
        net = self.supernet
        n_img = images.shape[0]
        mask_dtype = np.float32 if self.precision == "int8" else np.float64
        acts = self._stem(images)[None]  # (rows, N, C, H, W)
        rows = [0] * len(paths)  # activation row of each path
        for li, block in enumerate(net.blocks):
            keys = [(p[li][0], row, p[li][1]) for p, row in zip(paths, rows)]
            # New rows are numbered in (op, row, kept) order, so each
            # operator's rows form one contiguous block of ``new_acts``.
            distinct = sorted(set(keys))
            new_row = {key: i for i, key in enumerate(distinct)}
            rows = [new_row[key] for key in keys]
            new_acts = None
            lo = 0
            for op, keys_of_op in itertools.groupby(distinct, key=lambda key: key[0]):
                group = list(keys_of_op)
                m = block.ops[op]
                src = sorted({row for _, row, _ in group})
                dead = set()
                if li > 0 and _splits_input(m):
                    t0 = time.perf_counter()
                    # The activation itself is tested, not the kept
                    # count, so a NaN/inf in the masked half stays live.
                    half = acts.shape[2] // 2
                    dead = {row for row in src if not acts[row, :, half:].any()}
                    self._times["mask_s"] += time.perf_counter() - t0
                live = [row for row in src if row not in dead]
                if live:
                    sub = acts if len(live) == len(acts) else acts[live]
                    out = self._module(m, sub.reshape(-1, *sub.shape[2:]))
                    out = out.reshape(len(live), n_img, *out.shape[1:])
                if dead:
                    # Every conv GEMM is per image and BN/ReLU are
                    # elementwise, so the branch maps a zero image to
                    # the same tensor in any batch.
                    const = consts.get((li, op))
                    if const is None:
                        zero = np.zeros(
                            (1, acts.shape[2] - half) + acts.shape[3:], acts.dtype
                        )
                        const = consts[li, op] = self._module(m.branch, zero)
                if new_acts is None:
                    # A stride-1 unit keeps its input's shape.
                    shape = out.shape[1:] if live else acts.shape[1:]
                    dtype = out.dtype if live else np.result_type(acts, const)
                    new_acts = np.empty((len(distinct),) + shape, dtype=dtype)
                t0 = time.perf_counter()
                masks = np.zeros((len(group), new_acts.shape[2]), dtype=mask_dtype)
                for i, (_, _, kept) in enumerate(group):
                    masks[i, :kept] = 1.0
                masks = masks[:, None, :, None, None]
                dst = new_acts[lo : lo + len(group)]
                lo += len(group)
                if len(live) == len(group):  # one key per live row, in order
                    np.multiply(out, masks, out=dst)
                else:
                    local = {row: i for i, row in enumerate(live)}
                    for i, (_, row, _) in enumerate(group):
                        if row in dead:
                            pairs = dst[i].reshape(n_img, half, 2, *dst.shape[3:])
                            pairs[:, :, 0] = acts[row, :, :half]
                            pairs[:, :, 1] = const
                            dst[i] *= masks[i]
                        else:
                            np.multiply(out[local[row]], masks[i], out=dst[i])
                self._times["mask_s"] += time.perf_counter() - t0
            acts = new_acts
        x = self._module(net.head, acts.reshape(-1, *acts.shape[2:]))
        # The classifier is the one 2-D GEMM in the whole pass: its BLAS
        # blocking (and thus summation order) depends on the row count,
        # so run it per block of N image rows to keep the result
        # bit-identical to the per-arch path. All conv GEMMs are
        # per-sample slices already.
        features = x.mean(axis=(2, 3)).reshape(len(acts), n_img, -1)
        row_logits = np.stack(
            [self._linear(net.classifier, features[i]) for i in range(len(acts))]
        )
        return row_logits[rows]

    # -- accuracy proxies ------------------------------------------------------

    def accuracy(
        self, arch: Architecture, images: np.ndarray, labels: np.ndarray
    ) -> float:
        """Top-1 weight-sharing accuracy of one subnet (eval-mode BN)."""
        logits = self.forward(arch, images)
        t0 = time.perf_counter()
        acc = top_k_accuracy(logits, labels, k=1)
        self._count_scoring(time.perf_counter() - t0)
        return acc

    def accuracy_many(
        self,
        archs: Sequence[Architecture],
        images: np.ndarray,
        labels: np.ndarray,
        chunk_archs: Optional[int] = None,
    ) -> List[float]:
        """Top-1 accuracies for a batch of subnets via one stacked pass."""
        logits = self.forward_many(archs, images, chunk_archs=chunk_archs)
        t0 = time.perf_counter()
        accs = [top_k_accuracy(logits[i], labels, k=1) for i in range(len(archs))]
        self._count_scoring(time.perf_counter() - t0)
        return accs
