"""The K=5 candidate operators and their analytic cost descriptions.

Following the paper (Sec. IV-B), the operator set consists of
ShuffleNetV2 building blocks with kernel sizes 3/5/7, the
ShuffleNetV2-Xception block (three stacked depthwise-3x3 stages), and a
skip connection.

Each operator describes itself as a list of :class:`Primitive` kernels
(convolutions and memory-movement ops) with exact MAC and byte counts.
The hardware simulator charges each primitive a launch overhead plus a
roofline execution time, which is what makes two architectures with the
same total FLOPs differ in latency — the paper's Fig. 2 observation.

FLOPs are counted as multiply-accumulates (MACs), the convention used by
the mobile-NAS literature the paper compares against (e.g. MobileNetV2
"300M FLOPs").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

_DTYPE_BYTES = 4  # devices execute fp32


@dataclass(frozen=True)
class Primitive:
    """One device kernel: a conv / depthwise conv / memory movement.

    Attributes
    ----------
    name:
        Human-readable tag, e.g. ``"conv1x1"`` or ``"dwconv5"``.
    kind:
        ``"conv"``, ``"dwconv"``, or ``"memory"`` — the device model
        assigns different achievable-throughput fractions per kind
        (depthwise convs utilize wide SIMD/tensor units poorly).
    flops:
        MAC count for batch size 1.
    bytes_read, bytes_written:
        Activation + weight traffic in bytes for batch size 1.
    """

    name: str
    kind: str
    flops: float
    bytes_read: float
    bytes_written: float

    def __post_init__(self) -> None:
        if self.kind not in ("conv", "dwconv", "memory"):
            raise ValueError(f"unknown primitive kind {self.kind!r}")
        if self.flops < 0 or self.bytes_read < 0 or self.bytes_written < 0:
            raise ValueError("primitive costs must be non-negative")


def _conv1x1(name: str, cin: int, cout: int, h: int, w: int) -> Primitive:
    return Primitive(
        name=name,
        kind="conv",
        flops=float(h * w * cin * cout),
        bytes_read=float((h * w * cin + cin * cout) * _DTYPE_BYTES),
        bytes_written=float(h * w * cout * _DTYPE_BYTES),
    )


def _dwconv(
    name: str, channels: int, k: int, h_in: int, w_in: int, stride: int
) -> Primitive:
    h_out, w_out = h_in // stride, w_in // stride
    return Primitive(
        name=name,
        kind="dwconv",
        flops=float(h_out * w_out * channels * k * k),
        bytes_read=float((h_in * w_in * channels + channels * k * k) * _DTYPE_BYTES),
        bytes_written=float(h_out * w_out * channels * _DTYPE_BYTES),
    )


def _memory(name: str, elements: int) -> Primitive:
    return Primitive(
        name=name,
        kind="memory",
        flops=0.0,
        bytes_read=float(elements * _DTYPE_BYTES),
        bytes_written=float(elements * _DTYPE_BYTES),
    )


@dataclass(frozen=True)
class OperatorSpec:
    """Analytic description of one candidate operator.

    ``kind`` is one of ``"shuffle"`` (ShuffleNetV2 block with kernel
    ``kernel_size``), ``"shuffle_x"`` (Xception variant), or ``"skip"``.
    """

    index: int
    name: str
    kind: str
    kernel_size: int

    # -- cost model ---------------------------------------------------------

    def primitives(
        self, cin: int, cout: int, hw_in: int, stride: int
    ) -> List[Primitive]:
        """Device kernels executed by this operator.

        Parameters
        ----------
        cin, cout:
            *Active* input/output channel counts (after channel scaling).
        hw_in:
            Input spatial size (square).
        stride:
            1 or 2.
        """
        if cin < 1 or cout < 1:
            raise ValueError("channel counts must be positive")
        if stride not in (1, 2):
            raise ValueError(f"unsupported stride {stride}")
        hw_out = hw_in // stride
        if self.kind == "skip":
            if stride == 1:
                # True identity: free on device (fused away). Any
                # difference between active in/out widths comes from
                # channel *masking*, which costs nothing — the module
                # is still a pass-through.
                return []
            # Reduction skip: 1x1 projection conv at stride 2 keeps the
            # operator legal in downsampling layers (K=5 everywhere, so
            # |A| = 50^20 matches the paper's quoted space size).
            return [
                _memory("skip-pool", cin * hw_out * hw_out),
                _conv1x1("skip-proj", cin, cout, hw_out, hw_out),
            ]

        k = self.kernel_size
        half = max(1, cout // 2)
        prims: List[Primitive] = []
        if stride == 1:
            # Basic unit: left half passes through, right half is
            # transformed. The split means the branch sees cin//2 inputs.
            cin_half = max(1, cin // 2)
            if self.kind == "shuffle":
                prims.append(_conv1x1("pw1", cin_half, half, hw_in, hw_in))
                prims.append(_dwconv(f"dw{k}", half, k, hw_in, hw_in, 1))
                prims.append(_conv1x1("pw2", half, half, hw_in, hw_in))
            else:  # shuffle_x: dw3 -> pw -> dw3 -> pw -> dw3 -> pw
                prims.append(_dwconv("xdw1", cin_half, 3, hw_in, hw_in, 1))
                prims.append(_conv1x1("xpw1", cin_half, half, hw_in, hw_in))
                prims.append(_dwconv("xdw2", half, 3, hw_in, hw_in, 1))
                prims.append(_conv1x1("xpw2", half, half, hw_in, hw_in))
                prims.append(_dwconv("xdw3", half, 3, hw_in, hw_in, 1))
                prims.append(_conv1x1("xpw3", half, half, hw_in, hw_in))
        else:
            # Downsampling unit: both branches consume the full input.
            # Left branch: dw k s2 + 1x1; right branch as in the basic unit.
            prims.append(_dwconv(f"l-dw{k}", cin, k, hw_in, hw_in, 2))
            prims.append(_conv1x1("l-pw", cin, half, hw_out, hw_out))
            if self.kind == "shuffle":
                prims.append(_conv1x1("r-pw1", cin, half, hw_in, hw_in))
                prims.append(_dwconv(f"r-dw{k}", half, k, hw_in, hw_in, 2))
                prims.append(_conv1x1("r-pw2", half, half, hw_out, hw_out))
            else:
                prims.append(_dwconv("r-xdw1", cin, 3, hw_in, hw_in, 2))
                prims.append(_conv1x1("r-xpw1", cin, half, hw_out, hw_out))
                prims.append(_dwconv("r-xdw2", half, 3, hw_out, hw_out, 1))
                prims.append(_conv1x1("r-xpw2", half, half, hw_out, hw_out))
                prims.append(_dwconv("r-xdw3", half, 3, hw_out, hw_out, 1))
                prims.append(_conv1x1("r-xpw3", half, half, hw_out, hw_out))
        # Concat + channel shuffle: pure data movement over the output.
        prims.append(_memory("shuffle", 2 * half * hw_out * hw_out))
        return prims

    def flops(self, cin: int, cout: int, hw_in: int, stride: int) -> float:
        """Total MACs of this operator at the given geometry."""
        return sum(p.flops for p in self.primitives(cin, cout, hw_in, stride))

    def params(self, cin: int, cout: int, stride: int) -> float:
        """Weight count (convolution kernels; BN affine ignored)."""
        if self.kind == "skip":
            if stride == 1:
                return 0.0  # identity pass-through, mask or not
            return float(cin * cout)
        k = self.kernel_size
        half = max(1, cout // 2)
        if stride == 1:
            cin_half = max(1, cin // 2)
            if self.kind == "shuffle":
                return float(cin_half * half + half * k * k + half * half)
            return float(
                cin_half * 9 + cin_half * half + half * 9 + half * half
                + half * 9 + half * half
            )
        if self.kind == "shuffle":
            return float(
                cin * k * k + cin * half  # left branch
                + cin * half + half * k * k + half * half  # right branch
            )
        return float(
            cin * k * k + cin * half
            + cin * 9 + cin * half + half * 9 + half * half + half * 9 + half * half
        )

    @property
    def is_skip(self) -> bool:
        return self.kind == "skip"


# The paper's operator set (K = 5).
_OPERATORS: Tuple[OperatorSpec, ...] = (
    OperatorSpec(0, "shuffle3x3", "shuffle", 3),
    OperatorSpec(1, "shuffle5x5", "shuffle", 5),
    OperatorSpec(2, "shuffle7x7", "shuffle", 7),
    OperatorSpec(3, "shuffle_x3x3", "shuffle_x", 3),
    OperatorSpec(4, "skip", "skip", 1),
)

NUM_OPERATORS = len(_OPERATORS)
SKIP_INDEX = 4
KERNEL_CHOICES = (3, 5, 7)

# Per-operator-index lookups for code that reads one attribute of every
# layer's operator: tuples for per-architecture loops, read-only arrays
# for gathers over ``(N, L)`` operator-index arrays.
IS_SKIP: Tuple[bool, ...] = tuple(op.is_skip for op in _OPERATORS)
KERNEL_SIZE: Tuple[int, ...] = tuple(op.kernel_size for op in _OPERATORS)
IS_SKIP_ARRAY = np.array(IS_SKIP, dtype=bool)
KERNEL_SIZE_ARRAY = np.array(KERNEL_SIZE, dtype=np.int64)
IS_SKIP_ARRAY.flags.writeable = False
KERNEL_SIZE_ARRAY.flags.writeable = False


def operators() -> Tuple[OperatorSpec, ...]:
    """The full operator set, indexed 0..K-1."""
    return _OPERATORS


def get_operator(index: int) -> OperatorSpec:
    """Operator spec by index."""
    if not 0 <= index < NUM_OPERATORS:
        raise IndexError(f"operator index {index} out of range [0, {NUM_OPERATORS})")
    return _OPERATORS[index]
