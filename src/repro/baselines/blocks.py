"""Primitive-level building blocks for baseline model specification.

:class:`NetBuilder` walks a network definition front to back, tracking
the current spatial size and channel count, and emits primitive kernels
grouped by layer — the representation the device simulator executes.
All blocks follow the published architectures' structure (expansion
1x1 -> depthwise kxk -> projection 1x1 for MBConv, branch structure for
ShuffleNetV2, factorized separable convs for DARTS cells).
"""

from __future__ import annotations

from typing import List, Optional

from repro.space.operators import Primitive

_DTYPE_BYTES = 4


def _conv(name: str, cin: int, cout: int, k: int, h_in: int, stride: int,
          groups: int = 1) -> Primitive:
    h_out = h_in // stride
    flops = h_out * h_out * (cin // groups) * cout * k * k
    weights = (cin // groups) * cout * k * k
    return Primitive(
        name=name,
        kind="conv",
        flops=float(flops),
        bytes_read=float((h_in * h_in * cin + weights) * _DTYPE_BYTES),
        bytes_written=float(h_out * h_out * cout * _DTYPE_BYTES),
    )


def _dw(name: str, channels: int, k: int, h_in: int, stride: int) -> Primitive:
    h_out = h_in // stride
    return Primitive(
        name=name,
        kind="dwconv",
        flops=float(h_out * h_out * channels * k * k),
        bytes_read=float((h_in * h_in * channels + channels * k * k) * _DTYPE_BYTES),
        bytes_written=float(h_out * h_out * channels * _DTYPE_BYTES),
    )


def _mem(name: str, elements: int) -> Primitive:
    return Primitive(
        name=name,
        kind="memory",
        flops=0.0,
        bytes_read=float(elements * _DTYPE_BYTES),
        bytes_written=float(elements * _DTYPE_BYTES),
    )


class NetBuilder:
    """Accumulates layers of primitives while tracking tensor geometry.

    Example::

        net = NetBuilder(input_size=224, input_channels=3)
        net.conv_bn(32, k=3, stride=2)
        net.mbconv(16, expansion=1, k=3, stride=1)
        ...
        net.head(1280, num_classes=1000)
        layers = net.layers
    """

    def __init__(self, input_size: int = 224, input_channels: int = 3):
        self.size = input_size
        self.channels = input_channels
        self.layers: List[List[Primitive]] = []
        self.flops = 0.0
        self.params = 0.0

    # -- internals -------------------------------------------------------------

    def _emit(self, prims: List[Primitive], params: float) -> None:
        self.layers.append(prims)
        self.flops += sum(p.flops for p in prims)
        self.params += params

    # -- elementary layers --------------------------------------------------------

    def conv_bn(self, cout: int, k: int, stride: int = 1, groups: int = 1) -> None:
        """Dense (or grouped) convolution + BN + activation."""
        cin = self.channels
        prim = _conv(f"conv{k}x{k}", cin, cout, k, self.size, stride, groups)
        self._emit([prim], params=(cin // groups) * cout * k * k + 2 * cout)
        self.channels = cout
        self.size //= stride

    def maxpool(self, k: int = 3, stride: int = 2) -> None:
        """Max pooling (pure memory traffic on device)."""
        elements = self.channels * (self.size // stride) ** 2
        self._emit([_mem(f"maxpool{k}", elements)], params=0.0)
        self.size //= stride

    # -- composite blocks ----------------------------------------------------------

    def mbconv(
        self,
        cout: int,
        expansion: float,
        k: int,
        stride: int = 1,
        se: bool = False,
        mid: Optional[int] = None,
    ) -> None:
        """MobileNetV2-style inverted residual (MnasNet/FBNet/Proxyless).

        expansion 1x1 -> depthwise kxk -> (optional squeeze-excite) ->
        projection 1x1, with a residual add when geometry allows.
        ``mid`` overrides the expanded width (MobileNetV3 specifies it
        absolutely rather than as a ratio).
        """
        cin = self.channels
        if mid is None:
            mid = max(1, int(round(cin * expansion)))
        prims: List[Primitive] = []
        params = 0.0
        if mid != cin:
            prims.append(_conv("expand1x1", cin, mid, 1, self.size, 1))
            params += cin * mid + 2 * mid
        prims.append(_dw(f"dw{k}x{k}", mid, k, self.size, stride))
        params += mid * k * k + 2 * mid
        h_out = self.size // stride
        if se:
            se_mid = max(1, mid // 4)
            prims.append(_mem("se-gap", mid * h_out * h_out))
            prims.append(_conv("se-fc1", mid, se_mid, 1, 1, 1))
            prims.append(_conv("se-fc2", se_mid, mid, 1, 1, 1))
            prims.append(_mem("se-scale", mid * h_out * h_out))
            params += mid * se_mid * 2 + se_mid + mid
        prims.append(_conv("project1x1", mid, cout, 1, h_out, 1))
        params += mid * cout + 2 * cout
        if stride == 1 and cin == cout:
            prims.append(_mem("residual-add", cout * h_out * h_out))
        self._emit(prims, params)
        self.channels = cout
        self.size = h_out

    def shuffle_unit(self, cout: int, k: int = 3, stride: int = 1) -> None:
        """ShuffleNetV2 basic/downsampling unit."""
        cin = self.channels
        half = cout // 2
        h_in = self.size
        h_out = h_in // stride
        prims: List[Primitive] = []
        params = 0.0
        if stride == 1:
            cin_half = cin // 2
            prims.append(_conv("pw1", cin_half, half, 1, h_in, 1))
            prims.append(_dw(f"dw{k}", half, k, h_in, 1))
            prims.append(_conv("pw2", half, half, 1, h_in, 1))
            params += cin_half * half + half * k * k + half * half
        else:
            prims.append(_dw(f"l-dw{k}", cin, k, h_in, 2))
            prims.append(_conv("l-pw", cin, half, 1, h_out, 1))
            prims.append(_conv("r-pw1", cin, half, 1, h_in, 1))
            prims.append(_dw(f"r-dw{k}", half, k, h_in, 2))
            prims.append(_conv("r-pw2", half, half, 1, h_out, 1))
            params += cin * k * k + cin * half * 2 + half * k * k + half * half
        prims.append(_mem("shuffle", cout * h_out * h_out))
        self._emit(prims, params + 4 * cout)
        self.channels = cout
        self.size = h_out

    def darts_cell(self, channels: int, reduction: bool = False) -> None:
        """An approximate DARTS-V2 cell: 8 mixed ops on 4 nodes.

        The searched DARTS ImageNet cell is dominated by separable convs
        (3x3/5x5), dilated convs and skips; we charge four separable-conv
        pairs plus concatenation, which matches its kernel count — the
        property that makes DARTS slow on devices despite moderate FLOPs.
        """
        stride = 2 if reduction else 1
        cin = self.channels
        h = self.size
        h_out = h // stride
        prims: List[Primitive] = []
        params = 0.0
        # Two preprocess 1x1s (from the two predecessor cells).
        for tag in ("pre0", "pre1"):
            prims.append(_conv(tag, cin, channels, 1, h, 1))
            params += cin * channels
        # Eight edge ops: approximate the searched cell with six
        # separable-3x3 pairs and two dilated-3x3 pairs.
        for i in range(6):
            s = stride if i < 2 else 1
            hh = h if i < 2 else h_out
            prims.append(_dw(f"edge{i}-dw", channels, 3, hh, s))
            prims.append(_conv(f"edge{i}-pw", channels, channels, 1, hh // s, 1))
            params += channels * 9 + channels * channels
        for i in range(2):
            prims.append(_dw(f"dil{i}-dw", channels, 3, h_out, 1))
            prims.append(_conv(f"dil{i}-pw", channels, channels, 1, h_out, 1))
            params += channels * 9 + channels * channels
        # Node concatenation: 4 nodes x channels.
        prims.append(_mem("cell-concat", 4 * channels * h_out * h_out))
        self._emit(prims, params)
        self.channels = 4 * channels
        self.size = h_out

    # -- head ---------------------------------------------------------------------

    def head(self, head_channels: int, num_classes: int = 1000) -> None:
        """Final 1x1 conv + global average pool + classifier."""
        cin = self.channels
        prims = [
            _conv("head-conv", cin, head_channels, 1, self.size, 1),
            _mem("head-gap", head_channels * self.size * self.size),
            _conv("head-fc", head_channels, num_classes, 1, 1, 1),
        ]
        params = cin * head_channels + head_channels * num_classes + num_classes
        self._emit(prims, float(params))
        self.channels = num_classes
        self.size = 1

    def head_pooled(self, hidden: int, num_classes: int = 1000) -> None:
        """MobileNetV3-style head: pool first, then 1x1 convs at 1x1.

        Pooling before the wide projection saves the 7x7 spatial factor
        — the trick that makes MobileNetV3's 1280-wide head cheap.
        """
        cin = self.channels
        prims = [
            _mem("head-gap", cin * self.size * self.size),
            _conv("head-hidden", cin, hidden, 1, 1, 1),
            _conv("head-fc", hidden, num_classes, 1, 1, 1),
        ]
        params = cin * hidden + hidden + hidden * num_classes + num_classes
        self._emit(prims, float(params))
        self.channels = num_classes
        self.size = 1

    def fc_head(self, num_classes: int = 1000) -> None:
        """Global average pool + classifier (no final conv)."""
        cin = self.channels
        prims = [
            _mem("head-gap", cin * self.size * self.size),
            _conv("head-fc", cin, num_classes, 1, 1, 1),
        ]
        self._emit(prims, float(cin * num_classes + num_classes))
        self.channels = num_classes
        self.size = 1
