"""Toy backbone plus the improved neck: spatial pyramid pooling wrapped
in five convolution blocks (or their cross-stage-partial replacement),
coordinate-attention taps on C3/C4/C5, and top-down / bottom-up fusion
emitting P3/P4/P5 at strides 8/16/32."""

from __future__ import annotations

import numpy as np

from . import ops
from .coordatt import CoordAttention
from .layers import Layer, Sequential, UpsampleNearest2x, conv_block

SPP_POOLS = (5, 9, 13)


class ToyBackbone(Layer):
    """Five stride-2 convolution stages standing in for a real backbone."""

    STEM = (8, 16)

    def __init__(self, widths, *, depthwise=False):
        w3, w4, w5 = widths
        s1, s2 = self.STEM
        chain = [(3, s1), (s1, s2), (s2, w3), (w3, w4), (w4, w5)]
        self.stages = [conv_block(ci, co, 3, stride=2, depthwise=depthwise)
                       for ci, co in chain]

    def forward(self, image):
        """image [3, H, W] -> the (C3, C4, C5) maps at strides 8/16/32."""
        bad = ~np.isfinite(image)
        if bad.any():
            first = tuple(int(i) for i in np.argwhere(bad)[0])
            raise ValueError(f"input image has {int(bad.sum())} non-finite "
                             f"pixel value(s), the first at index {first}")
        if image.ndim != 3 or image.shape[0] != 3:
            raise ops.ShapeError(f"backbone expects a 3xHxW image, got {image.shape}")
        h, w = image.shape[1:]
        if h % 32 or w % 32:
            raise ops.ShapeError(f"image extents {h}x{w} not divisible by 32")
        x = np.asarray(image, dtype=np.float64)
        taps = []
        for stage in self.stages:
            x = stage.forward(x)
            taps.append(x)
        return tuple(taps[2:])

    def backward(self, gc3, gc4, gc5):
        g = self.stages[4].backward(gc5)
        g = self.stages[3].backward(g + gc4)
        g = self.stages[2].backward(g + gc3)
        g = self.stages[1].backward(g)
        return self.stages[0].backward(g)


class SPP(Layer):
    """Concat of the identity with stride-1 max pools of growing kernels."""

    def __init__(self):
        self._x = None

    def forward(self, x):
        self._x = x
        return np.concatenate([x] + [ops.max_pool2d(x, k) for k in SPP_POOLS])

    def backward(self, gy):
        gx, *parts = np.split(gy, 1 + len(SPP_POOLS))
        for k, g in zip(SPP_POOLS, parts):
            gx = gx + ops.max_pool2d_backward(self._x, k, g)
        return gx


class SppBlock(Layer):
    """The plain five-conv arrangement around SPP: three convs in, SPP,
    two convs out."""

    def __init__(self, cin, mid, *, depthwise=False):
        self.pre = Sequential(
            conv_block(cin, mid, 1),
            conv_block(mid, 2 * mid, 3, depthwise=depthwise),
            conv_block(2 * mid, mid, 1),
        )
        self.spp = SPP()
        self.post = Sequential(
            conv_block(4 * mid, 2 * mid, 3, depthwise=depthwise),
            conv_block(2 * mid, mid, 1),
        )

    def forward(self, x):
        return self.post.forward(self.spp.forward(self.pre.forward(x)))

    def backward(self, gy):
        return self.pre.backward(self.spp.backward(self.post.backward(gy)))


class CspSppBlock(Layer):
    """Cross-stage-partial replacement for the five-conv SPP block: a
    shortcut branch and a processed branch holding the SPP, merged 1x1."""

    def __init__(self, cin, mid, *, depthwise=False):
        self.shortcut = conv_block(cin, mid, 1)
        self.entry = conv_block(cin, mid, 1)
        self.pre = conv_block(mid, mid, 3, depthwise=depthwise)
        self.spp = SPP()
        self.post = conv_block(4 * mid, mid, 1)
        self.merge = conv_block(2 * mid, mid, 1)

    def forward(self, x):
        a = self.shortcut.forward(x)
        b = self.post.forward(self.spp.forward(self.pre.forward(self.entry.forward(x))))
        return self.merge.forward(np.concatenate([a, b]))

    def backward(self, gy):
        ga, gb = np.split(self.merge.backward(gy), 2)
        gx = self.shortcut.backward(ga)
        gb = self.entry.backward(
            self.pre.backward(self.spp.backward(self.post.backward(gb))))
        return gx + gb


class ThreeConvBlock(Layer):
    """1x1 / 3x3 / 1x1 fusion stack mapping cin channels to cout."""

    def __init__(self, cin, cout, *, depthwise=False):
        self.body = Sequential(
            conv_block(cin, cout, 1),
            conv_block(cout, 2 * cout, 3, depthwise=depthwise),
            conv_block(2 * cout, cout, 1),
        )

    def forward(self, x):
        return self.body.forward(x)

    def backward(self, gy):
        return self.body.backward(gy)


class CSPLayer(Layer):
    """Split into a shortcut and a processed branch, concat, 1x1 merge.

    Fewer parameters than the three-conv block it replaces at equal
    widths.
    """

    def __init__(self, cin, cout, *, depthwise=False):
        half = cout // 2
        self.branch_a = conv_block(cin, half, 1)
        self.branch_b = conv_block(cin, half, 1)
        self.inner = Sequential(
            conv_block(half, half, 1),
            conv_block(half, half, 3, depthwise=depthwise))
        self.merge = conv_block(2 * half, cout, 1)

    def forward(self, x):
        a = self.branch_a.forward(x)
        b = self.inner.forward(self.branch_b.forward(x))
        return self.merge.forward(np.concatenate([a, b]))

    def backward(self, gy):
        ga, gb = np.split(self.merge.backward(gy), 2)
        return self.branch_a.backward(ga) \
            + self.branch_b.backward(self.inner.backward(gb))


class Neck(Layer):
    """Feature fusion from (C3, C4, C5) to (P3, P4, P5), with coordinate
    attention applied at each backbone tap."""

    def __init__(self, widths, ca_ratio=16, csp_enabled=False,
                 depthwise=False):
        w3, w4, w5 = widths
        h3, h4, h5 = w3 // 2, w4 // 2, w5 // 2
        self.ca3 = CoordAttention(w3, ca_ratio)
        self.ca4 = CoordAttention(w4, ca_ratio)
        self.ca5 = CoordAttention(w5, ca_ratio)
        spp, fuse = ((CspSppBlock, CSPLayer) if csp_enabled
                     else (SppBlock, ThreeConvBlock))
        self.spp_block = spp(w5, h5, depthwise=depthwise)
        self.fuse4 = fuse(2 * h4, h4, depthwise=depthwise)
        self.fuse3 = fuse(2 * h3, h3, depthwise=depthwise)
        self.fuse4b = fuse(2 * h4, h4, depthwise=depthwise)
        self.fuse5b = fuse(2 * h5, h5, depthwise=depthwise)
        self.reduce5 = conv_block(h5, h4, 1)
        self.reduce4 = conv_block(h4, h3, 1)
        self.lat4 = conv_block(w4, h4, 1)
        self.lat3 = conv_block(w3, h3, 1)
        self.up5 = UpsampleNearest2x()
        self.up4 = UpsampleNearest2x()
        self.down3 = conv_block(h3, h4, 3, stride=2, depthwise=depthwise)
        self.down4 = conv_block(h4, h5, 3, stride=2, depthwise=depthwise)

    def forward(self, c3, c4, c5):
        a5 = self.ca5.forward(c5)
        n5 = self.spp_block.forward(a5)
        t4 = self.up5.forward(self.reduce5.forward(n5))
        a4 = self.ca4.forward(c4)
        m4 = self.fuse4.forward(np.concatenate([self.lat4.forward(a4), t4]))
        t3 = self.up4.forward(self.reduce4.forward(m4))
        a3 = self.ca3.forward(c3)
        p3 = self.fuse3.forward(np.concatenate([self.lat3.forward(a3), t3]))
        p4 = self.fuse4b.forward(np.concatenate([self.down3.forward(p3), m4]))
        p5 = self.fuse5b.forward(np.concatenate([self.down4.forward(p4), n5]))
        return p3, p4, p5

    def backward(self, gp3, gp4, gp5):
        gd4, gn5 = np.split(self.fuse5b.backward(gp5), 2)
        gp4 = gp4 + self.down4.backward(gd4)
        gd3, gm4 = np.split(self.fuse4b.backward(gp4), 2)
        gp3 = gp3 + self.down3.backward(gd3)
        gl3, gt3 = np.split(self.fuse3.backward(gp3), 2)
        gc3 = self.ca3.backward(self.lat3.backward(gl3))
        gm4 = gm4 + self.reduce4.backward(self.up4.backward(gt3))
        gl4, gt4 = np.split(self.fuse4.backward(gm4), 2)
        gc4 = self.ca4.backward(self.lat4.backward(gl4))
        gn5 = gn5 + self.reduce5.backward(self.up5.backward(gt4))
        gc5 = self.ca5.backward(self.spp_block.backward(gn5))
        return gc3, gc4, gc5


def count_params(model):
    """Per-submodule trainable scalar counts plus the total."""
    table = {}
    for name, p in model.named_params():
        if not p.trainable:
            continue
        top = name.split(".")[0]
        table[top] = table.get(top, 0) + p.value.size
    return table, sum(table.values())
