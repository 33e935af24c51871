"""Coordinate attention: directional (H,1)/(1,W) pooling, a squeezed
joint encoding, and separable per-row / per-column sigmoid gates applied
multiplicatively to the input."""

from __future__ import annotations

import numpy as np

from . import ops
from .layers import BatchNorm2d, Conv2d, Layer


class CoordAttention(Layer):
    """The two-stage module over one [C, H, W] map.

    Stage I embeds the two directional pools; stage II stacks them along
    the spatial axis, squeezes channels by ``ratio`` through a 1x1 conv +
    batchnorm + ReLU, splits back, and expands each half to per-direction
    sigmoid gates.
    """

    def __init__(self, channels, ratio=16):
        if channels % ratio:
            raise ops.ShapeError(
                f"reduction ratio {ratio} does not divide {channels} channels")
        mid = channels // ratio
        self.squeeze = Conv2d(channels, mid, 1)
        self.squeeze_bn = BatchNorm2d(mid)
        self.expand_h = Conv2d(mid, channels, 1)
        self.expand_w = Conv2d(mid, channels, 1)
        self._cache = None

    def generate(self, q_h, q_w):
        """Stage II: gates (g_h [C,H,1], g_w [C,1,W]) from the embeddings."""
        h = q_h.shape[1]
        stacked = np.concatenate([q_h, q_w.transpose(0, 2, 1)], axis=1)
        f_pre = self.squeeze_bn.forward(self.squeeze.forward(stacked))
        f = np.maximum(f_pre, 0.0)
        f_h, f_w = np.split(f, [h], axis=1)
        zh = self.expand_h.forward(f_h)
        zw = self.expand_w.forward(f_w.transpose(0, 2, 1))
        g_h = ops.sigmoid(zh)
        g_w = ops.sigmoid(zw)
        return g_h, g_w, (f_pre, h)

    def forward(self, x):
        """y_c(i,j) = x_c(i,j) * g_h(c,i) * g_w(c,j), with the gates
        generated from the means over width, q_h [C,H,1], and over
        height, q_w [C,1,W]."""
        x = np.asarray(x, dtype=np.float64)
        g_h, g_w, inner = self.generate(x.mean(axis=2, keepdims=True),
                                        x.mean(axis=1, keepdims=True))
        self._cache = (x, g_h, g_w, inner)
        return x * g_h * g_w

    def backward(self, gy):
        x, g_h, g_w, (f_pre, h) = self._cache
        gx = gy * g_h * g_w
        gg_h = (gy * x * g_w).sum(axis=2, keepdims=True)
        gg_w = (gy * x * g_h).sum(axis=1, keepdims=True)
        gzh = gg_h * g_h * (1.0 - g_h)
        gzw = gg_w * g_w * (1.0 - g_w)
        gf_h = self.expand_h.backward(gzh)
        gf_w = self.expand_w.backward(gzw).transpose(0, 2, 1)
        gf = np.concatenate([gf_h, gf_w], axis=1) * (f_pre > 0)
        gstacked = self.squeeze.backward(self.squeeze_bn.backward(gf))
        gq_h, gq_w_t = np.split(gstacked, [h], axis=1)
        # each mean over width spreads 1 / W to its row, over height 1 / H
        gx += gq_h / x.shape[2] + gq_w_t.transpose(0, 2, 1) / h
        return gx
