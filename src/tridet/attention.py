"""Triple-awareness detection head: the scale / spatial / task attention
components, their composition into dynamic blocks, and the final head
convolutions.

Every block reads and writes one C x H x W map.  The scale attention
derives two gates from the map's global mean and returns two views of the
map: `base`, scaled by the first gate, which the spatial attention samples,
and `ctx`, the mean of both gated copies, from which it predicts its
sampling offsets and modulations.  The task attention then applies a
channel-wise dynamic activation to the sampled map.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .layers import Conv2d, Layer, LeakyReLU, Linear, Param

STENCIL_K = 9
# 3x3 base stencil displacements (dy, dx), row-major, center at index 4
BASE_OFFSETS = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
_BASE_DY, _BASE_DX = np.array(BASE_OFFSETS, dtype=np.float64).T[:, :, None, None]


class ScaleAttention(Layer):
    """Two scalar gates from the map's global mean through a 2x2 linear map
    and a hard sigmoid; returns (base, ctx) = (g0 x, (g0 x + g1 x) / 2).

    Both inputs of the linear map are the same mean; the 2x2 shape keeps
    the parameter shapes of saved weight files.
    """

    def __init__(self):
        self.weight = Param(np.zeros((2, 2)))
        self.bias = Param(np.full(2, 0.5))
        self._cache = None

    def forward(self, x):
        m = x.mean()
        z = self.weight.value @ np.array([m, m]) + self.bias.value
        g = ops.hard_sigmoid(z)
        self._cache = (x, m, z, g)
        base = g[0] * x
        return base, 0.5 * (base + g[1] * x)

    def backward(self, gbase, gctx):
        x, m, z, g = self._cache
        # gradients w.r.t. the two gated copies g0 x and g1 x
        g0x = gbase + 0.5 * gctx
        g1x = 0.5 * gctx
        dg = np.array([(g0x * x).sum(), (g1x * x).sum()])
        dz = dg * ops.hard_sigmoid_deriv(z)
        self.weight.grad += np.outer(dz, [m, m])
        self.bias.grad += dz
        gm = (self.weight.value.T @ dz).sum()
        return g[0] * g0x + g[1] * g1x + gm / x.size


class SpatialAttention(Layer):
    """Sparse deformable sampling of `base`.

    Offsets (2K channels) and pre-sigmoid modulations (K channels) are
    predicted by zero-initialized 3x3 convolutions on `ctx`; per-tap
    weights start as a delta at the stencil center.
    """

    def __init__(self, channels, *, depthwise=False):
        if depthwise:
            # depth-wise 3x3 context + zero-initialized point-wise heads
            self.offset_dw = Conv2d(channels, channels, 3, groups=channels)
            self.mod_dw = Conv2d(channels, channels, 3, groups=channels)
            self.offset_pred = Conv2d(channels, 2 * STENCIL_K, 1,
                                      zero_init=True)
            self.mod_pred = Conv2d(channels, STENCIL_K, 1, zero_init=True)
        else:
            self.offset_dw = None
            self.mod_dw = None
            self.offset_pred = Conv2d(channels, 2 * STENCIL_K, 3,
                                      zero_init=True)
            self.mod_pred = Conv2d(channels, STENCIL_K, 3, zero_init=True)
        wk = np.zeros(STENCIL_K)
        wk[4] = 1.0
        self.tap_weights = Param(wk)
        self._cache = None

    def forward(self, base, ctx):
        h, w = base.shape[1:]
        ctx_off = ctx_mod = ctx
        if self.offset_dw is not None:
            ctx_off = self.offset_dw.forward(ctx)
            ctx_mod = self.mod_dw.forward(ctx)
        offsets = self.offset_pred.forward(ctx_off)
        mod_raw = self.mod_pred.forward(ctx_mod)
        if not np.isfinite(offsets).all():
            raise ValueError("spatial attention predicted non-finite offsets")
        mod = ops.sigmoid(mod_raw)
        ys = np.arange(h, dtype=np.float64)[:, None] + _BASE_DY + offsets[0::2]
        xs = np.arange(w, dtype=np.float64) + _BASE_DX + offsets[1::2]
        samples = ops.grid_sample_zero(base, ys, xs)
        # the nine wk * samples * mod terms at once, summed in tap order
        terms = self.tap_weights.value[:, None, None] * samples * mod
        out = np.zeros_like(base)
        for k in range(STENCIL_K):
            out += terms[:, k]
        self._cache = (base, mod, ys, xs, samples)
        return out

    def backward(self, gout):
        """Returns the gradients w.r.t. (base, ctx)."""
        base, mod, ys, xs, samples = self._cache
        wk = self.tap_weights.value
        gs = gout[:, None] * samples
        gwk = (gs * mod).sum(axis=(0, 2, 3))
        g_mod = gs.sum(axis=0) * wk[:, None, None]
        g_base, gys, gxs = ops.grid_sample_zero_backward(
            base, ys, xs, gout[:, None] * (wk[:, None, None] * mod))
        g_off = np.stack([gys, gxs], axis=1).reshape((-1,) + gys.shape[1:])
        self.tap_weights.grad += gwk
        g_mod_raw = g_mod * mod * (1.0 - mod)
        g_off_in = self.offset_pred.backward(g_off)
        g_mod_in = self.mod_pred.backward(g_mod_raw)
        if self.offset_dw is not None:
            g_off_in = self.offset_dw.backward(g_off_in)
            g_mod_in = self.mod_dw.backward(g_mod_in)
        return g_base, g_off_in + g_mod_in


class TaskAttention(Layer):
    """Channel-wise dynamic activation (DY-ReLU, shared-coefficient mode).

    The hyper function pools global context, runs two fully connected
    layers with a ReLU between, remaps through a hard sigmoid to [-1, 1],
    and shifts the default coefficients (1, 0, 0, 0); the output takes the
    pointwise max of the two affine branches.
    """

    def __init__(self, channels, reduction=4, lambda_a=1.0, lambda_b=0.5):
        hidden = max(1, channels // reduction)
        self.fc1 = Linear(channels, hidden)
        self.fc2 = Linear(hidden, 4, zero_init=True)
        self.lambda_a = lambda_a
        self.lambda_b = lambda_b
        self._cache = None

    def coefficients(self, x):
        """(a1, b1, a2, b2) for a C x H x W map, and the hyper function's
        intermediates for backward."""
        h1 = self.fc1.forward(x.mean(axis=(1, 2)))
        a = np.maximum(h1, 0.0)
        v = self.fc2.forward(a)
        t = 2.0 * ops.hard_sigmoid(v) - 1.0
        a1 = 1.0 + self.lambda_a * t[0]
        b1 = self.lambda_b * t[1]
        a2 = self.lambda_a * t[2]
        b2 = self.lambda_b * t[3]
        return (a1, b1, a2, b2), (h1, v)

    def forward(self, x):
        (a1, b1, a2, b2), inner = self.coefficients(x)
        br1 = a1 * x + b1
        br2 = a2 * x + b2
        mask = br1 >= br2
        self._cache = (x, (a1, a2), inner, mask)
        return np.where(mask, br1, br2)

    def backward(self, g):
        x, (a1, a2), (h1, v), mask = self._cache
        da1 = float((g * mask * x).sum())
        db1 = float((g * mask).sum())
        da2 = float((g * ~mask * x).sum())
        db2 = float((g * ~mask).sum())
        dt = np.array([self.lambda_a * da1, self.lambda_b * db1,
                       self.lambda_a * da2, self.lambda_b * db2])
        dv = dt * 2.0 * ops.hard_sigmoid_deriv(v)
        da = self.fc2.backward(dv)
        dh1 = da * (h1 > 0)
        dctx = self.fc1.backward(dh1)
        count = x.shape[1] * x.shape[2]
        return g * np.where(mask, a1, a2) + dctx[:, None, None] / count


class DynamicBlock(Layer):
    """Sequential composition scale -> spatial -> task attention."""

    def __init__(self, channels, reduction=4, lambda_a=1.0, lambda_b=0.5,
                 depthwise=False):
        self.scale = ScaleAttention()
        self.spatial = SpatialAttention(channels, depthwise=depthwise)
        self.task = TaskAttention(channels, reduction, lambda_a, lambda_b)

    def forward(self, x):
        return self.task.forward(self.spatial.forward(*self.scale.forward(x)))

    def backward(self, gout):
        return self.scale.backward(*self.spatial.backward(self.task.backward(gout)))


class TDAHead(Layer):
    """Dynamic blocks -> 3x3 conv + leaky ReLU -> 1x1 conv emitting
    A * (5 + num_classes) raw prediction channels."""

    def __init__(self, channels, n_blocks, num_classes, anchors_per_level,
                 reduction=4, lambda_a=1.0, lambda_b=0.5, depthwise=False):
        if n_blocks not in (1, 2):
            raise ValueError(f"n_blocks must be 1 or 2, got {n_blocks}")
        self.blocks = [DynamicBlock(channels, reduction, lambda_a, lambda_b,
                                    depthwise) for _ in range(n_blocks)]
        self.out_channels = anchors_per_level * (5 + num_classes)
        if depthwise:
            self.conv3 = Conv2d(channels, channels, 3, groups=channels)
            self.conv3_pw = Conv2d(channels, channels, 1)
        else:
            self.conv3 = Conv2d(channels, channels, 3)
            self.conv3_pw = None
        self.act = LeakyReLU()
        self.conv1 = Conv2d(channels, self.out_channels, 1)

    def forward(self, x):
        y = np.asarray(x, dtype=np.float64)
        if y.ndim != 3:
            raise ops.ShapeError(f"head expects a C x H x W map, got rank {y.ndim}")
        for blk in self.blocks:
            y = blk.forward(y)
        y = self.conv3.forward(y)
        if self.conv3_pw is not None:
            y = self.conv3_pw.forward(y)
        y = self.act.forward(y)
        return self.conv1.forward(y)

    def backward(self, graw):
        g = self.conv1.backward(graw)
        g = self.act.backward(g)
        if self.conv3_pw is not None:
            g = self.conv3_pw.backward(g)
        g = self.conv3.backward(g)
        for blk in reversed(self.blocks):
            g = blk.backward(g)
        return g
