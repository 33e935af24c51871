"""Dense C-H-W tensor kernels with matching analytic backward passes.

Every kernel is a pure function of numpy float64 arrays; feature maps are
one image's row-major [C, H, W] array, with no batch axis.  Each kernel
``foo`` with inputs to differentiate has a ``foo_backward`` that
recomputes whatever intermediates it needs from the original inputs; the
two sigmoids are elementwise, and their callers multiply by the
derivative themselves (``hard_sigmoid_deriv``, and s * (1 - s) for
``sigmoid``).  Nothing here keeps state and nothing builds a graph.  The
convolution, max pool and sampler kernels are timed by name in the
benchmark, and the sigmoids are shared.  Arithmetic with one caller lives
in that caller: the fully connected map in Linear, inference batchnorm in
BatchNorm2d, the directional means in CoordAttention, and ReLU, leaky
ReLU, concatenation and splitting as plain numpy calls.  The
central-difference oracle ``finite_diff_grad`` is the reference all
backward implementations are tested against.

Forward values (the `run` digests, tests/model_reference.npz) and these
kernels' gradients (tests/test_ops.py) are pinned bit for bit, so the
orders of adds are fixed, not the number of calls that compute the
terms: `conv2d` adds its tap products in row-major (u, v) order, the
sampler its corners in the order (0, 0), (0, 1), (1, 0), (1, 1), and the
two backward scatters each cell's terms one by one in a fixed order.
Any other order, or one contraction over all taps, rounds differently.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when an input extent disagrees with what an op requires."""


class FiniteDiffError(RuntimeError):
    """Raised when the finite-difference probe hits a non-finite value."""


def _as_f64(x):
    return np.asarray(x, dtype=np.float64)


def _check_map(name, x):
    if x.ndim != 3:
        raise ShapeError(f"{name} expects a rank-3 C x H x W map, got rank {x.ndim}")


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def conv2d_out_hw(h, w, kh, kw, stride, padding):
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    return ho, wo


def _check_conv_args(x, weight, stride, padding, groups):
    _check_map("conv2d", x)
    if weight.ndim != 4:
        raise ShapeError(f"conv2d weight must be rank-4, got rank {weight.ndim}")
    if stride < 1:
        raise ShapeError(f"conv2d stride must be >= 1, got stride={stride}")
    if padding < 0:
        raise ShapeError(f"conv2d padding must be >= 0, got padding={padding}")
    cin, h, w = x.shape
    cout, cin_g, kh, kw = weight.shape
    if cin % groups or cout % groups:
        raise ShapeError(
            f"channel counts in={cin} out={cout} not divisible by groups={groups}")
    if cin_g != cin // groups:
        raise ShapeError(
            f"weight expects {cin_g * groups} input channels, input has {cin}")
    ho, wo = conv2d_out_hw(h, w, kh, kw, stride, padding)
    if ho < 1 or wo < 1:
        raise ShapeError(f"empty output extent {ho}x{wo} for input {h}x{w}")
    return cin, h, w, cout, kh, kw, ho, wo


def _pad(x, padding, fill=0.0):
    """x framed by `padding` cells of `fill` per spatial side; x if 0."""
    if padding == 0:
        return x
    c, h, w = x.shape
    xp = np.full((c, h + 2 * padding, w + 2 * padding), fill)
    xp[:, padding: padding + h, padding: padding + w] = x
    return xp


def _windows(xp, kh, kw, stride, ho, wo, groups):
    """Read-only view [kH, kW, groups, C/groups, Ho, Wo] of the C-contiguous
    padded map xp; entry [u, v] is the window tap (u, v) reads.  Built with
    np.ndarray, as as_strided held on to ~1 MB and raised peak RSS."""
    xp = np.ascontiguousarray(xp)
    (c, _, _), (s0, s1, s2) = xp.shape, xp.strides
    win = np.ndarray((kh, kw, groups, c // groups, ho, wo), xp.dtype, xp, 0,
                     (s1, s2, s0 * (c // groups), s0, s1 * stride, s2 * stride))
    win.flags.writeable = False
    return win


TAP_BATCH_BYTES = 1 << 20  # at most this many bytes of products in one einsum


def conv2d(x, weight, bias=None, stride=1, padding=0, groups=1):
    """Standard 2-D cross-correlation.

    x: [Cin, H, W], weight: [Cout, Cin/groups, kH, kW], bias: [Cout].

    Each tap's product, one window against the weight's [u, v] slice, is
    added into zeros in row-major (u, v) order, the order the `run` digests
    pin.  While all products fit in TAP_BATCH_BYTES one einsum computes
    them, otherwise one einsum per tap does; the two round the same.
    """
    x = _as_f64(x)
    weight = _as_f64(weight)
    cin, h, w, cout, kh, kw, ho, wo = _check_conv_args(
        x, weight, stride, padding, groups)
    cg = cin // groups
    og = cout // groups
    win = _windows(_pad(x, padding), kh, kw, stride, ho, wo, groups)
    # [kH, kW, groups, og, cg], so that wt[u, v] is a view
    wt = weight.reshape(groups, og, cg, kh, kw).transpose(3, 4, 0, 1, 2)
    if kh * kw * cout * ho * wo * 8 <= TAP_BATCH_BYTES:
        # a strided weight here makes einsum several times slower
        taps = np.einsum("uvgchw,uvgoc->uvgohw", win, np.ascontiguousarray(wt))
        taps = taps.reshape(kh * kw, groups, og, ho, wo)
    else:
        taps = (np.einsum("gchw,goc->gohw", win[u, v], wt[u, v])
                for u in range(kh) for v in range(kw))
    out = np.zeros((groups, og, ho, wo))
    for tap in taps:
        out += tap
    out = out.reshape(cout, ho, wo)
    if bias is not None:
        bias = _as_f64(bias)
        if bias.shape != (cout,):
            raise ShapeError(f"bias has {bias.size} entries, expected {cout}")
        out += bias[:, None, None]
    return out


def conv2d_backward(x, weight, gy, stride=1, padding=0, groups=1):
    """Gradients of conv2d w.r.t. input, weight and bias.

    im2col: cols [Cin, kH, kW, Ho, Wo] is one C-contiguous copy of the
    windows (a strided cols rounds gw differently).  Its rows, ordered
    (c, u, v) within each group, line up with weight.reshape(groups, og,
    cg*kH*kW), so gw = gy @ cols^T and gcols = W^T @ gy are one batched
    matmul over groups each.  col2im then adds gcols back through the same
    windows, one tap at a time in row-major (u, v) order.
    """
    x = _as_f64(x)
    weight = _as_f64(weight)
    gy = _as_f64(gy)
    cin, h, w, cout, kh, kw, ho, wo = _check_conv_args(
        x, weight, stride, padding, groups)
    if gy.shape != (cout, ho, wo):
        raise ShapeError(f"gy shape {gy.shape} != {(cout, ho, wo)}")
    xp = _pad(x, padding)
    cg = cin // groups
    og = cout // groups
    win = _windows(xp, kh, kw, stride, ho, wo, groups)
    cols = np.ascontiguousarray(win.transpose(2, 3, 0, 1, 4, 5))
    cols = cols.reshape(groups, cg * kh * kw, ho * wo)
    gyr = gy.reshape(groups, og, ho * wo)
    gw = np.matmul(gyr, cols.transpose(0, 2, 1))
    wg = weight.reshape(groups, og, cg * kh * kw)
    gcols = np.matmul(wg.transpose(0, 2, 1), gyr).reshape(cin, kh, kw, ho, wo)
    gxp = np.zeros(xp.shape)
    for u in range(kh):
        for v in range(kw):
            gxp[:, u: u + stride * (ho - 1) + 1: stride,
                v: v + stride * (wo - 1) + 1: stride] += gcols[:, u, v]
    gx = gxp[:, padding: padding + h, padding: padding + w]
    return gx, gw.reshape(cout, cg, kh, kw), gy.sum(axis=(1, 2))


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def max_pool2d(x, k):
    """Stride-1 max pool with same-size output; k must be odd.  A running
    maximum along the rows, then down the columns, meets each window in
    the stacked windows' row-major order, so ties of -0 and +0 agree."""
    x = _as_f64(x)
    if k % 2 == 0:
        raise ShapeError(f"max_pool2d kernel must be odd, got {k}")
    _check_map("max_pool2d", x)
    c, h, w = x.shape
    xp = _pad(x, k // 2, -np.inf)
    rows = xp[:, :, :w].copy()
    for v in range(1, k):
        np.maximum(rows, xp[:, :, v: v + w], out=rows)
    out = rows[:, :h].copy()
    for u in range(1, k):
        np.maximum(out, rows[:, u: u + h], out=out)
    return out


def _scatter_add(cells, values, n):
    """[n] sums of values by cell, each cell's added one by one in the given
    order; a cell that gets NaNs ends on the last one, not bincount's first."""
    out = np.bincount(cells, values, n)
    nan = np.isnan(values)
    if nan.any():
        out[cells[nan]] = values[nan]  # repeated cells: the last one stays
    return out


def max_pool2d_backward(x, k, gy):
    """Routes each gy cell, in row-major order, to the first maximum of its
    window of the -inf-padded map, the offsets taken in row-major order;
    those orders are pinned, not how the windows are gathered or scattered."""
    x = _as_f64(x)
    gy = _as_f64(gy)
    if k % 2 == 0:
        raise ShapeError(f"max_pool2d kernel must be odd, got {k}")
    _check_map("max_pool2d_backward", x)
    if gy.shape != x.shape:
        raise ShapeError(f"gy shape {gy.shape} != {x.shape}")
    c, h, w = x.shape
    win = _windows(_pad(x, k // 2, -np.inf), k, k, 1, h, w, 1)
    # argmax index k*k decomposes into the window offset (u, v)
    u, v = np.divmod(win.reshape(k * k, c, h, w).argmax(axis=0), k)
    sy = u + np.arange(-(k // 2), h - k // 2)[:, None]
    sx = v + np.arange(-(k // 2), w - k // 2)
    valid = (sy >= 0) & (sy < h) & (sx >= 0) & (sx < w)
    src = (sy + h * np.arange(c)[:, None, None]) * w + sx
    return _scatter_add(src[valid], gy[valid], x.size).reshape(x.shape)


# ---------------------------------------------------------------------------
# bilinear sampling (zero padding outside the grid)
# ---------------------------------------------------------------------------

# the four cells around a coordinate, (dy, dx) in the summation order
_DY, _DX = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]])


def _corners(plane, ys, xs):
    """Flat cell indices into plane.reshape(C, -1), validity masks and
    validity-masked bilinear weights of the four corners, each [4, *ys.shape],
    and the fractional parts (ly, lx) of the coordinates."""
    if ys.shape != xs.shape:
        raise ShapeError(f"grid_sample_zero ys shape {ys.shape} != xs shape {xs.shape}")
    if not (np.isfinite(ys).all() and np.isfinite(xs).all()):
        raise ValueError("grid_sample_zero got non-finite coordinates")
    h, w = plane.shape[1:]
    # no cell of a coordinate outside [-1, extent] is on the grid: clip for the cast
    ys = np.minimum(np.maximum(ys, -2), h + 1)
    xs = np.minimum(np.maximum(xs, -2), w + 1)
    y0 = np.floor(ys)
    x0 = np.floor(xs)
    ly = ys - y0
    lx = xs - x0
    corner = (slice(None),) + (None,) * ys.ndim
    yy = y0 + _DY[corner]
    xx = x0 + _DX[corner]
    valid = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
    flat = np.minimum(np.maximum(yy, 0, out=yy), h - 1, out=yy)
    flat *= w  # in place: each [4, ...] temporary raised peak RSS
    flat += np.minimum(np.maximum(xx, 0, out=xx), w - 1, out=xx)
    wt = np.empty(flat.shape)
    hy, hx = 1 - ly, 1 - lx
    for k, (a, b) in enumerate(((hy, hx), (hy, lx), (ly, hx), (ly, lx))):
        np.multiply(a, b, out=wt[k, ...])
    wt *= valid
    return flat.astype(np.intp), valid, wt, ly, lx


def grid_sample_zero(plane, ys, xs):
    """Bilinear samples of plane [C, H, W] at coordinate arrays ys, xs.

    Coordinates are shared across channels.  Cells outside
    [0, H-1] x [0, W-1] contribute zero.  Returns [C, *ys.shape].
    Each corner is gathered with take and added into zeros in the pinned
    order (see the module docstring).
    """
    plane = _as_f64(plane)
    ys = _as_f64(ys)
    xs = _as_f64(xs)
    flat, _, wt, _, _ = _corners(plane, ys, xs)
    plane_flat = plane.reshape(plane.shape[0], -1)
    out = np.zeros(plane.shape[:1] + ys.shape)
    for k in range(4):
        out += plane_flat.take(flat[k], axis=1) * wt[k]
    return out


def grid_sample_zero_backward(plane, ys, xs, gout):
    """Backward of grid_sample_zero; returns (g_plane, g_ys, g_xs), added in
    the pinned corner order; channel sums run over C-contiguous products."""
    plane = _as_f64(plane)
    gout = _as_f64(gout)
    ys = _as_f64(ys)
    xs = _as_f64(xs)
    flat, valid, wt, ly, lx = _corners(plane, ys, xs)
    c = plane.shape[0]
    if gout.shape != (c,) + ys.shape:
        raise ShapeError(f"gout shape {gout.shape} != {(c,) + ys.shape}")
    plane_flat = plane.reshape(c, -1)
    on = np.flatnonzero(valid)  # the valid corners, corner-major
    g = gout.reshape(c, -1).take(on % ys.size, axis=1)
    g *= wt.take(on)
    cells = flat.take(on) + plane_flat.shape[1] * np.arange(c)[:, None]
    g_flat = _scatter_add(cells.ravel(), g.ravel(), plane.size)
    g_ys = np.zeros_like(ys)
    g_xs = np.zeros_like(xs)
    # d weight / d y and d weight / d x of each corner
    slopes = (
        (-(1 - lx), -(1 - ly)),
        (-lx, (1 - ly)),
        ((1 - lx), -ly),
        (lx, ly),
    )
    for k, (dwdy, dwdx) in enumerate(slopes):
        vals = plane_flat.take(flat[k], axis=1)
        vals *= valid[k]
        gsum = np.multiply(gout, vals, out=vals).sum(axis=0)
        g_ys += gsum * dwdy
        g_xs += gsum * dwdx
    return g_flat.reshape(plane.shape), g_ys, g_xs


# ---------------------------------------------------------------------------
# sigmoid gates
# ---------------------------------------------------------------------------

def sigmoid(x):
    """1 / (1 + exp(-x)) for x >= 0, exp(x) / (1 + exp(x)) otherwise, so
    that exp never overflows; both from one e = exp(-|x|).  min(x, -x) is
    -|x| that keeps a NaN's sign bit."""
    x = _as_f64(x)
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def hard_sigmoid(x):
    """max(0, min(1, (x + 1) / 2))."""
    x = _as_f64(x)
    return np.minimum(np.maximum((x + 1.0) * 0.5, 0.0), 1.0)


def hard_sigmoid_deriv(x):
    """d hard_sigmoid / dx: 0.5 inside (-1, 1), 0 outside and at the kinks."""
    x = _as_f64(x)
    return np.where((x > -1.0) & (x < 1.0), 0.5, 0.0)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def finite_diff_grad(f, x, eps=1e-5, entries=None, out=None):
    """Central-difference gradient of the scalar function f at x.

    Probes the flat (C-order) `entries` of x in their order, all by
    default, perturbing x in place whatever its memory layout, and writes
    them into `out` (zeros by default), whose other entries stay.
    The reference every analytic backward in this library is checked
    against; keep it dumb and independent.
    """
    x = _as_f64(x)
    grad = np.zeros_like(x) if out is None else out
    for i in range(x.size) if entries is None else entries:
        orig = x.flat[i]
        x.flat[i] = orig + eps
        fp = f(x)
        x.flat[i] = orig - eps
        fm = f(x)
        x.flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            cell = tuple(map(int, np.unravel_index(i, x.shape)))
            raise FiniteDiffError(
                f"non-finite evaluation while probing cell {cell}")
        grad.flat[i] = (fp - fm) / (2.0 * eps)
    return grad


def relative_error(analytic, numeric):
    """Max absolute difference normalized by the largest gradient magnitude."""
    analytic = _as_f64(analytic)
    numeric = _as_f64(numeric)
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0))
    return float(np.abs(analytic - numeric).max(initial=0.0) / (scale + 1e-12))
