"""Central-difference verification suites for every differentiable
operation, grouped by subsystem for the command-line front end.

Each check compares an analytic backward against ops.finite_diff_grad on
a random instance and reports the normalized maximum error.  Elementwise
kernels are held to 1e-5, composed blocks to 1e-4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .attention import (DynamicBlock, ScaleAttention, SpatialAttention,
                        TaskAttention, TDAHead)
from .coordatt import CoordAttention
from .postproc import (Box, LossConfig, detection_loss, diou, diou_grad,
                       focal_loss, focal_loss_grad_p)

TOL_ELEMENTWISE = 1e-5
TOL_COMPOSED = 1e-4
EPS = 1e-5


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float

    @property
    def passed(self):
        return self.max_err < self.tol


def _fd_wrt(f, arr, eps=EPS):
    return ops.finite_diff_grad(f, arr, eps)


MAX_FD_ENTRIES = 48


def _fd_param(scalar_fn, param, eps=EPS):
    """Central differences w.r.t. a Param's value array.

    Large parameters are checked on a deterministic random subset of
    entries (the unchecked entries copy the analytic grad so the
    comparison is neutral there); small ones exhaustively.
    """
    grad = param.grad.copy()
    flat = param.value.reshape(-1)
    gflat = grad.reshape(-1)
    if flat.size > MAX_FD_ENTRIES:
        idx = np.random.default_rng(flat.size).choice(
            flat.size, MAX_FD_ENTRIES, replace=False)
    else:
        idx = range(flat.size)
    for i in idx:
        orig = flat[i]
        flat[i] = orig + eps
        fp = scalar_fn()
        flat[i] = orig - eps
        fm = scalar_fn()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def _err(analytic, numeric):
    return ops.relative_error(analytic, numeric)


def _away_from(x, points, margin=1e-3):
    """Push values lying within margin of any kink point off it."""
    x = x.copy()
    for p in points:
        near = np.abs(x - p) < margin
        x[near] = p + margin * np.where(x[near] >= p, 2.0, -2.0)
    return x


# ---------------------------------------------------------------------------
# tensor-core checks
# ---------------------------------------------------------------------------

def check_conv2d(rng):
    x = rng.standard_normal((2, 3, 5, 5))
    w = rng.standard_normal((4, 3, 3, 3)) * 0.5
    b = rng.standard_normal(4)
    r = rng.standard_normal(ops.conv2d(x, w, b, padding=1).shape)
    gx, gw, gb = ops.conv2d_backward(x, w, r, padding=1)
    errs = [
        _err(gx, _fd_wrt(lambda v: (ops.conv2d(v, w, b, padding=1) * r).sum(), x)),
        _err(gw, _fd_wrt(lambda v: (ops.conv2d(x, v, b, padding=1) * r).sum(), w)),
        _err(gb, _fd_wrt(lambda v: (ops.conv2d(x, w, v, padding=1) * r).sum(), b)),
    ]
    return max(errs)


def check_conv2d_grouped(rng):
    x = rng.standard_normal((1, 4, 6, 6))
    w = rng.standard_normal((4, 2, 3, 3)) * 0.5
    y = ops.conv2d(x, w, None, stride=2, padding=1, groups=2)
    r = rng.standard_normal(y.shape)
    gx, gw, _ = ops.conv2d_backward(x, w, r, stride=2, padding=1, groups=2,
                                    with_bias=False)
    f = lambda v: (ops.conv2d(v, w, None, stride=2, padding=1, groups=2) * r).sum()
    g = lambda v: (ops.conv2d(x, v, None, stride=2, padding=1, groups=2) * r).sum()
    return max(_err(gx, _fd_wrt(f, x)), _err(gw, _fd_wrt(g, w)))


def check_fully_connected(rng):
    x = rng.standard_normal(8)
    w = rng.standard_normal((4, 8))
    b = rng.standard_normal(4)
    r = rng.standard_normal(4)
    gx, gw, gb = ops.fully_connected_backward(x, w, r)
    errs = [
        _err(gx, _fd_wrt(lambda v: (ops.fully_connected(v, w, b) * r).sum(), x)),
        _err(gw, _fd_wrt(lambda v: (ops.fully_connected(x, v, b) * r).sum(), w)),
        _err(gb, _fd_wrt(lambda v: (ops.fully_connected(x, w, v) * r).sum(), b)),
    ]
    return max(errs)


def check_max_pool(rng):
    x = rng.standard_normal((1, 2, 5, 5))
    r = rng.standard_normal(x.shape)
    gx = ops.max_pool2d_backward(x, 3, r)
    return _err(gx, _fd_wrt(lambda v: (ops.max_pool2d(v, 3) * r).sum(), x))


def check_global_avg_pool(rng):
    x = rng.standard_normal((2, 3, 4, 4))
    r = rng.standard_normal((2, 3, 1, 1))
    gx = ops.global_avg_pool_backward(x, (2, 3), r)
    return _err(gx, _fd_wrt(lambda v: (ops.global_avg_pool(v, (2, 3)) * r).sum(), x))


def check_directional_pool(rng):
    x = rng.standard_normal((1, 3, 4, 5))
    rh = rng.standard_normal((1, 3, 4, 1))
    rw = rng.standard_normal((1, 3, 1, 5))
    gx = ops.directional_pool_backward(x, rh, rw)

    def f(v):
        qh, qw = ops.directional_pool(v)
        return (qh * rh).sum() + (qw * rw).sum()

    return _err(gx, _fd_wrt(f, x))


def check_activations(rng):
    errs = []
    for kind, kinks in (("relu", (0.0,)), ("leaky_relu", (0.0,)),
                        ("sigmoid", ()), ("hard_sigmoid", (-1.0, 1.0))):
        x = _away_from(rng.standard_normal((3, 7)), kinks)
        r = rng.standard_normal(x.shape)
        gx = ops.activation_backward(kind, x, r)
        errs.append(_err(gx, _fd_wrt(
            lambda v, k=kind: (ops.activation(k, v) * r).sum(), x)))
    return max(errs)


def check_batchnorm(rng):
    x = rng.standard_normal((2, 4, 3, 3))
    scale = rng.standard_normal(4)
    shift = rng.standard_normal(4)
    mean = rng.standard_normal(4)
    var = rng.uniform(0.5, 2.0, 4)
    r = rng.standard_normal(x.shape)
    gx, gs, gb = ops.batchnorm_inference_backward(x, scale, shift, mean, var, r)
    errs = [
        _err(gx, _fd_wrt(
            lambda v: (ops.batchnorm_inference(v, scale, shift, mean, var) * r).sum(), x)),
        _err(gs, _fd_wrt(
            lambda v: (ops.batchnorm_inference(x, v, shift, mean, var) * r).sum(), scale)),
        _err(gb, _fd_wrt(
            lambda v: (ops.batchnorm_inference(x, scale, v, mean, var) * r).sum(), shift)),
    ]
    return max(errs)


def check_concat_split(rng):
    a = rng.standard_normal((1, 2, 3, 3))
    b = rng.standard_normal((1, 4, 3, 3))
    r = rng.standard_normal((1, 6, 3, 3))
    ga, gb = ops.concat_axis_backward([a, b], 1, r)
    errs = [
        _err(ga, _fd_wrt(lambda v: (ops.concat_axis([v, b], 1) * r).sum(), a)),
        _err(gb, _fd_wrt(lambda v: (ops.concat_axis([a, v], 1) * r).sum(), b)),
    ]
    return max(errs)


def check_bilinear(rng):
    plane = rng.standard_normal((3, 5, 5))
    # fractional parts well inside cells so coordinate FD stays one-sided
    ys = rng.integers(0, 4, (4, 4)).astype(float) + rng.uniform(0.2, 0.8, (4, 4))
    xs = rng.integers(0, 4, (4, 4)).astype(float) + rng.uniform(0.2, 0.8, (4, 4))
    r = rng.standard_normal((3, 4, 4))
    gp, gy, gx = ops.grid_sample_zero_backward(plane, ys, xs, r)
    errs = [
        _err(gp, _fd_wrt(lambda v: (ops.grid_sample_zero(v, ys, xs) * r).sum(), plane)),
        _err(gy, _fd_wrt(lambda v: (ops.grid_sample_zero(plane, v, xs) * r).sum(), ys)),
        _err(gx, _fd_wrt(lambda v: (ops.grid_sample_zero(plane, ys, v) * r).sum(), xs)),
    ]
    return max(errs)


def check_finite_diff_selftest(rng):
    x = rng.standard_normal((3, 4))
    g = ops.finite_diff_grad(lambda v: float((v ** 2).sum()), x)
    return _err(2 * x, g)


# ---------------------------------------------------------------------------
# attention-head checks
# ---------------------------------------------------------------------------

def _outputs(layer, inputs):
    """Forward on copies of the inputs; a single output becomes a 1-tuple."""
    out = layer.forward(*(x.copy() for x in inputs))
    return out if isinstance(out, tuple) else (out,)


def _check_layer(rng, layer, inputs, params):
    """Max relative error of a layer's input and parameter gradients, on the
    loss that projects every output on its own random array."""
    rs = [rng.standard_normal(o.shape) for o in _outputs(layer, inputs)]

    def loss(*xs):
        return float(sum((o * r).sum() for o, r in zip(_outputs(layer, xs), rs)))

    layer.zero_grad()
    _outputs(layer, inputs)
    gin = layer.backward(*(r.copy() for r in rs))
    gin = gin if isinstance(gin, tuple) else (gin,)
    errs = []
    for i, (g, x) in enumerate(zip(gin, inputs)):
        fd = _fd_wrt(lambda v, i=i: loss(*inputs[:i], v, *inputs[i + 1:]),
                     x.copy())
        errs.append(_err(g, fd))
    errs += [_err(p.grad, _fd_param(lambda: loss(*inputs), p)) for p in params]
    return max(errs)


def check_scale_attention(rng):
    x = rng.standard_normal((6, 3, 4))
    layer = ScaleAttention()
    layer.weight.value = rng.uniform(-0.3, 0.3, (2, 2))
    layer.bias.value = rng.uniform(-0.3, 0.3, 2)
    return _check_layer(rng, layer, (x,), [layer.weight, layer.bias])


def _spatial_layer(rng, c):
    layer = SpatialAttention(c)
    # non-integer sampling coordinates keep FD off the cell boundaries
    layer.offset_pred.weight.value = rng.uniform(-0.02, 0.02,
                                                 layer.offset_pred.weight.value.shape)
    layer.offset_pred.bias.value = rng.uniform(0.2, 0.4, 2 * 9)
    layer.mod_pred.weight.value = rng.uniform(-0.1, 0.1,
                                              layer.mod_pred.weight.value.shape)
    layer.tap_weights.value = rng.uniform(-0.5, 0.5, 9)
    return layer


def check_spatial_attention(rng):
    base = rng.standard_normal((3, 4, 4))
    ctx = rng.standard_normal((3, 4, 4))
    layer = _spatial_layer(rng, 3)
    params = [layer.offset_pred.weight, layer.offset_pred.bias,
              layer.mod_pred.weight, layer.mod_pred.bias, layer.tap_weights]
    return _check_layer(rng, layer, (base, ctx), params)


def check_task_attention(rng):
    x = rng.standard_normal((4, 2, 4))
    layer = TaskAttention(4, reduction=2)
    layer.fc1.weight.value = rng.uniform(-0.5, 0.5, layer.fc1.weight.value.shape)
    layer.fc1.bias.value = rng.uniform(0.1, 0.5, layer.fc1.bias.value.shape)
    layer.fc2.weight.value = rng.uniform(-0.4, 0.4, layer.fc2.weight.value.shape)
    layer.fc2.bias.value = rng.uniform(-0.3, 0.3, 4)
    params = [layer.fc1.weight, layer.fc1.bias, layer.fc2.weight, layer.fc2.bias]
    return _check_layer(rng, layer, (x,), params)


def _dyrelu_gap(blk, x):
    """Smallest gap between the two DY-ReLU branches of a block's output."""
    y = blk.spatial.forward(*blk.scale.forward(x))
    (a1, b1, a2, b2), _ = blk.task.coefficients(y)
    return np.abs((a1 - a2) * y + b1 - b2).min()


def check_dynamic_block(rng):
    blk = DynamicBlock(4, np.random.default_rng(rng.integers(1 << 31)), reduction=2)
    blk.scale.weight.value = rng.uniform(-0.2, 0.2, (2, 2))
    blk.spatial.offset_pred.bias.value = rng.uniform(0.2, 0.4, 18)
    blk.spatial.tap_weights.value = rng.uniform(-0.5, 0.5, 9)
    blk.task.fc2.weight.value = rng.uniform(-0.3, 0.3, blk.task.fc2.weight.value.shape)
    # redraw an input whose output lies on the DY-ReLU kink: central
    # differences there straddle both branches
    x = rng.standard_normal((4, 4, 4))
    while _dyrelu_gap(blk, x) < 1e-3:
        x = rng.standard_normal((4, 4, 4))
    params = [blk.scale.weight, blk.scale.bias, blk.spatial.offset_pred.weight,
              blk.spatial.mod_pred.weight, blk.spatial.tap_weights,
              blk.task.fc1.weight, blk.task.fc2.weight]
    return _check_layer(rng, blk, (x,), params)


def check_tda_head(rng):
    head = TDAHead(4, 2, 2, 1, np.random.default_rng(rng.integers(1 << 31)),
                   reduction=2)
    for blk in head.blocks:
        blk.spatial.offset_pred.bias.value = rng.uniform(0.2, 0.4, 18)
        blk.task.fc2.weight.value = rng.uniform(-0.3, 0.3,
                                                blk.task.fc2.weight.value.shape)
    x = rng.standard_normal((4, 3, 3))
    r = rng.standard_normal((7, 3, 3))

    def scalar():
        return float((head.forward(x) * r).sum())

    head.zero_grad()
    head.forward(x)
    gx = head.backward(r)
    errs = [_err(gx, ops.finite_diff_grad(
        lambda v: float((head.forward(v) * r).sum()), x.copy()))]
    params = [head.blocks[0].scale.weight, head.blocks[0].spatial.offset_pred.weight,
              head.blocks[0].spatial.mod_pred.weight,
              head.blocks[0].spatial.tap_weights,
              head.blocks[1].task.fc1.weight, head.blocks[1].task.fc2.weight,
              head.conv3.weight, head.conv1.weight, head.conv1.bias]
    # re-run so cached grads match the unperturbed parameters
    head.zero_grad()
    head.forward(x)
    head.backward(r)
    for p in params:
        errs.append(_err(p.grad, _fd_param(scalar, p)))
    return max(errs)


# ---------------------------------------------------------------------------
# coord-attention checks
# ---------------------------------------------------------------------------

def check_coord_attention(rng):
    ca = CoordAttention(8, 4, np.random.default_rng(rng.integers(1 << 31)))
    ca.squeeze.bias.value = rng.uniform(0.1, 0.4, ca.squeeze.bias.value.shape)
    x = rng.standard_normal((1, 8, 3, 4))
    r = rng.standard_normal(x.shape)

    def scalar():
        return float((ca.forward(x) * r).sum())

    ca.zero_grad()
    ca.forward(x)
    gx = ca.backward(r)
    errs = [_err(gx, ops.finite_diff_grad(
        lambda v: float((ca.forward(v) * r).sum()), x.copy()))]
    params = [ca.squeeze.weight, ca.squeeze.bias, ca.squeeze_bn.scale,
              ca.squeeze_bn.shift, ca.expand_h.weight, ca.expand_h.bias,
              ca.expand_w.weight, ca.expand_w.bias]
    for p in params:
        errs.append(_err(p.grad, _fd_param(scalar, p)))
    return max(errs)


# ---------------------------------------------------------------------------
# postproc-loss checks
# ---------------------------------------------------------------------------

def check_diou_grad(rng):
    errs = []
    for _ in range(5):
        a = Box(*rng.uniform(2, 8, 2), *rng.uniform(2, 6, 2))
        b = Box(*rng.uniform(2, 8, 2), *rng.uniform(2, 6, 2))
        g = diou_grad(a, b)
        v = np.array([a.cx, a.cy, a.w, a.h])
        fd = ops.finite_diff_grad(
            lambda p: diou(Box(p[0], p[1], p[2], p[3]), b), v)
        errs.append(_err(g, fd))
    return max(errs)


def check_focal_grad(rng):
    p = rng.uniform(0.05, 0.95, 16)
    y = rng.integers(0, 2, 16).astype(float)
    g = focal_loss_grad_p(p, y)
    fd = ops.finite_diff_grad(lambda v: float(focal_loss(v, y).sum()), p)
    return _err(g, fd)


def check_detection_loss_grad(rng):
    num_classes = 3
    anchors = (((8.0, 8.0), (12.0, 10.0)),
               ((20.0, 16.0), (16.0, 20.0)),
               ((40.0, 40.0), (30.0, 44.0)))
    strides = (8, 16, 32)
    shapes = [(2 * (5 + num_classes), 4, 4),
              (2 * (5 + num_classes), 2, 2),
              (2 * (5 + num_classes), 1, 1)]
    raws = [rng.standard_normal(s) * 0.5 for s in shapes]
    targets = [
        (Box(10.3, 12.7, 9.0, 8.5), 0),
        (Box(21.6, 18.2, 18.0, 17.0), 2),
    ]
    cfg = LossConfig()
    total, _, grads = detection_loss(raws, targets, anchors, strides,
                                     num_classes, cfg)
    errs = []
    for lvl in range(3):
        def f(v, lvl=lvl):
            rs = [r.copy() for r in raws]
            rs[lvl] = v
            t, _, _ = detection_loss(rs, targets, anchors, strides,
                                     num_classes, cfg)
            return t
        errs.append(_err(grads[lvl], ops.finite_diff_grad(f, raws[lvl].copy())))
    return max(errs)


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

SUITES = {
    "tensor-core": [
        ("conv2d", check_conv2d, TOL_ELEMENTWISE),
        ("conv2d_grouped", check_conv2d_grouped, TOL_ELEMENTWISE),
        ("fully_connected", check_fully_connected, TOL_ELEMENTWISE),
        ("max_pool2d", check_max_pool, TOL_ELEMENTWISE),
        ("global_avg_pool", check_global_avg_pool, TOL_ELEMENTWISE),
        ("directional_pool", check_directional_pool, TOL_ELEMENTWISE),
        ("activations", check_activations, TOL_ELEMENTWISE),
        ("batchnorm_inference", check_batchnorm, TOL_ELEMENTWISE),
        ("concat_split", check_concat_split, TOL_ELEMENTWISE),
        ("bilinear_sample", check_bilinear, TOL_ELEMENTWISE),
        ("finite_diff_selftest", check_finite_diff_selftest, TOL_ELEMENTWISE),
    ],
    "attention-head": [
        ("scale_attention", check_scale_attention, TOL_ELEMENTWISE),
        ("spatial_attention", check_spatial_attention, TOL_COMPOSED),
        ("task_attention", check_task_attention, TOL_ELEMENTWISE),
        ("dynamic_block", check_dynamic_block, TOL_COMPOSED),
        ("tda_head", check_tda_head, TOL_COMPOSED),
    ],
    "coord-attention": [
        ("coord_attention", check_coord_attention, TOL_COMPOSED),
    ],
    "postproc-loss": [
        ("diou_grad", check_diou_grad, TOL_ELEMENTWISE),
        ("focal_loss_grad", check_focal_grad, TOL_ELEMENTWISE),
        ("detection_loss_grad", check_detection_loss_grad, TOL_COMPOSED),
    ],
}


def _check_corrupt(rng):
    # harness self-test: a deliberately wrong backward must be flagged
    x = rng.standard_normal((3, 3))
    fd = ops.finite_diff_grad(lambda v: float((v ** 2).sum()), x)
    return _err(2.2 * x, fd)


def run_suite(module, seeds=20):
    """Run every check in a suite over the given number of seeds."""
    if module == "_corrupt":
        checks = [("corrupt_backward_fixture", _check_corrupt, TOL_ELEMENTWISE)]
    elif module in SUITES:
        checks = SUITES[module]
    else:
        raise KeyError(f"unknown gradcheck module {module!r}; "
                       f"choose from {sorted(SUITES)}")
    results = []
    for name, fn, tol in checks:
        worst = 0.0
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            worst = max(worst, fn(rng))
        results.append(CheckResult(name, worst, tol))
    return results
