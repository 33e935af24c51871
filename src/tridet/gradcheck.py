"""Central-difference verification suites for every differentiable
operation, grouped by subsystem for the command-line front end.

Every check runs through one routine, ``_check(rng, forward, backward,
inputs, params)``.  It projects each output of ``forward`` on its own
random array, so the loss is ``sum_i <out_i, r_i>``, and calls
``backward(*r)`` for the analytic gradients: one per input, and each
listed ``Param.grad``.  Both are compared against ``ops.finite_diff_grad``
on that loss, and the check reports the maximum relative error.  Kernels
pass a closure over their own inputs as ``backward``; layers go through
``_check_layer``, which zeroes their gradients and by default checks every
trainable parameter that ``named_params()`` walks.  Elementwise kernels
are held to 1e-5, composed blocks to 1e-4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .attention import (DynamicBlock, ScaleAttention, SpatialAttention,
                        TaskAttention, TDAHead)
from .config import ModelConfig
from .coordatt import CoordAttention
from .layers import BatchNorm2d, LeakyReLU, Linear, init_params
from .postproc import (box_planes, detection_loss, diou_planes, focal_loss,
                       focal_loss_grad_p)

TOL_ELEMENTWISE = 1e-5
TOL_COMPOSED = 1e-4


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float

    @property
    def passed(self):
        return self.max_err < self.tol


# larger parameters are probed on a fixed random subset of this many entries
MAX_FD_ENTRIES = 48


def _worst(errs):
    """The largest error (0 for none), NaN if any is NaN: `max` drops a
    NaN that is not first, and `max(worst, nan)` keeps `worst`."""
    return float(np.max(errs, initial=0.0))


def _tuple(out):
    return tuple(out) if isinstance(out, (tuple, list)) else (out,)


def _check(rng, forward, backward, inputs, params=()):
    """Max relative error of the gradients `backward` returns for each of
    `inputs`, and of each Param.grad in `params`, against central
    differences of the loss that projects every output of `forward` on its
    own random array.  `backward` takes one array per output and runs once,
    right after `forward` on the unperturbed inputs."""
    def outputs(xs):
        return _tuple(forward(*(x.copy() for x in xs)))

    rs = [rng.standard_normal(np.shape(o)) for o in outputs(inputs)]

    def loss(*xs):
        return float(sum((o * r).sum() for o, r in zip(outputs(xs), rs)))

    grads = _tuple(backward(*(r.copy() for r in rs)))
    errs = []
    for i, (g, x) in enumerate(zip(grads, inputs, strict=True)):
        fd = ops.finite_diff_grad(
            lambda v, i=i: loss(*inputs[:i], v, *inputs[i + 1:]), x.copy())
        errs.append(ops.relative_error(g, fd))
    for p in params:
        n = p.value.size
        idx = (np.random.default_rng(n).choice(n, MAX_FD_ENTRIES,
                                               replace=False)
               if n > MAX_FD_ENTRIES else None)
        # unprobed entries copy the analytic gradient: neutral there
        fd = ops.finite_diff_grad(lambda _: loss(*inputs), p.value,
                                  entries=idx, out=p.grad.copy())
        errs.append(ops.relative_error(p.grad, fd))
    return _worst(errs)


def _check_layer(rng, layer, inputs, params=None):
    """_check on a Layer, over all its trainable parameters by default."""
    layer.zero_grad()
    if params is None:
        params = [p for _, p in layer.named_params() if p.trainable]
    return _check(rng, layer.forward, layer.backward, inputs, params)


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
    x = rng.standard_normal((3, 5, 5))
    w = rng.standard_normal((4, 3, 3, 3)) * 0.5
    b = rng.standard_normal(4)
    return _check(rng, lambda *xs: ops.conv2d(*xs, padding=1),
                  lambda r: ops.conv2d_backward(x, w, r, padding=1), (x, w, b))


def check_conv2d_grouped(rng):
    x = rng.standard_normal((4, 6, 6))
    w = rng.standard_normal((4, 2, 3, 3)) * 0.5
    kw = dict(stride=2, padding=1, groups=2)
    return _check(rng, lambda *xs: ops.conv2d(*xs, None, **kw),
                  lambda r: ops.conv2d_backward(x, w, r, **kw)[:2],
                  (x, w))


def check_fully_connected(rng):
    x = rng.standard_normal(8)
    layer = Linear(8, 4)
    layer.weight.value = rng.standard_normal((4, 8))
    layer.bias.value = rng.standard_normal(4)
    return _check_layer(rng, layer, (x,))


def check_max_pool(rng):
    x = rng.standard_normal((2, 5, 5))
    return _check(rng, lambda v: ops.max_pool2d(v, 3),
                  lambda r: ops.max_pool2d_backward(x, 3, r), (x,))


def check_activations(rng):
    """ReLU, the LeakyReLU layer, sigmoid and hard sigmoid; the inline ReLU
    and the sigmoids as (forward, derivative) in the forms their callers
    use, the layer (derivative None) as it runs.  Inputs are pushed off
    the kinks."""
    errs = []
    for forward, deriv, kinks in (
            (lambda v: np.maximum(v, 0.0), lambda x: x > 0, (0.0,)),
            (LeakyReLU(), None, (0.0,)),
            (ops.sigmoid, lambda x: (s := ops.sigmoid(x)) * (1.0 - s), ()),
            (ops.hard_sigmoid, ops.hard_sigmoid_deriv, (-1.0, 1.0))):
        x = _away_from(rng.standard_normal((3, 7)), kinks)
        errs.append(
            _check_layer(rng, forward, (x,)) if deriv is None else
            _check(rng, forward, lambda r, d=deriv, x=x: r * d(x), (x,)))
    return _worst(errs)


def check_batchnorm(rng):
    x = rng.standard_normal((4, 3, 3))
    layer = BatchNorm2d(4)
    for p in (layer.scale, layer.shift, layer.mean):
        p.value = rng.standard_normal(4)
    layer.var.value = rng.uniform(0.5, 2.0, 4)
    return _check_layer(rng, layer, (x,))


def check_bilinear(rng):
    plane = rng.standard_normal((3, 5, 5))
    # fractional parts well inside cells so coordinate FD stays one-sided
    ys = rng.integers(0, 4, (4, 4)).astype(float) + rng.uniform(0.2, 0.8, (4, 4))
    xs = rng.integers(0, 4, (4, 4)).astype(float) + rng.uniform(0.2, 0.8, (4, 4))
    return _check(rng, ops.grid_sample_zero,
                  lambda r: ops.grid_sample_zero_backward(plane, ys, xs, r),
                  (plane, ys, xs))


def check_finite_diff_selftest(rng):
    x = rng.standard_normal((3, 4))
    g = ops.finite_diff_grad(lambda v: float((v ** 2).sum()), x)
    return ops.relative_error(2 * x, g)


# ---------------------------------------------------------------------------
# attention-head checks
# ---------------------------------------------------------------------------

def check_scale_attention(rng):
    x = rng.standard_normal((6, 3, 4))
    layer = ScaleAttention()
    layer.weight.value = rng.uniform(-0.3, 0.3, (2, 2))
    layer.bias.value = rng.uniform(-0.3, 0.3, 2)
    return _check_layer(rng, layer, (x,))


def check_spatial_attention(rng):
    base = rng.standard_normal((3, 4, 4))
    ctx = rng.standard_normal((3, 4, 4))
    layer = SpatialAttention(3)
    # non-integer sampling coordinates keep FD off the cell boundaries
    layer.offset_pred.weight.value = rng.uniform(-0.02, 0.02,
                                                 layer.offset_pred.weight.value.shape)
    layer.offset_pred.bias.value = rng.uniform(0.2, 0.4, 2 * 9)
    layer.mod_pred.weight.value = rng.uniform(-0.1, 0.1,
                                              layer.mod_pred.weight.value.shape)
    layer.tap_weights.value = rng.uniform(-0.5, 0.5, 9)
    return _check_layer(rng, layer, (base, ctx))


def check_task_attention(rng):
    x = rng.standard_normal((4, 2, 4))
    layer = TaskAttention(4, reduction=2)
    layer.fc1.weight.value = rng.uniform(-0.5, 0.5, layer.fc1.weight.value.shape)
    layer.fc1.bias.value = rng.uniform(0.1, 0.5, layer.fc1.bias.value.shape)
    layer.fc2.weight.value = rng.uniform(-0.4, 0.4, layer.fc2.weight.value.shape)
    layer.fc2.bias.value = rng.uniform(-0.3, 0.3, 4)
    return _check_layer(rng, layer, (x,))


def _dyrelu_gap(blk, x):
    """Smallest gap between the two DY-ReLU branches of a block's output."""
    y = blk.spatial.forward(*blk.scale.forward(x))
    (a1, b1, a2, b2), _ = blk.task.coefficients(y)
    return np.abs((a1 - a2) * y + b1 - b2).min()


def check_dynamic_block(rng):
    blk = init_params(DynamicBlock(4, reduction=2),
                      np.random.default_rng(rng.integers(1 << 31)))
    blk.scale.weight.value = rng.uniform(-0.2, 0.2, (2, 2))
    blk.spatial.offset_pred.bias.value = rng.uniform(0.2, 0.4, 18)
    blk.spatial.tap_weights.value = rng.uniform(-0.5, 0.5, 9)
    blk.task.fc2.weight.value = rng.uniform(-0.3, 0.3, blk.task.fc2.weight.value.shape)
    # redraw an input whose output lies on the DY-ReLU kink: central
    # differences there straddle both branches
    x = rng.standard_normal((4, 4, 4))
    while _dyrelu_gap(blk, x) < 1e-3:
        x = rng.standard_normal((4, 4, 4))
    return _check_layer(rng, blk, (x,))


def check_tda_head(rng):
    """Every parameter of a one-block head, then the input gradient of a
    two-block head, which runs back through both blocks."""
    errs = []
    for num_blocks in (1, 2):
        head = init_params(TDAHead(4, num_blocks, 2, 1, reduction=2),
                           np.random.default_rng(rng.integers(1 << 31)))
        for blk in head.blocks:
            blk.spatial.offset_pred.bias.value = rng.uniform(0.2, 0.4, 18)
            blk.task.fc2.weight.value = rng.uniform(
                -0.3, 0.3, blk.task.fc2.weight.value.shape)
        x = rng.standard_normal((4, 3, 3))
        errs.append(_check_layer(rng, head, (x,)) if num_blocks == 1 else
                    _check(rng, head.forward, head.backward, (x,)))
    return _worst(errs)


# ---------------------------------------------------------------------------
# coord-attention checks
# ---------------------------------------------------------------------------

def check_coord_attention(rng):
    ca = init_params(CoordAttention(8, 4),
                     np.random.default_rng(rng.integers(1 << 31)))
    ca.squeeze.bias.value = rng.uniform(0.1, 0.4, ca.squeeze.bias.value.shape)
    x = rng.standard_normal((8, 3, 4))
    return _check_layer(rng, ca, (x,))


# ---------------------------------------------------------------------------
# postproc-loss checks
# ---------------------------------------------------------------------------

def check_diou_grad(rng):
    errs = []
    for _ in range(5):
        a = np.concatenate([rng.uniform(2, 8, 2), rng.uniform(2, 6, 2)])
        b = box_planes(np.concatenate([rng.uniform(2, 8, 2),
                                       rng.uniform(2, 6, 2)]))
        errs.append(_check(
            rng, lambda v: diou_planes(box_planes(v), b),
            lambda r: diou_planes(box_planes(a), b, True)[1] * r, (a,)))
    return _worst(errs)


def check_focal_grad(rng):
    p = rng.uniform(0.05, 0.95, 16)
    y = rng.integers(0, 2, 16).astype(float)
    return _check(rng, lambda v: focal_loss(v, y),
                  lambda r: focal_loss_grad_p(p, y) * r, (p,))


def check_detection_loss_grad(rng):
    num_classes = 3
    cfg = ModelConfig(num_classes=num_classes,
                      anchors=(((8.0, 8.0), (12.0, 10.0)),
                               ((20.0, 16.0), (16.0, 20.0)),
                               ((40.0, 40.0), (30.0, 44.0))))
    shapes = [(2 * (5 + num_classes), 4, 4),
              (2 * (5 + num_classes), 2, 2),
              (2 * (5 + num_classes), 1, 1)]
    raws = [rng.standard_normal(s) * 0.5 for s in shapes]
    labels = np.array([[10.3, 12.7, 9.0, 8.5, 0, 1.0],
                       [21.6, 18.2, 18.0, 17.0, 2, 1.0]])

    def loss(*rs):
        return detection_loss(list(rs), labels, cfg)

    return _check(rng, lambda *rs: loss(*rs)[0],
                  lambda r: [g * r for g in loss(*raws)[2]], tuple(raws))


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

SUITES = {
    "tensor-core": [
        ("conv2d", check_conv2d, TOL_ELEMENTWISE),
        ("conv2d_grouped", check_conv2d_grouped, TOL_ELEMENTWISE),
        ("fully_connected", check_fully_connected, TOL_ELEMENTWISE),
        ("max_pool2d", check_max_pool, TOL_ELEMENTWISE),
        ("activations", check_activations, TOL_ELEMENTWISE),
        ("batchnorm_inference", check_batchnorm, TOL_ELEMENTWISE),
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
    return ops.relative_error(2.2 * x, fd)


def run_suite(module, seeds=20):
    """Run every check in a suite over the given number of seeds."""
    if seeds < 1:
        raise ValueError(f"run_suite needs at least 1 seed, got {seeds}")
    if module == "_corrupt":
        checks = [("corrupt_backward_fixture", _check_corrupt, TOL_ELEMENTWISE)]
    elif module in SUITES:
        checks = SUITES[module]
    else:
        raise KeyError(f"unknown gradcheck module {module!r}; "
                       f"choose from {sorted(SUITES)}")
    results = []
    for name, fn, tol in checks:
        worst = _worst([fn(np.random.default_rng(seed)) for seed in range(seeds)])
        results.append(CheckResult(name, worst, tol))
    return results
