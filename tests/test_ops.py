"""Tensor-core kernels, and the layers that do their own arithmetic
(Linear, LeakyReLU, BatchNorm2d, CoordAttention's pooling): values against
naive-loop oracles, gradients against central differences."""

import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tridet import ops
from tridet.attention import TaskAttention
from tridet.coordatt import CoordAttention
from tridet.layers import BatchNorm2d, LeakyReLU, Linear


def naive_conv2d(x, w, b, stride=1, padding=0):
    cin, h, ww = x.shape
    cout, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (ww + 2 * padding - kw) // stride + 1
    xp = np.zeros((cin, h + 2 * padding, ww + 2 * padding))
    xp[:, padding: padding + h, padding: padding + ww] = x
    out = np.zeros((cout, oh, ow))
    for co in range(cout):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for ci in range(cin):
                    for u in range(kh):
                        for v in range(kw):
                            acc += xp[ci, i * stride + u, j * stride + v] \
                                * w[co, ci, u, v]
                out[co, i, j] = acc + (b[co] if b is not None else 0.0)
    return out


def naive_conv2d_backward(x, w, gy, stride=1, padding=0, groups=1):
    """Per-tap gradients of a grouped conv, two einsums per (u, v)."""
    cin, h, ww = x.shape
    cout, cg, kh, kw = w.shape
    _, oh, ow = gy.shape
    og = cout // groups
    xp = np.zeros((cin, h + 2 * padding, ww + 2 * padding))
    xp[:, padding: padding + h, padding: padding + ww] = x
    wg = w.reshape(groups, og, cg, kh, kw)
    gyr = gy.reshape(groups, og, oh, ow)
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(wg)
    for u in range(kh):
        for v in range(kw):
            hsl = slice(u, u + stride * (oh - 1) + 1, stride)
            wsl = slice(v, v + stride * (ow - 1) + 1, stride)
            patch = xp[:, hsl, wsl].reshape(groups, cg, oh, ow)
            gw[:, :, :, u, v] += np.einsum("gohw,gchw->goc", gyr, patch)
            gpatch = np.einsum("gohw,goc->gchw", gyr, wg[:, :, :, u, v])
            gxp[:, hsl, wsl] += gpatch.reshape(cin, oh, ow)
    gx = gxp[:, padding: padding + h, padding: padding + ww]
    return gx, gw.reshape(w.shape), gy.sum(axis=(1, 2))


class TestConv2d:
    def test_identity_1x1(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 5, 5))
        w = np.eye(4).reshape(4, 4, 1, 1)
        assert_allclose(ops.conv2d(x, w, np.zeros(4)), x)

    def test_constant_field_all_ones_kernel(self):
        x = np.full((1, 6, 6), 3.0)
        w = np.ones((1, 1, 3, 3))
        y = ops.conv2d(x, w, None, padding=1)
        assert_allclose(y[0, 1:-1, 1:-1], 27.0)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 5, 5))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        for xi in x:
            assert_allclose(ops.conv2d(xi, w, b, stride=2, padding=1),
                            naive_conv2d(xi, w, b, stride=2, padding=1),
                            atol=1e-12)

    def test_input_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 5, 5))
        w = rng.standard_normal((2, 3, 3, 3))
        rs = rng.standard_normal((2, 2, 5, 5))
        for xi, r in zip(x, rs):
            gx, _, _ = ops.conv2d_backward(xi, w, r, padding=1)
            fd = ops.finite_diff_grad(
                lambda v: (ops.conv2d(v, w, None, padding=1) * r).sum(), xi)
            assert ops.relative_error(gx, fd) < 1e-6

    def test_depthwise_identity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 4, 4))
        w = np.ones((6, 1, 1, 1))
        y = ops.conv2d(x, w, None, groups=6)
        assert_allclose(y, x)

    def test_shape_error_names_dimension(self):
        x = np.zeros((3, 5, 5))
        w = np.zeros((4, 2, 3, 3))
        with pytest.raises(ops.ShapeError, match="2 input channels, input has 3"):
            ops.conv2d(x, w, None)


CIN = 4


@pytest.mark.parametrize("hw", [(7, 7), (6, 8)], ids=["odd", "even"])
@pytest.mark.parametrize("groups", [1, 2, CIN])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 3])
def test_conv2d_backward_matches_per_tap_oracle(k, stride, padding, groups, hw):
    rng = np.random.default_rng(k * 100 + stride * 10 + padding + groups)
    cout = 6 if groups != CIN else CIN
    x = rng.standard_normal((CIN, *hw))
    w = rng.standard_normal((cout, CIN // groups, k, k))
    oh, ow = ops.conv2d_out_hw(*hw, k, k, stride, padding)
    gy = rng.standard_normal((cout, oh, ow))
    got = ops.conv2d_backward(x, w, gy, stride, padding, groups)
    want = naive_conv2d_backward(x, w, gy, stride, padding, groups)
    for name, g, r in zip(("gx", "gw", "gb"), got, want):
        assert g.shape == r.shape, name
        assert ops.relative_error(g, r) <= 1e-12, name


@pytest.mark.parametrize("kernel", ["conv2d", "conv2d_backward"])
@pytest.mark.parametrize("arg,value", [("stride", 0), ("stride", -1),
                                       ("padding", -1)])
def test_bad_stride_or_padding_rejected_by_name(kernel, arg, value):
    x = np.zeros((2, 5, 5))
    w = np.zeros((2, 2, 3, 3))
    kw = {"stride": 1, "padding": 1, arg: value}
    call = {
        "conv2d": lambda: ops.conv2d(x, w, None, **kw),
        "conv2d_backward": lambda: ops.conv2d_backward(
            x, w, np.zeros((2, 5, 5)), **kw),
    }[kernel]
    with pytest.raises(ops.ShapeError, match=f"{arg}={value}"):
        call()


@pytest.mark.parametrize("kernel", ["conv2d", "conv2d_backward", "max_pool2d"])
def test_batched_input_rejected_naming_rank(kernel):
    x = np.zeros((1, 3, 5, 5))
    w = np.zeros((2, 3, 3, 3))
    call = {
        "conv2d": lambda: ops.conv2d(x, w, None, padding=1),
        "conv2d_backward": lambda: ops.conv2d_backward(
            x, w, np.zeros((2, 5, 5)), padding=1),
        "max_pool2d": lambda: ops.max_pool2d(x, 3),
    }[kernel]
    with pytest.raises(ops.ShapeError, match="rank-3 .* got rank 4"):
        call()


def linear(w, b):
    layer = Linear(*w.shape[::-1])
    layer.weight.value, layer.bias.value = w, b
    return layer


class TestFullyConnected:
    """The Linear layer, y = W x + b."""

    def test_identity(self):
        x = np.arange(5.0)
        assert_allclose(linear(np.eye(5), np.zeros(5)).forward(x), x)

    def test_zero_matrix_gives_bias(self):
        b = np.array([1.0, -2.0])
        assert_allclose(linear(np.zeros((2, 3)), b).forward(np.ones(3)), b)

    def test_gradcheck(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(8)
        w = rng.standard_normal((4, 8))
        b = rng.standard_normal(4)
        r = rng.standard_normal(4)
        layer = linear(w, b)
        layer.forward(x)
        gx = layer.backward(r)
        fd = ops.finite_diff_grad(
            lambda v: (linear(w, b).forward(v) * r).sum(), x)
        assert ops.relative_error(gx, fd) < 1e-6
        fdw = ops.finite_diff_grad(
            lambda v: (linear(v, b).forward(x) * r).sum(), w)
        assert ops.relative_error(layer.weight.grad, fdw) < 1e-6
        assert (layer.bias.grad == r).all()


class TestMaxPool:
    def test_constant_input(self):
        x = np.full((2, 5, 5), 1.5)
        assert_allclose(ops.max_pool2d(x, 3), x)

    def test_spike_spreads_to_3x3_block(self):
        x = np.zeros((1, 5, 5))
        x[0, 2, 2] = 5.0
        y = ops.max_pool2d(x, 3)
        assert_allclose(y[0, 1:4, 1:4], 5.0)
        assert y[0, 0, 0] == 0.0

    def test_matches_window_scan(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 7, 7))
        y = ops.max_pool2d(x, 5)
        for i in range(7):
            for j in range(7):
                win = x[0, max(0, i - 2): i + 3, max(0, j - 2): j + 3]
                assert y[0, i, j] == win.max()

    def test_even_kernel_rejected(self):
        with pytest.raises(ops.ShapeError):
            ops.max_pool2d(np.zeros((1, 4, 4)), 4)

    def test_backward_refuses_mismatched_or_unmapped_shapes(self):
        x = np.zeros((2, 4, 5))
        with pytest.raises(ops.ShapeError, match=r"\(2, 5, 4\) != \(2, 4, 5\)"):
            ops.max_pool2d_backward(x, 3, np.zeros((2, 5, 4)))
        with pytest.raises(ops.ShapeError, match=r"\(1, 4, 5\) != \(2, 4, 5\)"):
            ops.max_pool2d_backward(x, 3, np.zeros((1, 4, 5)))
        with pytest.raises(ops.ShapeError, match="rank-3 .* got rank 2"):
            ops.max_pool2d_backward(np.zeros((4, 5)), 3, np.zeros((4, 5)))


def directional_pool(x):
    """The two means CoordAttention pools x into, as they reach generate."""
    ca = CoordAttention(x.shape[0], 1)
    seen = []
    ca.generate = lambda *q: seen.append(q) or CoordAttention.generate(ca, *q)
    ca.forward(x)
    return seen[0]


class TestPooling:
    def test_directional_pool_hand_values(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        q_h, q_w = directional_pool(x)
        assert_allclose(q_h[0, :, 0], [1.5, 3.5])
        assert_allclose(q_w[0, 0, :], [2.0, 3.0])

    def test_directional_pool_constant(self):
        x = np.full((3, 4, 5), 2.0)
        q_h, q_w = directional_pool(x)
        assert_allclose(q_h, 2.0)
        assert_allclose(q_w, 2.0)

    def test_directional_pool_matches_naive_loop(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 4, 5))
        q_h, q_w = directional_pool(x)
        assert q_h.shape == (3, 4, 1) and q_w.shape == (3, 1, 5)
        for c in range(3):
            for i in range(4):
                assert_allclose(q_h[c, i, 0],
                                sum(x[c, i, j] for j in range(5)) / 5)
            for j in range(5):
                assert_allclose(q_w[c, 0, j],
                                sum(x[c, i, j] for i in range(4)) / 4)


class TestBilinearSample:
    def test_integer_coordinates_exact(self):
        rng = np.random.default_rng(7)
        plane = rng.standard_normal((2, 4, 4))
        out = ops.grid_sample_zero(plane, np.array([2.0]), np.array([3.0]))
        assert (out[:, 0] == plane[:, 2, 3]).all()

    def test_four_point_average(self):
        plane = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = ops.grid_sample_zero(plane, np.array([0.5]), np.array([0.5]))
        assert_allclose(out, [[2.5]])

    def test_out_of_bounds_zero(self):
        plane = np.ones((1, 2, 2))
        out = ops.grid_sample_zero(plane, np.array([-1.0, 3.0, 0.0]),
                                   np.array([-1.0, 0.0, 2.5]))
        assert (out == 0.0).all()

    def test_nan_coordinates_rejected(self):
        with pytest.raises(ValueError):
            ops.grid_sample_zero(np.ones((1, 2, 2)), np.array([np.nan]),
                                 np.array([0.0]))

    def test_backward_refuses_nan_coordinates_without_warnings(self):
        # the forward's error, raised before the integer cast can warn
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="^grid_sample_zero got "
                               "non-finite coordinates$"):
                ops.grid_sample_zero_backward(
                    np.ones((1, 3, 3)), np.array([np.nan, 1.0]),
                    np.array([0.5, 1.0]), np.ones((1, 2)))

    def test_far_coordinates_sample_zero_without_warnings(self):
        # a coordinate far past any int64 must not reach the integer cast
        plane = np.arange(1.0, 13.0).reshape(1, 3, 4)
        ys = np.array([1e300, 1.0, -1e300, 1.5])
        xs = np.array([1.0, -1e300, 2.0, 1.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ops.grid_sample_zero(plane, ys, xs)
            grads = ops.grid_sample_zero_backward(plane, ys[:3], xs[:3],
                                                  np.ones((1, 3)))
        assert (out[:, :3] == 0.0).all() and out[0, 3] == 8.5
        assert all((g == 0.0).all() for g in grads)

    def test_backward_refuses_gout_of_another_shape(self):
        # a [1, N] or [1, 1] gout must not pass for every channel's
        plane = np.ones((3, 4, 4))
        ys = xs = np.array([0.5, 1.5, 2.5])
        for gout in (np.ones((1, 3)), np.ones((1, 1)), np.ones((3, 3, 1))):
            with pytest.raises(ops.ShapeError, match=re.escape(
                    f"gout shape {gout.shape} != (3, 3)")):
                ops.grid_sample_zero_backward(plane, ys, xs, gout)

    def test_mismatched_coordinate_shapes_named(self):
        plane = np.ones((2, 4, 4))
        ys, xs = np.zeros((4, 2, 3)), np.zeros((4, 3))
        msg = re.escape("ys shape (4, 2, 3) != xs shape (4, 3)")
        with pytest.raises(ops.ShapeError, match=msg):
            ops.grid_sample_zero(plane, ys, xs)
        with pytest.raises(ops.ShapeError, match=msg):
            ops.grid_sample_zero_backward(plane, ys, xs, np.ones((2, 4, 2, 3)))
        with pytest.raises(ops.ShapeError, match=re.escape("(3,) != xs shape (1, 3)")):
            ops.grid_sample_zero(plane, np.zeros(3), np.zeros((1, 3)))

    def test_coordinate_stack_equals_separate_calls(self):
        rng = np.random.default_rng(12)
        plane = rng.standard_normal((3, 5, 4))
        ys = rng.uniform(-1.5, 5.5, (9, 3, 4))
        xs = rng.uniform(-1.5, 4.5, (9, 3, 4))
        ys[0], xs[0] = np.round(ys[0]), np.round(xs[0])  # integer taps
        ys[1], xs[1] = ys[2], xs[2]  # two taps on the same cells
        ys[8] = -2.0  # a tap wholly outside the grid
        out = ops.grid_sample_zero(plane, ys, xs)
        assert out.shape == (3, 9, 3, 4)
        for k in range(9):
            one = ops.grid_sample_zero(plane, ys[k], xs[k])
            assert (out[:, k] == one).all()

    def test_grid_sample_gradients(self):
        # a [K, H, W] stack whose taps share corner cells, some off the grid
        rng = np.random.default_rng(8)
        plane = rng.standard_normal((2, 4, 4))
        ys = rng.uniform(-0.7, 3.7, (3, 2, 3))
        xs = rng.uniform(-0.7, 3.7, (3, 2, 3))
        r = rng.standard_normal((2, 3, 2, 3))
        gp, gy, gx = ops.grid_sample_zero_backward(plane, ys, xs, r)
        fd = ops.finite_diff_grad(
            lambda v: (ops.grid_sample_zero(v, ys, xs) * r).sum(), plane)
        assert ops.relative_error(gp, fd) < 1e-6
        fdy = ops.finite_diff_grad(
            lambda v: (ops.grid_sample_zero(plane, v, xs) * r).sum(), ys)
        assert ops.relative_error(gy, fdy) < 1e-6
        fdx = ops.finite_diff_grad(
            lambda v: (ops.grid_sample_zero(plane, ys, v) * r).sum(), xs)
        assert ops.relative_error(gx, fdx) < 1e-6


class TestActivations:
    def test_hard_sigmoid_formula_points(self):
        x = np.array([0.0, 1.0, -1.0, 0.5])
        assert_allclose(ops.hard_sigmoid(x), [0.5, 1.0, 0.0, 0.75])

    def test_relu_points(self):
        # ReLU is inline in TaskAttention: its hidden means -2 and 3 reach
        # fc2 as 0 and 3, and only the positive one passes a gradient back
        layer = TaskAttention(2, reduction=1)
        layer.fc1.weight.value = np.eye(2)
        rng = np.random.default_rng(8)
        layer.fc2.weight.value = rng.uniform(-1, 1, (4, 2))
        x = np.concatenate([np.full((1, 2, 2), -2.0), np.full((1, 2, 2), 3.0)])
        y = layer.forward(x)
        assert layer.fc2._x.tolist() == [0.0, 3.0]
        layer.backward(np.ones_like(y))
        da = layer.fc2.bias.grad @ layer.fc2.weight.value
        assert layer.fc1.bias.grad.tolist() == [0.0, da[1]]

    def test_sigmoid_zero(self):
        assert ops.sigmoid(np.array(0.0)) == 0.5

    def test_hard_sigmoid_deriv_points(self):
        x = np.array([-2.0, -1.0, -0.999, 0.0, 0.999, 1.0, 2.0, np.nan])
        assert ops.hard_sigmoid_deriv(x).tolist() == \
            [0.0, 0.0, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0]

    def test_gradcheck_away_from_kinks(self):
        # each activation as the program computes it: the LeakyReLU layer,
        # the sigmoids with their derivatives, and the inline ReLU
        rng = np.random.default_rng(9)
        x = rng.standard_normal(20) * 2
        x = x[np.abs(np.abs(x) - 1.0) > 1e-3]
        x = x[np.abs(x) > 1e-3]
        r = np.random.default_rng(10).standard_normal(x.shape)
        leaky = LeakyReLU()
        leaky.forward(x)
        s = ops.sigmoid(x)
        cases = {
            "relu": (lambda v: np.maximum(v, 0.0), r * (x > 0)),
            "leaky_relu": (lambda v: LeakyReLU().forward(v),
                           leaky.backward(r)),
            "sigmoid": (ops.sigmoid, r * s * (1.0 - s)),
            "hard_sigmoid": (ops.hard_sigmoid, r * ops.hard_sigmoid_deriv(x)),
        }
        for kind, (forward, g) in cases.items():
            fd = ops.finite_diff_grad(
                lambda v, f=forward: (f(v) * r).sum(), x.copy())
            assert ops.relative_error(g, fd) < 1e-6, kind

    def test_ranges_and_monotonicity(self):
        x = np.sort(np.random.default_rng(11).standard_normal(100) * 3)
        hs = ops.hard_sigmoid(x)
        sg = ops.sigmoid(x)
        assert hs.min() >= 0.0 and hs.max() <= 1.0
        assert sg.min() > 0.0 and sg.max() < 1.0
        assert (np.diff(hs) >= 0).all()
        assert (np.diff(sg) >= 0).all()


def batchnorm(scale, shift, mean, var):
    layer = BatchNorm2d(len(scale))
    for p, v in zip((layer.scale, layer.shift, layer.mean, layer.var),
                    (scale, shift, mean, var)):
        p.value = np.asarray(v, dtype=np.float64)
    return layer


class TestBatchNorm:
    def test_identity_statistics(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 2, 2))
        y = batchnorm(np.ones(3), np.zeros(3), np.zeros(3),
                      np.ones(3)).forward(x)
        assert_allclose(y, x, rtol=1e-5, atol=1e-5)

    def test_zero_scale_gives_shift(self):
        x = np.random.default_rng(13).standard_normal((2, 3, 3))
        shift = np.array([0.5, -0.5])
        y = batchnorm(np.zeros(2), shift, np.zeros(2), np.ones(2)).forward(x)
        assert_allclose(y[0], 0.5)
        assert_allclose(y[1], -0.5)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 3, 2, 2))
        scale, shift, mean = (rng.standard_normal(3) for _ in range(3))
        var = rng.uniform(0.5, 2.0, 3)
        for n in range(2):
            y = batchnorm(scale, shift, mean, var).forward(x[n])
            for c in range(3):
                for i in range(2):
                    for j in range(2):
                        ref = (x[n, c, i, j] - mean[c]) / np.sqrt(var[c] + 1e-5) \
                            * scale[c] + shift[c]
                        assert_allclose(y[c, i, j], ref)

    def test_negative_variance_rejected(self):
        layer = batchnorm(np.ones(1), np.zeros(1), np.zeros(1), [-1.0])
        with pytest.raises(ValueError,
                           match="^batchnorm got negative variance$"):
            layer.forward(np.zeros((1, 2, 2)))


class TestFiniteDiff:
    def test_quadratic(self):
        x = np.random.default_rng(17).standard_normal((3, 4))
        g = ops.finite_diff_grad(lambda v: float((v ** 2).sum()), x)
        assert ops.relative_error(g, 2 * x) < 1e-8

    def test_linear(self):
        x = np.random.default_rng(18).standard_normal(6)
        g = ops.finite_diff_grad(lambda v: float(v.sum()), x)
        assert_allclose(g, 1.0, rtol=1e-8)

    def test_conv_composite_self_consistency(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((2, 4, 4))
        w = rng.standard_normal((3, 2, 3, 3))
        gx, _, _ = ops.conv2d_backward(x, w, np.ones((3, 4, 4)), padding=1)
        fd = ops.finite_diff_grad(
            lambda v: ops.conv2d(v, w, None, padding=1).sum(), x)
        assert ops.relative_error(gx, fd) < 1e-6

    def test_non_finite_reported_with_cell(self):
        def f(v):
            with np.errstate(divide="ignore", invalid="ignore"):
                return float(np.log(v).sum())
        with pytest.raises(ops.FiniteDiffError, match=r"cell \(0,\)$"):
            ops.finite_diff_grad(f, np.array([1.0, 0.0, 1.0]) * 1e-6)

    def test_listed_entries_probed_into_out(self):
        x = np.random.default_rng(20).standard_normal((2, 3))
        square = lambda v: float((v ** 2).sum())
        want = np.full(6, 7.0)
        want[[4, 1]] = ops.finite_diff_grad(square, x).ravel()[[4, 1]]
        out = np.full((2, 3), 7.0)
        g = ops.finite_diff_grad(square, x, entries=[4, 1], out=out)
        assert g is out and g.ravel().tobytes() == want.tobytes()

    def test_strided_x_and_out(self):
        # transposes are not C-contiguous: the probes must still reach x
        # in place, and the differences land in `out` at C-order entries
        x = np.arange(1.0, 13.0).reshape(3, 4).T
        square = lambda v: float((v ** 2).sum())
        assert_allclose(ops.finite_diff_grad(square, x), 2 * x, rtol=1e-8)
        out = np.full((3, 4), 7.0).T
        g = ops.finite_diff_grad(square, x, entries=[5, 0], out=out)
        want = np.full((4, 3), 7.0)
        want.flat[[5, 0]] = 2 * x.flat[[5, 0]]
        assert g is out
        assert_allclose(g, want, rtol=1e-8)
        assert x.tobytes() == np.arange(1.0, 13.0).reshape(3, 4).T.tobytes()


# ---------------------------------------------------------------------------
# bit-for-bit equality with the straightforward forms of each kernel
# ---------------------------------------------------------------------------

def two_mask_sigmoid(x):
    """1 / (1 + exp(-x)) where x >= 0 and exp(x) / (1 + exp(x)) elsewhere,
    each exp over its own masked subset."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def per_corner_grid_sample(plane, ys, xs):
    """Bilinear sampling one corner at a time, clamped with np.clip."""
    c, h, w = plane.shape
    ys = np.clip(ys, -2, h + 1)
    xs = np.clip(xs, -2, w + 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    ly = ys - y0
    lx = xs - x0
    out = np.zeros((c,) + ys.shape)
    for dy, dx, wt in ((0, 0, (1 - ly) * (1 - lx)), (0, 1, (1 - ly) * lx),
                       (1, 0, ly * (1 - lx)), (1, 1, ly * lx)):
        yy = y0 + dy
        xx = x0 + dx
        valid = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        vals = plane[:, np.clip(yy, 0, h - 1), np.clip(xx, 0, w - 1)]
        out += vals * (wt * valid)[None]
    return out


def per_corner_grid_sample_backward(plane, ys, xs, gout):
    c, h, w = plane.shape
    ys = np.clip(ys, -2, h + 1)
    xs = np.clip(xs, -2, w + 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    ly = ys - y0
    lx = xs - x0
    g_plane = np.zeros_like(plane)
    g_ys = np.zeros_like(ys)
    g_xs = np.zeros_like(xs)
    for dy, dx, wt, dwdy, dwdx in (
            (0, 0, (1 - ly) * (1 - lx), -(1 - lx), -(1 - ly)),
            (0, 1, (1 - ly) * lx, -lx, (1 - ly)),
            (1, 0, ly * (1 - lx), (1 - lx), -ly),
            (1, 1, ly * lx, lx, ly)):
        yy = y0 + dy
        xx = x0 + dx
        valid = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        yyc = np.clip(yy, 0, h - 1)
        xxc = np.clip(xx, 0, w - 1)
        vals = plane[:, yyc, xxc] * valid[None]
        idx = valid.nonzero()
        np.add.at(g_plane, (slice(None), yyc[idx], xxc[idx]),
                  (gout * (wt * valid)[None])[(slice(None),) + idx])
        gsum = (gout * vals).sum(axis=0)
        g_ys += gsum * dwdy
        g_xs += gsum * dwdx
    return g_plane, g_ys, g_xs


def stacked_window_max_pool(x, k):
    """The max over a stack of every k * k shifted view of the -inf-padded
    map, in row-major window order."""
    c, h, w = x.shape
    p = k // 2
    xp = np.full((c, h + 2 * p, w + 2 * p), -np.inf)
    xp[:, p: p + h, p: p + w] = x
    return np.stack([xp[:, u: u + h, v: v + w]
                     for u in range(k) for v in range(k)]).max(axis=0)


def per_tap_conv2d(x, weight, bias, stride, padding, groups):
    """conv2d summed tap by tap over contiguous copies of each window."""
    cin, h, w = x.shape
    cout, cg, kh, kw = weight.shape
    ho, wo = ops.conv2d_out_hw(h, w, kh, kw, stride, padding)
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    wg = weight.reshape(groups, cout // groups, cg, kh, kw)
    out = np.zeros((groups, cout // groups, ho, wo))
    for u in range(kh):
        for v in range(kw):
            patch = xp[:, u: u + stride * (ho - 1) + 1: stride,
                       v: v + stride * (wo - 1) + 1: stride]
            out += np.einsum("gchw,goc->gohw",
                             patch.reshape(groups, cg, ho, wo), wg[:, :, :, u, v])
    return out.reshape(cout, ho, wo) + bias[:, None, None]


def loop_im2col_conv2d_backward(x, weight, gy, stride, padding, groups):
    """conv2d_backward with its im2col buffer filled and its col2im drained
    one tap slice at a time."""
    cin, h, w = x.shape
    cout, cg, kh, kw = weight.shape
    ho, wo = gy.shape[1:]
    og = cout // groups
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    taps = [(u, v, slice(u, u + stride * (ho - 1) + 1, stride),
             slice(v, v + stride * (wo - 1) + 1, stride))
            for u in range(kh) for v in range(kw)]
    cols = np.empty((cin, kh, kw, ho, wo))
    for u, v, hsl, wsl in taps:
        cols[:, u, v] = xp[:, hsl, wsl]
    cols = cols.reshape(groups, cg * kh * kw, ho * wo)
    gyr = gy.reshape(groups, og, ho * wo)
    gw = np.matmul(gyr, cols.transpose(0, 2, 1))
    wg = weight.reshape(groups, og, cg * kh * kw)
    gcols = np.matmul(wg.transpose(0, 2, 1), gyr).reshape(cin, kh, kw, ho, wo)
    gxp = np.zeros(xp.shape)
    for u, v, hsl, wsl in taps:
        gxp[:, hsl, wsl] += gcols[:, u, v]
    gx = gxp[:, padding: padding + h, padding: padding + w]
    return gx, gw.reshape(weight.shape), gy.sum(axis=(1, 2))


def stacked_window_max_pool_backward(x, k, gy):
    """max_pool2d_backward over the np.stack of every k * k shifted view."""
    c, h, w = x.shape
    p = k // 2
    xp = np.full((c, h + 2 * p, w + 2 * p), -np.inf)
    xp[:, p: p + h, p: p + w] = x
    arg = np.stack([xp[:, u: u + h, v: v + w]
                    for u in range(k) for v in range(k)]).argmax(axis=0)
    ci, oy, ox = np.indices(x.shape)
    src_y, src_x = oy + arg // k - p, ox + arg % k - p
    valid = (src_y >= 0) & (src_y < h) & (src_x >= 0) & (src_x < w)
    gx = np.zeros_like(x)
    np.add.at(gx, (ci[valid], src_y[valid], src_x[valid]), gy[valid])
    return gx


SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0,
                     -745.0, 1e-300, -1e-300, 1.0, -1.0, 3.0, -3.0])


def sprinkled(rng, a, p):
    """A copy of a with a share p of its cells drawn from +-0, +-inf, +-NaN."""
    a = a.copy(order="K")
    cells = rng.random(a.shape) < p
    a[cells] = rng.choice(SPECIALS[:6], cells.sum())
    return a


class TestBitExact:
    def test_sigmoid_matches_two_mask_formula(self):
        rng = np.random.default_rng(21)
        for x in (SPECIALS, rng.standard_normal(1000) * 30.0,
                  rng.standard_normal((9, 5, 7)) * 4.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = ops.sigmoid(x)
            assert got.tobytes() == two_mask_sigmoid(x).tobytes()

    def test_hard_sigmoid_matches_clip(self):
        x = np.concatenate([SPECIALS, np.random.default_rng(22).normal(0, 2, 500)])
        want = np.clip((x + 1.0) * 0.5, 0.0, 1.0)
        assert ops.hard_sigmoid(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("c,h,w", [(1, 1, 1), (3, 3, 4), (2, 8, 8), (4, 5, 9),
                                       # 8 or more channels per cell
                                       (9, 4, 4), (16, 2, 2)])
    def test_grid_sample_matches_per_corner_loop(self, c, h, w):
        rng = np.random.default_rng(100 * h + w)
        plane = rng.standard_normal((w, h, c)).T  # not C-contiguous
        ys = rng.uniform(-3.0, h + 2.0, (9, h, w))
        xs = rng.uniform(-3.0, w + 2.0, (9, h, w))
        ys[:3], xs[2:5] = np.round(ys[:3]), np.round(xs[2:5])  # integer taps
        ys[5, 0, 0], xs[6, 0, 0], ys[7, 0, 0] = 1e300, -1e300, -1e300
        gout = rng.standard_normal((c,) + ys.shape)

        def check(pl, y, x, g):
            assert ops.grid_sample_zero(pl, y, x).tobytes() == \
                per_corner_grid_sample(pl, y, x).tobytes()
            for got, want in zip(ops.grid_sample_zero_backward(pl, y, x, g),
                                 per_corner_grid_sample_backward(pl, y, x, g)):
                assert got.tobytes() == want.tobytes()

        check(plane, ys, xs, gout)
        # the same plane and gout sprinkled with +-0, +-inf and NaN, and
        # coordinates that all fall off the grid, so nothing is scattered
        specials = [sprinkled(rng, a, 0.1) for a in (plane, gout)]
        off = rng.uniform(-9.0, -1.0, ys.shape)
        with np.errstate(invalid="ignore"):
            check(specials[0], ys, xs, specials[1])
            check(specials[0], off, xs, specials[1])

    def test_grid_sample_backward_channel_sums_in_order_at_any_size(self):
        # products of 256 KiB and more: numpy may compute gout * samples in
        # place into a channels-innermost temporary and then sum the
        # channels pairwise, which rounds the coordinate gradients otherwise
        rng = np.random.default_rng(31)
        plane = rng.standard_normal((8, 32, 32))
        ys = rng.uniform(-1.0, 32.0, (9, 32, 32))
        xs = rng.uniform(-1.0, 32.0, (9, 32, 32))
        gout = rng.standard_normal((8,) + ys.shape)
        for got, want in zip(ops.grid_sample_zero_backward(plane, ys, xs, gout),
                             per_corner_grid_sample_backward(plane, ys, xs, gout)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cin,cout,k,stride,padding,groups,hw", [
        pytest.param(*conv, (9, 7), id="-".join(map(str, conv))) for conv in (
            (3, 8, 3, 2, 1, 1), (8, 8, 3, 1, 1, 1), (8, 8, 3, 2, 1, 8),
            (6, 4, 1, 1, 0, 1), (8, 12, 3, 1, 1, 4), (4, 6, 5, 1, 2, 2))] + [
        # one output cell: 25 taps a pairwise sum would add in another order
        (4, 1, 5, 1, 0, 1, (5, 5)), (6, 2, 5, 2, 1, 2, (3, 4)),
        # all tap products just within TAP_BATCH_BYTES, then just over it
        (4, 16, 3, 1, 1, 1, (30, 30)), (4, 16, 3, 1, 1, 1, (31, 31)),
        # the stem's 16 x 64 x 64 output, far over it
        (3, 16, 3, 1, 1, 1, (64, 64))])
    def test_conv2d_matches_per_tap_copies(self, cin, cout, k, stride,
                                           padding, groups, hw):
        rng = np.random.default_rng(cin * cout + k)
        x = rng.standard_normal((cin, *hw))
        weight = rng.standard_normal((cout, cin // groups, k, k))
        bias = rng.standard_normal(cout)
        # the same weights on a map sprinkled with +-0, +-inf and NaN
        for inp in (x, sprinkled(rng, x, 0.05)):
            with np.errstate(invalid="ignore"):
                got = ops.conv2d(inp, weight, bias, stride, padding, groups)
                want = per_tap_conv2d(inp, weight, bias, stride, padding,
                                      groups)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k,stride", [(1, 1), (1, 2), (3, 1), (3, 2)])
    def test_conv2d_layout_independent(self, k, stride):
        # a transposed map, channels innermost, gives the bytes of its
        # C-contiguous copy; padding 0 hands conv2d the map itself
        rng = np.random.default_rng(10 * k + stride)
        for cin, cout, groups, hw in ((14, 4, 1, (3, 9)), (56, 52, 4, (7, 3)),
                                      (12, 16, 1, (8, 6)), (32, 20, 4, (11, 5)),
                                      (12, 26, 2, (9, 3)), (8, 8, 8, (5, 9))):
            x = rng.standard_normal((hw[1], hw[0], cin)).T
            weight = rng.standard_normal((cout, cin // groups, k, k))
            assert ops.conv2d(x, weight, None, stride, 0, groups).tobytes() \
                == ops.conv2d(x.copy(), weight, None, stride, 0,
                              groups).tobytes()

    @pytest.mark.parametrize("cin,cout,k,stride,padding,groups,hw", [
        (4, 6, 1, 2, 0, 1, (9, 7)), (6, 4, 1, 1, 0, 2, (8, 8)),
        (4, 6, 5, 1, 2, 2, (9, 7)), (8, 8, 5, 2, 2, 8, (6, 10)),
        (3, 8, 3, 2, 1, 1, (9, 7)), (8, 12, 3, 1, 1, 4, (5, 5)),
        # a single output row or column; on the 1 x 1 stride-2 ones an
        # im2col buffer left a strided view rounds gw differently
        (4, 6, 3, 1, 0, 1, (3, 8)), (4, 6, 3, 2, 1, 2, (8, 1)),
        (4, 8, 3, 1, 1, 1, (1, 1)), (7, 1, 1, 2, 0, 1, (2, 34)),
        (28, 4, 1, 2, 0, 4, (2, 24)), (14, 2, 1, 2, 0, 2, (1, 30))])
    def test_conv2d_backward_matches_loop_im2col(self, cin, cout, k, stride,
                                                 padding, groups, hw):
        rng = np.random.default_rng(cin * cout * k + stride + sum(hw))
        x = rng.standard_normal((cin, *hw))
        weight = rng.standard_normal((cout, cin // groups, k, k))
        gy = rng.standard_normal(
            (cout, *ops.conv2d_out_hw(*hw, k, k, stride, padding)))
        got = ops.conv2d_backward(x, weight, gy, stride, padding, groups)
        want = loop_im2col_conv2d_backward(x, weight, gy, stride, padding,
                                           groups)
        for name, g, r in zip(("gx", "gw", "gb"), got, want):
            assert g.shape == r.shape and g.tobytes() == r.tobytes(), name

    @pytest.mark.parametrize("k", [3, 5, 9, 13])
    def test_max_pool2d_backward_matches_stacked_windows(self, k):
        rng = np.random.default_rng(50 + k)
        for shape in ((2, 7, 9), (3, 16, 16), (1, 1, 20), (2, 19, 4)):
            gy = rng.standard_normal(shape)
            for x in (rng.choice(SPECIALS[:6], shape), rng.standard_normal(shape)):
                got = ops.max_pool2d_backward(x, k, gy)
                assert got.tobytes() == \
                    stacked_window_max_pool_backward(x, k, gy).tobytes()
            # a gy of +-0, +-inf and NaN cells, several routed to one cell
            gy = sprinkled(rng, gy, 0.3)
            x = rng.standard_normal(shape)
            with np.errstate(invalid="ignore"):
                assert ops.max_pool2d_backward(x, k, gy).tobytes() == \
                    stacked_window_max_pool_backward(x, k, gy).tobytes()

    @pytest.mark.parametrize("k", [3, 5, 9, 13])
    def test_max_pool2d_matches_stacked_windows(self, k):
        # maps mostly of +-0 tie in -0 / +0 in most windows; +-inf and NaN
        # in some, and one wider than a window, one narrower
        rng = np.random.default_rng(k)
        for shape in ((2, 7, 9), (3, 16, 16), (1, 1, 20), (2, 19, 4)):
            for x in (rng.choice(SPECIALS[:6], shape, p=[.4, .4, .05, .05, .05, .05]),
                      rng.choice(SPECIALS, shape),
                      rng.standard_normal(shape)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = ops.max_pool2d(x, k)
                assert got.tobytes() == stacked_window_max_pool(x, k).tobytes()

    def test_leaky_relu_matches_where_form(self):
        # forward and backward of the layer, with +-0, +-inf and NaN in
        # the input and in the incoming gradient
        rng = np.random.default_rng(23)
        for x in (SPECIALS, np.array([5e-324, -5e-324, 1e308, -1e308]),
                  rng.standard_normal(1001) * 10.0,
                  rng.standard_normal((4, 9, 7)),
                  sprinkled(rng, rng.standard_normal((3, 8, 8)), 0.3)):
            gy = sprinkled(rng, rng.standard_normal(x.shape), 0.3)
            act = LeakyReLU()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                y = act.forward(x)
                gx = act.backward(gy)
            assert y.tobytes() == np.where(x > 0, x, 0.1 * x).tobytes()
            assert gx.tobytes() == np.where(x > 0, gy, 0.1 * gy).tobytes()
