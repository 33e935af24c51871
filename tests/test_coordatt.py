"""Coordinate attention: directional embedding, gate generation against a
straight-line op composition, application, and gradients."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tridet import ops
from tridet.coordatt import CoordAttention
from tridet.layers import init_params


def pooled(x):
    """The directional means (q_h, q_w) of x as CoordAttention.forward
    hands them to generate."""
    ca = CoordAttention(x.shape[0], 1)
    seen = []
    ca.generate = lambda *q: seen.append(q) or CoordAttention.generate(ca, *q)
    ca.forward(x)
    return seen[0]


def gates(ca, x):
    """(g_h, g_w) that ca applies to x."""
    ca.forward(x)
    return ca._cache[1], ca._cache[2]


class TestEmbed:
    def test_constant_input(self):
        x = np.full((2, 3, 4), 0.7)
        q_h, q_w = pooled(x)
        assert_allclose(q_h, 0.7)
        assert_allclose(q_w, 0.7)

    def test_row_dependent_input_gives_constant_qw(self):
        rows = np.arange(4.0)[None, :, None]
        x = np.broadcast_to(rows, (2, 4, 5)).copy()
        q_h, q_w = pooled(x)
        assert_allclose(q_w, np.broadcast_to(q_w[..., :1], q_w.shape))
        assert_allclose(q_h[0, :, 0], np.arange(4.0))

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4, 5))
        q_h, q_w = pooled(x)
        for c in range(3):
            for i in range(4):
                assert_allclose(q_h[c, i, 0], x[c, i, :].mean())
            for j in range(5):
                assert_allclose(q_w[c, 0, j], x[c, :, j].mean())


class TestGenerate:
    def test_zero_parameters_give_half_gates(self):
        ca = CoordAttention(8, 4)
        for p in ca.params():
            p.value[:] = 0.0
        x = np.random.default_rng(1).standard_normal((8, 3, 4))
        g_h, g_w = gates(ca, x)
        assert_allclose(g_h, 0.5)
        assert_allclose(g_w, 0.5)

    def test_gates_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(2)
        ca = init_params(CoordAttention(8, 4), rng)
        x = rng.standard_normal((8, 4, 4))
        g_h, g_w = gates(ca, x)
        for g in (g_h, g_w):
            assert (g > 0.0).all() and (g < 1.0).all()

    def test_matches_straight_line_composition(self):
        rng = np.random.default_rng(3)
        ca = init_params(CoordAttention(32, 16), rng)
        ca.squeeze_bn.scale.value = rng.uniform(0.5, 1.5, 2)
        ca.squeeze_bn.shift.value = rng.uniform(-0.5, 0.5, 2)
        ca.squeeze_bn.mean.value = rng.uniform(-0.5, 0.5, 2)
        ca.squeeze_bn.var.value = rng.uniform(0.5, 2.0, 2)
        x = rng.standard_normal((32, 4, 4))
        g_h, g_w = gates(ca, x)
        # independent reference built from tensor-core ops only
        q_h = x.mean(axis=2, keepdims=True)
        q_w = x.mean(axis=1, keepdims=True)
        stacked = np.concatenate([q_h, q_w.transpose(0, 2, 1)], axis=1)
        f = ops.conv2d(stacked, ca.squeeze.weight.value, ca.squeeze.bias.value)
        bn = ca.squeeze_bn
        f = (f - bn.mean.value[:, None, None]) \
            / np.sqrt(bn.var.value[:, None, None] + 1e-5) \
            * bn.scale.value[:, None, None] + bn.shift.value[:, None, None]
        f = np.maximum(f, 0.0)
        f_h, f_w = f[:, :4], f[:, 4:]
        zh = ops.conv2d(f_h, ca.expand_h.weight.value, ca.expand_h.bias.value)
        zw = ops.conv2d(f_w.transpose(0, 2, 1), ca.expand_w.weight.value,
                        ca.expand_w.bias.value)
        assert_allclose(g_h, 1 / (1 + np.exp(-zh)), atol=1e-12)
        assert_allclose(g_w, 1 / (1 + np.exp(-zw)), atol=1e-12)

    def test_ratio_must_divide(self):
        with pytest.raises(ops.ShapeError):
            CoordAttention(10, 4)


def with_gates(g_h, g_w):
    """A CoordAttention whose generate returns the given gates."""
    ca = CoordAttention(g_h.shape[0], 1)
    ca.generate = lambda q_h, q_w: (g_h, g_w, None)
    return ca


class TestApply:
    def test_unit_gates_identity(self):
        x = np.random.default_rng(4).standard_normal((3, 4, 4))
        ones_h = np.ones((3, 4, 1))
        ones_w = np.ones((3, 1, 4))
        assert_allclose(with_gates(ones_h, ones_w).forward(x), x)

    def test_half_gates_quarter(self):
        x = np.random.default_rng(5).standard_normal((3, 4, 4))
        ca = with_gates(np.full((3, 4, 1), 0.5), np.full((3, 1, 4), 0.5))
        assert_allclose(ca.forward(x), 0.25 * x)

    def test_strict_contraction_where_nonzero(self):
        rng = np.random.default_rng(6)
        ca = init_params(CoordAttention(4, 2), rng)
        x = rng.standard_normal((4, 3, 3))
        y = ca.forward(x)
        assert (np.abs(y) < np.abs(x))[x != 0].all()


class TestModule:
    def test_shape_preservation(self):
        rng = np.random.default_rng(7)
        for h, w in ((3, 4), (5, 5), (2, 7)):
            ca = init_params(CoordAttention(8, 4), rng)
            x = rng.standard_normal((8, h, w))
            assert ca.forward(x).shape == x.shape

    def test_zero_parameter_network_quarter(self):
        ca = CoordAttention(8, 4)
        for p in ca.params():
            p.value[:] = 0.0
        x = np.random.default_rng(8).standard_normal((8, 3, 4))
        assert_allclose(ca.forward(x), 0.25 * x)

    def test_rank1_gate_factorization(self):
        rng = np.random.default_rng(9)
        ca = init_params(CoordAttention(4, 2), rng)
        x = rng.standard_normal((4, 3, 5))
        y = ca.forward(x)
        g_h, g_w = ca._cache[1], ca._cache[2]
        with np.errstate(divide="ignore", invalid="ignore"):
            weight = np.where(x != 0, y / x, 0.0)
        expect = np.where(x != 0, g_h * g_w, 0.0)
        assert_allclose(weight, expect, atol=1e-12)

    def test_energy_contraction(self):
        rng = np.random.default_rng(10)
        ca = init_params(CoordAttention(8, 4), rng)
        for _ in range(5):
            x = rng.standard_normal((8, 4, 4))
            y = ca.forward(x)
            assert (y ** 2).sum() <= (x ** 2).sum()

    def test_gradcheck_input_and_parameters(self):
        rng = np.random.default_rng(11)
        ca = init_params(CoordAttention(4, 2), rng)
        ca.squeeze.bias.value = rng.uniform(0.1, 0.4, 2)
        x = rng.standard_normal((4, 3, 3))
        r = rng.standard_normal(x.shape)
        ca.zero_grad()
        ca.forward(x)
        gx = ca.backward(r)
        fd = ops.finite_diff_grad(
            lambda v: float((ca.forward(v) * r).sum()), x.copy())
        assert ops.relative_error(gx, fd) < 1e-5
        for p in (ca.squeeze.weight, ca.expand_h.weight, ca.expand_w.bias,
                  ca.squeeze_bn.scale, ca.squeeze_bn.shift):
            analytic = p.grad.copy()
            numeric = np.zeros_like(analytic)
            flat = p.value.reshape(-1)
            nflat = numeric.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + 1e-5
                fp = float((ca.forward(x) * r).sum())
                flat[i] = orig - 1e-5
                fm = float((ca.forward(x) * r).sum())
                flat[i] = orig
                nflat[i] = (fp - fm) / 2e-5
            assert ops.relative_error(analytic, numeric) < 1e-5
