"""Triple-awareness head: the three attention components against their
oracles, and block composition, all on one C x H x W map."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tridet import ops
from tridet.attention import (BASE_OFFSETS, STENCIL_K, DynamicBlock,
                              ScaleAttention, SpatialAttention, TaskAttention,
                              TDAHead)
from tridet.layers import init_params


class TestScaleAttention:
    def test_zero_parameters_halve(self):
        x = np.random.default_rng(3).standard_normal((5, 3, 4))
        layer = ScaleAttention()
        layer.weight.value[:] = 0.0
        layer.bias.value[:] = 0.0
        base, ctx = layer.forward(x)
        assert_allclose(base, 0.5 * x)
        assert_allclose(ctx, 0.5 * x)

    def test_saturated_gates_identity(self):
        x = np.random.default_rng(4).standard_normal((5, 3, 4))
        layer = ScaleAttention()
        layer.weight.value = np.eye(2)
        layer.bias.value[:] = 50.0
        base, ctx = layer.forward(x)
        assert_allclose(base, x)
        assert_allclose(ctx, x)
        assert_allclose(layer.gates(x), 1.0)

    def test_matches_naive_loop_on_2x12x6(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 12, 6))
        layer = ScaleAttention()
        layer.weight.value = rng.uniform(-0.5, 0.5, (2, 2))
        layer.bias.value = rng.uniform(-0.5, 0.5, 2)
        base, ctx = layer.forward(x)
        # independent naive recomputation
        acc = 0.0
        for c in range(2):
            for i in range(12):
                for j in range(6):
                    acc += x[c, i, j]
        mean = acc / (2 * 12 * 6)
        gates = []
        for l in range(2):
            z = sum(layer.weight.value[l, m] * mean for m in range(2)) \
                + layer.bias.value[l]
            gates.append(max(0.0, min(1.0, (z + 1.0) / 2.0)))
        assert_allclose(base, gates[0] * x)
        assert_allclose(ctx, 0.5 * (gates[0] + gates[1]) * x)

    def test_gates_in_unit_interval(self):
        rng = np.random.default_rng(6)
        layer = ScaleAttention()
        layer.weight.value = rng.standard_normal((2, 2)) * 5
        layer.bias.value = rng.standard_normal(2) * 5
        for _ in range(10):
            g = layer.gates(rng.standard_normal((4, 2, 2)))
            assert (g >= 0.0).all() and (g <= 1.0).all()


class TestSpatialAttention:
    def test_default_parameters_identity(self):
        # zero offsets, unit modulation, delta-at-center taps
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 4, 4))
        layer = SpatialAttention(3)
        layer.mod_pred.bias.value[:] = 40.0   # sigmoid(40.0) == 1.0
        assert_allclose(layer.forward(x, x), x, atol=1e-12)
        # the context only steers offsets and modulations
        assert_allclose(layer.forward(x, rng.standard_normal(x.shape)), x,
                        atol=1e-12)

    def test_box_filter_equals_conv2d(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 8, 8))
        layer = SpatialAttention(4)
        layer.mod_pred.bias.value[:] = 40.0   # sigmoid(40.0) == 1.0
        layer.tap_weights.value[:] = 1.0 / 9.0
        got = layer.forward(x, x)
        kernel = np.zeros((4, 4, 3, 3))
        for c in range(4):
            kernel[c, c] = 1.0 / 9.0
        ref = ops.conv2d(x, kernel, None, padding=1)
        assert np.abs(got - ref).max() < 1e-10

    def test_constant_half_offset_samples_midpoint(self):
        patch = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        layer = SpatialAttention(1)
        layer.mod_pred.bias.value[:] = 40.0   # sigmoid(40.0) == 1.0
        layer.offset_pred.bias.value[2 * 4] = 0.5      # center tap dy
        layer.offset_pred.bias.value[2 * 4 + 1] = 0.5  # center tap dx
        got = layer.forward(patch, patch)
        assert_allclose(got[0, 0, 0], 2.5)

    def test_nonfinite_offsets_rejected(self):
        x = np.random.default_rng(9).standard_normal((2, 3, 3))
        layer = SpatialAttention(2)
        layer.offset_pred.bias.value[0] = np.nan
        with pytest.raises(ValueError):
            layer.forward(x, x)

    def test_stencil_layout(self):
        assert STENCIL_K == 9
        assert BASE_OFFSETS[4] == (0, 0)
        assert BASE_OFFSETS[0] == (-1, -1)


class TestTaskAttention:
    def test_default_coefficients_equal_relu(self):
        x = np.random.default_rng(10).standard_normal((4, 2, 4))
        out = TaskAttention(4).forward(x)
        assert (out == np.maximum(x, 0.0)).all()

    def test_identity_coefficients(self):
        x = np.random.default_rng(11).standard_normal((4, 2, 4))
        layer = TaskAttention(4)
        # t = 2 * hard_sigmoid(v) - 1 = (0, 0, 1, 0): a1 = a2 = 1, b1 = b2 = 0
        layer.fc2.weight.value[:] = 0.0
        layer.fc2.bias.value = np.array([0.0, 0.0, 1.0, 0.0])
        assert layer.coefficients(x)[0] == (1.0, 0.0, 1.0, 0.0)
        assert (layer.forward(x) == x).all()

    def test_output_dominates_both_branches(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 2, 4))
        layer = init_params(TaskAttention(4), rng)
        layer.fc2.weight.value = rng.uniform(-0.5, 0.5,
                                             layer.fc2.weight.value.shape)
        (a1, b1, a2, b2), _ = layer.coefficients(x)
        out = layer.forward(x)
        assert (out >= a1 * x + b1 - 1e-12).all()
        assert (out >= a2 * x + b2 - 1e-12).all()

    def test_coefficient_ranges(self):
        rng = np.random.default_rng(13)
        layer = init_params(TaskAttention(4, lambda_a=1.0, lambda_b=0.5),
                            rng)
        layer.fc2.weight.value = rng.standard_normal(
            layer.fc2.weight.value.shape) * 10
        for _ in range(10):
            (a1, b1, a2, b2), _ = layer.coefficients(
                rng.standard_normal((4, 2, 8)))
            assert 0.0 <= a1 <= 2.0
            assert -0.5 <= b1 <= 0.5
            assert -1.0 <= a2 <= 1.0
            assert -0.5 <= b2 <= 0.5

    def test_gradcheck_on_2x8x4(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 8, 4))
        layer = init_params(TaskAttention(2, reduction=2), rng)
        layer.fc2.weight.value = rng.uniform(-0.4, 0.4,
                                             layer.fc2.weight.value.shape)
        r = rng.standard_normal(x.shape)
        layer.forward(x)
        gin = layer.backward(r)
        fd = ops.finite_diff_grad(
            lambda v: float((layer.forward(v) * r).sum()), x.copy())
        assert ops.relative_error(gin, fd) < 1e-5


class TestDynamicBlock:
    def test_equals_explicit_composition(self):
        x = np.random.default_rng(15).standard_normal((4, 4, 4))
        blk = init_params(DynamicBlock(4), np.random.default_rng(99))
        direct = blk.forward(x.copy())
        step = blk.task.forward(blk.spatial.forward(
            *blk.scale.forward(x.copy())))
        assert_allclose(direct, step)

    def test_shape_preservation(self):
        rng = np.random.default_rng(16)
        for h, w, c in ((3, 5, 4), (4, 4, 8), (6, 3, 2)):
            x = rng.standard_normal((c, h, w))
            out = init_params(DynamicBlock(c),
                              np.random.default_rng(0)).forward(x)
            assert out.shape == x.shape


class TestTDAHead:
    def test_output_shape_and_channels(self):
        rng = np.random.default_rng(17)
        head = init_params(TDAHead(8, 2, 2, 3), rng)
        x = rng.standard_normal((8, 4, 4))
        raw = head.forward(x)
        assert raw.shape == (21, 4, 4)   # 3 * (5 + 2)

    def test_single_block_variant(self):
        head = init_params(TDAHead(8, 1, 2, 3), np.random.default_rng(18))
        assert len(head.blocks) == 1

    def test_invalid_block_count_rejected(self):
        with pytest.raises(ValueError):
            TDAHead(8, 3, 2, 3)

    def test_non_map_input_rejected(self):
        head = init_params(TDAHead(4, 1, 2, 1), np.random.default_rng(19))
        with pytest.raises(ops.ShapeError):
            head.forward(np.zeros((1, 4, 4, 4)))

    def test_zero_parameters_give_bias_map(self):
        head = init_params(TDAHead(4, 2, 2, 1), np.random.default_rng(20))
        for p in head.params():
            p.value[:] = 0.0
        bias = np.arange(7.0) * 0.1
        head.conv1.bias.value = bias.copy()
        raw = head.forward(np.random.default_rng(21).standard_normal((4, 4, 4)))
        for c in range(7):
            assert_allclose(raw[c], bias[c])
