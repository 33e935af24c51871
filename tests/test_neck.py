"""Backbone stub, spatial pyramid pooling, CSP substitution, and the
fusion neck's shape/stride/parameter contracts."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tridet import ops
from tridet.neck import (CSPLayer, CspSppBlock, Neck, SPP, SppBlock,
                         ThreeConvBlock, ToyBackbone, count_params)
from tridet.layers import Conv2d, Layer, init_params


class TestToyBackbone:
    def test_stride_arithmetic(self):
        bb = init_params(ToyBackbone((16, 32, 64)), np.random.default_rng(0))
        c3, c4, c5 = bb.forward(np.random.default_rng(1).random((3, 64, 64)))
        assert c3.shape == (16, 8, 8)
        assert c4.shape == (32, 4, 4)
        assert c5.shape == (64, 2, 2)

    def test_zero_weights_zero_features(self):
        bb = ToyBackbone((16, 32, 64))
        for p in bb.params():
            p.value[:] = 0.0
        c3, _, c5 = bb.forward(np.random.default_rng(2).random((3, 64, 64)))
        assert_allclose(c3, 0.0)
        assert_allclose(c5, 0.0)

    def test_indivisible_extents_rejected(self):
        bb = ToyBackbone((16, 32, 64))
        with pytest.raises(ops.ShapeError):
            bb.forward(np.zeros((3, 60, 64)))

    def test_param_count_closed_form(self):
        widths = (16, 32, 64)
        bb = init_params(ToyBackbone(widths), np.random.default_rng(3))
        chain = [(3, 8), (8, 16), (16, 16), (16, 32), (32, 64)]
        expect = sum(co * ci * 9 + co for ci, co in chain)
        assert count_params(bb)[1] == expect


class TestSPP:
    def test_channel_multiplication(self):
        spp = SPP()
        y = spp.forward(np.zeros((8, 4, 4)))
        assert y.shape == (32, 4, 4)

    def test_constant_preserved(self):
        spp = SPP()
        y = spp.forward(np.full((2, 6, 6), 1.25))
        assert_allclose(y, 1.25)

    def test_branches_match_max_pool_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 8, 8))
        y = SPP().forward(x)
        parts = np.split(y, 4)
        assert_allclose(parts[0], x)
        for k, part in zip((5, 9, 13), parts[1:]):
            assert_allclose(part, ops.max_pool2d(x, k))


class TestCSPLayer:
    def test_shape_preservation(self):
        rng = np.random.default_rng(5)
        layer = init_params(CSPLayer(16, 8), rng)
        y = layer.forward(rng.standard_normal((16, 6, 6)))
        assert y.shape == (8, 6, 6)

    def test_positional_generator_rejected(self):
        # a generator left over from when constructors took one must not
        # land in `depthwise`, where it is truthy and builds the nano form
        with pytest.raises(TypeError):
            CSPLayer(16, 8, np.random.default_rng(0))

    def test_matches_composed_conv_activation_oracle(self):
        # every conv block is one convolution and a leaky ReLU, so
        # composing the two kernels block by block reproduces the layer
        rng = np.random.default_rng(6)
        layer = init_params(CSPLayer(8, 8), rng)
        x = rng.standard_normal((8, 5, 5))
        y = layer.forward(x)

        def block(seq, z):
            assert len(seq.stages) == 2
            conv = seq.stages[0]
            z = ops.conv2d(z, conv.weight.value, conv.bias.value,
                           stride=conv.stride, padding=conv.k // 2,
                           groups=conv.groups)
            return np.maximum(z, 0.1 * z)

        a = block(layer.branch_a, x)
        b = block(layer.branch_b, x)
        for seq in layer.inner.stages:
            b = block(seq, b)
        merged = block(layer.merge, np.concatenate([a, b], axis=0))
        assert_allclose(y, merged, atol=1e-12)

    @pytest.mark.parametrize("width", [32, 64, 128, 256])
    def test_fewer_params_than_three_conv_block(self, width):
        rng = np.random.default_rng(7)
        csp = init_params(CSPLayer(2 * width, width), rng)
        plain = init_params(ThreeConvBlock(2 * width, width), rng)
        assert count_params(csp)[1] < count_params(plain)[1]

    def test_spp_block_substitution_reduces_params(self):
        rng = np.random.default_rng(8)
        plain = init_params(SppBlock(64, 32), rng)
        csp = init_params(CspSppBlock(64, 32), rng)
        assert count_params(csp)[1] < count_params(plain)[1]


class TestNeck:
    def _fp(self, rng, widths=(16, 32, 64)):
        return (rng.standard_normal((widths[0], 8, 8)),
                rng.standard_normal((widths[1], 4, 4)),
                rng.standard_normal((widths[2], 2, 2)))

    def test_output_strides_preserved(self):
        rng = np.random.default_rng(9)
        neck = init_params(Neck((16, 32, 64), ca_ratio=4), rng)
        p3, p4, p5 = neck.forward(*self._fp(rng))
        assert p3.shape == (8, 8, 8)
        assert p4.shape == (16, 4, 4)
        assert p5.shape == (32, 2, 2)

    def test_upsample_doubles_extents(self):
        from tridet.layers import UpsampleNearest2x
        x = np.arange(4.0).reshape(1, 2, 2)
        y = UpsampleNearest2x().forward(x)
        assert y.shape == (1, 4, 4)
        assert_allclose(y[0, :2, :2], x[0, 0, 0])

    def test_csp_toggle_reduces_params_same_shapes(self):
        rng = np.random.default_rng(10)
        plain = init_params(Neck((16, 32, 64), 4, csp_enabled=False),
                            np.random.default_rng(0))
        csp = init_params(Neck((16, 32, 64), 4, csp_enabled=True),
                          np.random.default_rng(0))
        assert count_params(csp)[1] < count_params(plain)[1]
        fp = self._fp(rng)
        out_a = plain.forward(*fp)
        out_b = csp.forward(*fp)
        for a, b in zip(out_a, out_b):
            assert a.shape == b.shape

    def test_deterministic_forward(self):
        rng = np.random.default_rng(11)
        neck = init_params(Neck((16, 32, 64), 4), np.random.default_rng(1))
        fp = self._fp(rng)
        a = neck.forward(*fp)
        b = neck.forward(*fp)
        assert (a[0] == b[0]).all() and (a[2] == b[2]).all()

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        neck = init_params(Neck((4, 8, 16), ca_ratio=2),
                           np.random.default_rng(2))
        c3 = rng.standard_normal((4, 4, 4))
        c4 = rng.standard_normal((8, 2, 2))
        c5 = rng.standard_normal((16, 1, 1))
        r3 = rng.standard_normal((2, 4, 4))
        r4 = rng.standard_normal((4, 2, 2))
        r5 = rng.standard_normal((8, 1, 1))

        def loss(a3, a4, a5):
            p3, p4, p5 = neck.forward(a3, a4, a5)
            return float((p3 * r3).sum() + (p4 * r4).sum() + (p5 * r5).sum())

        loss(c3, c4, c5)
        neck.zero_grad()
        g3, g4, g5 = neck.backward(r3.copy(), r4.copy(), r5.copy())
        fd3 = ops.finite_diff_grad(lambda v: loss(v, c4, c5), c3.copy())
        assert ops.relative_error(g3, fd3) < 1e-4
        fd5 = ops.finite_diff_grad(lambda v: loss(c3, c4, v), c5.copy())
        assert ops.relative_error(g5, fd5) < 1e-4


class TestCountParams:
    def test_single_conv_closed_form(self):
        class Wrap(Layer):
            def __init__(self):
                self.conv = init_params(Conv2d(8, 8, 1), np.random.default_rng(0))

        table, total = count_params(Wrap())
        assert total == 8 * 8 + 8 == 72
        assert table == {"conv": 72}

    def test_empty_model(self):
        class Empty(Layer):
            def __init__(self):
                self.nothing = None

        assert count_params(Empty()) == ({}, 0)

    def test_paper_width_csp_delta_positive(self):
        plain = init_params(Neck((256, 512, 1024), 16, csp_enabled=False),
                            np.random.default_rng(0))
        csp = init_params(Neck((256, 512, 1024), 16, csp_enabled=True),
                          np.random.default_rng(0))
        assert count_params(plain)[1] - count_params(csp)[1] > 0
