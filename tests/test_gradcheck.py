"""The gradient-check harness itself: `_check` must flag a wrong gradient
wherever it sits, not only in a single-input function, and a NaN error
must fail wherever errors are reduced."""

import math

import numpy as np
import pytest

from tridet import gradcheck, ops
from tridet.attention import ScaleAttention, TDAHead
from tridet.layers import Param
from tridet.postproc import diou_planes


class TestCheckFlagsWrongGradients:
    def test_second_input_of_a_kernel(self):
        for scale_gw, flagged in ((1.0, False), (1.01, True)):
            rng = np.random.default_rng(0)
            x = rng.standard_normal((2, 4, 4))
            w = rng.standard_normal((3, 2, 3, 3))

            def backward(r):
                gx, gw, _ = ops.conv2d_backward(x, w, r, padding=1)
                return gx, scale_gw * gw

            err = gradcheck._check(
                rng, lambda *xs: ops.conv2d(*xs, None, padding=1), backward,
                (x, w))
            assert (err > gradcheck.TOL_ELEMENTWISE) == flagged, scale_gw

    def test_one_parameter_of_a_layer(self):
        class WrongWeightGrad(ScaleAttention):
            def backward(self, gbase, gctx):
                gx = super().backward(gbase, gctx)
                self.weight.grad *= 1.01
                return gx

        for cls, flagged in ((ScaleAttention, False), (WrongWeightGrad, True)):
            rng = np.random.default_rng(1)
            layer = cls()
            layer.weight.value = rng.uniform(-0.3, 0.3, (2, 2))
            x = rng.standard_normal((3, 4, 5))
            # the default parameter list must reach `weight`
            err = gradcheck._check_layer(rng, layer, (x,))
            assert (err > gradcheck.TOL_ELEMENTWISE) == flagged, cls.__name__

    @pytest.mark.parametrize("path", [
        "conv3.bias", "blocks.0.scale.bias", "blocks.0.spatial.mod_pred.bias",
        "blocks.0.task.fc2.bias"])
    def test_every_parameter_of_the_tda_head(self, monkeypatch, path):
        class WrongGrad(TDAHead):
            def backward(self, graw):
                gx = super().backward(graw)
                dict(self.named_params())[path].grad *= 1.01
                return gx

        monkeypatch.setattr(gradcheck, "TDAHead", WrongGrad)
        err = gradcheck.check_tda_head(np.random.default_rng(0))
        assert err > gradcheck.TOL_COMPOSED

    def test_tda_head_at_a_seed_near_the_leaky_relu_kink(self):
        # a two-block head drawn first from this seed has one conv3 output
        # 1.3e-7 from the leaky-ReLU kink, where a walk of its conv3.weight
        # fails
        err = gradcheck.check_tda_head(np.random.default_rng(74))
        assert err < gradcheck.TOL_COMPOSED


class TestNanErrorsFail:
    def test_nan_parameter_grad_of_a_layer(self):
        class NanWeightGrad(ScaleAttention):
            def backward(self, gbase, gctx):
                gx = super().backward(gbase, gctx)
                self.weight.grad[0, 0] = np.nan
                return gx

        rng = np.random.default_rng(1)
        layer = NanWeightGrad()
        layer.weight.value = rng.uniform(-0.3, 0.3, (2, 2))
        # the input's error comes first and is finite
        err = gradcheck._check_layer(rng, layer, (rng.standard_normal((3, 4, 5)),))
        assert not err < gradcheck.TOL_ELEMENTWISE

    def test_nan_kernel_grad_fails_the_suite(self, monkeypatch):
        backward = ops.max_pool2d_backward
        monkeypatch.setattr(ops, "max_pool2d_backward",
                            lambda *a: backward(*a) * np.nan)
        results = {r.name: r for r in gradcheck.run_suite("tensor-core", 2)}
        assert not results["max_pool2d"].passed
        assert results["conv2d"].passed

    def test_nan_in_one_activation(self, monkeypatch):
        deriv = ops.hard_sigmoid_deriv
        monkeypatch.setattr(ops, "hard_sigmoid_deriv",
                            lambda x: deriv(x) * np.nan)
        err = gradcheck.check_activations(np.random.default_rng(0))
        assert not err < gradcheck.TOL_ELEMENTWISE

    def test_nan_in_one_diou_draw(self, monkeypatch):
        calls = []

        def second_draw_nan(p, q, grad=False):
            if not grad:
                return diou_planes(p, q)
            calls.append(None)
            v, g = diou_planes(p, q, grad)
            return v, g * (np.nan if len(calls) == 2 else 1.0)

        monkeypatch.setattr(gradcheck, "diou_planes", second_draw_nan)
        err = gradcheck.check_diou_grad(np.random.default_rng(0))
        assert len(calls) == 5
        assert not err < gradcheck.TOL_ELEMENTWISE

    def test_non_finite_parameter_probe_raises(self):
        # the loss turns infinite once the parameter's second entry moves:
        # its probe must stop there, not report the error of inf - inf
        p = Param(np.array([1.0, 2.0]))
        x = np.array([0.5])

        def forward(v):
            return v * (1.0 if p.value[1] == 2.0 else math.inf)

        rng = np.random.default_rng(0)
        assert gradcheck._check(rng, forward, lambda r: r, (x,)) < 1e-9
        with pytest.raises(ops.FiniteDiffError, match=r"cell \(1,\)"):
            gradcheck._check(rng, forward, lambda r: r, (x,), (p,))


class TestRunSuiteSeeds:
    @pytest.mark.parametrize("seeds", [0, -3])
    def test_no_seeds_refused(self, seeds):
        # zero seeds would reduce no errors and report a pass
        with pytest.raises(ValueError, match=f"at least 1 seed, got {seeds}"):
            gradcheck.run_suite("_corrupt", seeds)
