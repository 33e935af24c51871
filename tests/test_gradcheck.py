"""The gradient-check harness itself: `_check` must flag a wrong gradient
wherever it sits, not only in a single-input function."""

import numpy as np

from tridet import gradcheck, ops
from tridet.attention import ScaleAttention


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
