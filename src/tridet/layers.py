"""Small stateful layers over the kernels in ops.py; Linear, LeakyReLU and
BatchNorm2d do their own arithmetic.

Each layer caches its forward inputs and accumulates parameter gradients
in backward(), torch-style but without any graph: composite modules wire
their own backward passes by hand.  A layer's Param attributes are its
parameters and its Layer attributes its children: one pre-order walk of
those attributes, Layer.named_modules(), gives every layer its dotted
path, and everything that counts, checkpoints or steps parameters uses it.
Construction draws no random numbers: weights start at zero until
init_params(layer, rng) draws them, in one walk of that tree.
"""

from __future__ import annotations

import math

import numpy as np

from . import ops


class Param:
    __slots__ = ("value", "grad", "trainable")

    def __init__(self, value, trainable=True):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros(self.value.shape)
        self.trainable = trainable


class Layer:
    """Base class; its children are Layer attributes and lists of Layers."""

    def named_modules(self, prefix=""):
        """This layer as `prefix`, then each child under its dotted path
        (`heads.0.blocks.1.spatial`), depth first in attribute order."""
        stack = [(prefix, self)]
        while stack:
            path, module = stack.pop()
            yield path, module
            dot = path + "." if path else ""
            # pushed last to first, so that the first child is popped first
            for name, value in reversed(vars(module).items()):
                if isinstance(value, Layer):
                    stack.append((dot + name, value))
                elif isinstance(value, list) and value \
                        and all(isinstance(v, Layer) for v in value):
                    stack += [(f"{dot}{name}.{i}", value[i])
                              for i in reversed(range(len(value)))]

    def named_params(self):
        for path, module in self.named_modules():
            for name, p in vars(module).items():
                if isinstance(p, Param):
                    yield (f"{path}.{name}" if path else name), p

    def params(self):
        return [p for _, p in self.named_params()]

    def zero_grad(self):
        for p in self.params():
            p.grad[...] = 0.0


class Conv2d(Layer):
    """k x k convolution with bias and "same" padding k // 2."""

    def __init__(self, in_c, out_c, k, *, stride=1, groups=1, zero_init=False):
        self.in_c = in_c
        self.out_c = out_c
        self.k = k
        self.stride = stride
        self.groups = groups
        self.zero_init = zero_init
        self.weight = Param(np.zeros((out_c, in_c // groups, k, k)))
        self.bias = Param(np.zeros(out_c))
        self._x = None

    def forward(self, x):
        self._x = np.asarray(x, dtype=np.float64)
        return ops.conv2d(self._x, self.weight.value, self.bias.value,
                          self.stride, self.k // 2, self.groups)

    def backward(self, gy):
        gx, gw, gb = ops.conv2d_backward(
            self._x, self.weight.value, gy, self.stride, self.k // 2,
            self.groups)
        self.weight.grad += gw
        self.bias.grad += gb
        return gx


class Linear(Layer):
    """y = W x + b for a vector x."""

    def __init__(self, in_d, out_d, *, zero_init=False):
        self.zero_init = zero_init
        self.weight = Param(np.zeros((out_d, in_d)))
        self.bias = Param(np.zeros(out_d))
        self._x = None

    def forward(self, x):
        self._x = np.asarray(x, dtype=np.float64)
        return self._x @ self.weight.value.T + self.bias.value

    def backward(self, gy):
        self.weight.grad += np.outer(gy, self._x)
        self.bias.grad += gy
        return gy @ self.weight.value


class LeakyReLU(Layer):
    """max(x, 0.1 x), slope 0.1 below zero."""

    def __init__(self):
        self._x = None

    def forward(self, x):
        self._x = np.asarray(x, dtype=np.float64)
        return np.maximum(self._x, 0.1 * self._x)

    def backward(self, gy):
        return gy * np.where(self._x > 0, 1.0, 0.1)


BN_EPS = 1e-5


class BatchNorm2d(Layer):
    """Inference-mode batchnorm, (x - mean) / sqrt(var + BN_EPS) * scale +
    shift per channel: the running statistics are fixed buffers, held
    constant in backward."""

    def __init__(self, c):
        self.scale = Param(np.ones(c))
        self.shift = Param(np.zeros(c))
        self.mean = Param(np.zeros(c), trainable=False)
        self.var = Param(np.ones(c), trainable=False)
        self._x = None

    def forward(self, x):
        self._x = np.asarray(x, dtype=np.float64)
        # var is read from weight files, an input boundary
        if (self.var.value < 0).any():
            raise ValueError("batchnorm got negative variance")
        inv = 1.0 / np.sqrt(self.var.value + BN_EPS)
        return (self._x - self.mean.value[:, None, None]) \
            * (self.scale.value * inv)[:, None, None] \
            + self.shift.value[:, None, None]

    def backward(self, gy):
        inv = 1.0 / np.sqrt(self.var.value + BN_EPS)
        xhat = (self._x - self.mean.value[:, None, None]) * inv[:, None, None]
        self.scale.grad += (gy * xhat).sum(axis=(1, 2))
        self.shift.grad += gy.sum(axis=(1, 2))
        return gy * (self.scale.value * inv)[:, None, None]


class UpsampleNearest2x(Layer):
    def forward(self, x):
        return np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)

    def backward(self, gy):
        c, h2, w2 = gy.shape
        return gy.reshape(c, h2 // 2, 2, w2 // 2, 2).sum(axis=(2, 4))


class Sequential(Layer):
    def __init__(self, *stages):
        self.stages = list(stages)

    def forward(self, x):
        for s in self.stages:
            x = s.forward(x)
        return x

    def backward(self, gy):
        for s in reversed(self.stages):
            gy = s.backward(gy)
        return gy


def conv_block(in_c, out_c, k, *, stride=1, depthwise=False):
    """Conv + leaky ReLU; spatial convs become depthwise+pointwise pairs
    when depthwise is set (the mobile variant)."""
    if depthwise and k > 1:
        stages = [
            Conv2d(in_c, in_c, k, stride=stride, groups=in_c),
            Conv2d(in_c, out_c, 1),
        ]
    else:
        stages = [Conv2d(in_c, out_c, k, stride=stride)]
    return Sequential(*stages, LeakyReLU())


def init_params(layer, rng):
    """Fills each Conv2d and Linear weight not flagged zero_init, in place,
    with U(-b, b) draws, b = 1 / sqrt(fan_in), in named_modules() order;
    every other parameter keeps its constructed value.  Returns the layer."""
    for _, module in layer.named_modules():
        if isinstance(module, (Conv2d, Linear)) and not module.zero_init:
            w = module.weight.value
            bound = 1.0 / math.sqrt(math.prod(w.shape[1:]))
            # rng.uniform(-bound, bound, w.shape) bit for bit, but in place
            rng.random(out=w)
            w *= 2.0 * bound
            w -= bound
    return layer


def sgd_step(params, lr):
    """One plain gradient-descent step over a list of trainable Params."""
    for p in params:
        p.value -= lr * p.grad
