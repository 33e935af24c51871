"""Initialization: constructors allocate zero weights, `Model`'s included,
and one walk, `init_params`, draws every Conv2d and Linear weight that is
not flagged zero_init."""

import dataclasses
import hashlib

import numpy as np
import pytest

from tridet.attention import ScaleAttention, TDAHead
from tridet.config import ModelConfig
from tridet.layers import BatchNorm2d, Conv2d, Linear, Param, init_params
from tridet.model import Model, build_model
from tridet.neck import Neck, ToyBackbone

# sha256 over (name, float64 little-endian bytes) of every named_params()
# entry of build_model at the default config of each variant, CSP off / on;
# recorded from the constructors that drew their own weights
PARAM_DIGESTS = {
    ("full", False): "eb23f7a3bac6dc6fe1f8d1c31c792a86259d1bfc30f58eec1077b71c80d5feec",
    ("full", True): "e6244eb111aabf261c3e0973134ee6841735141dc17209d343728380b59d37d4",
    ("tiny", False): "f098b6a962d6900119974f5aa05ac8702088ec8c838bd996e2771cc67f85091d",
    ("tiny", True): "10788c7b04d535aa247e1005a2831f0a299827c14ac4350b2e978046a35a4ead",
    ("nano", False): "37e56ed55666ad742d146ae773cfe464b5a70c6a9b501254be42d5d0916d3495",
    ("nano", True): "37374954770cf189b845c0a05c6c2d1605ac32fd49f7a9653f59c435995dadd7",
    ("x-toy", False): "2c8dca4fe99acbc2263561aaf91bc84bf0ef24e0901df7583789b3e0f6264e17",
    ("x-toy", True): "d5ef7b5c2fcaf1826acfa4baf97504fdb7a73ba3541b8abf4efe9562155919c2",
}


@pytest.mark.parametrize("variant,csp", list(PARAM_DIGESTS),
                         ids=[f"{v}-csp{int(c)}" for v, c in PARAM_DIGESTS])
def test_default_parameters_bit_identical(variant, csp):
    cfg = dataclasses.replace(ModelConfig.default(variant), csp_enabled=csp)
    digest = hashlib.sha256()
    for name, p in build_model(cfg).named_params():
        digest.update(name.encode())
        digest.update(p.value.astype("<f8").tobytes())
    assert digest.hexdigest() == PARAM_DIGESTS[variant, csp]


TREES = {
    "head": lambda: TDAHead(8, 2, 2, 3),
    "head-dw": lambda: TDAHead(8, 2, 2, 3, depthwise=True),
    "neck": lambda: Neck((16, 32, 64), 4, csp_enabled=False),
    "neck-csp-dw": lambda: Neck((16, 32, 64), 4, csp_enabled=True,
                                depthwise=True),
    "backbone-dw": lambda: ToyBackbone((16, 32, 64), depthwise=True),
    "model": lambda: Model(ModelConfig.default()),
}
# parameters the walk leaves as constructed, by the last parts of their path
KEPT_SUFFIXES = (".bias", "offset_pred.weight", "mod_pred.weight",
                 "fc2.weight", "tap_weights")


def _params_by_owner(layer):
    for path, module in layer.named_modules():
        for attr, p in vars(module).items():
            if isinstance(p, Param):
                yield f"{path}.{attr}" if path else attr, module, p


@pytest.mark.parametrize("build", TREES.values(), ids=list(TREES))
def test_weights_zero_until_walk_draws_them(build):
    layer = build()
    before = {name: p.value.copy() for name, _, p in _params_by_owner(layer)}
    drawn = set()
    for name, module, p in _params_by_owner(layer):
        kept = isinstance(module, (ScaleAttention, BatchNorm2d)) \
            or name.endswith(KEPT_SUFFIXES)
        if not kept:
            assert isinstance(module, (Conv2d, Linear)), name
            assert not p.value.any(), name
            drawn.add(name)
    assert drawn
    assert init_params(layer, np.random.default_rng(0)) is layer
    for name, _, p in _params_by_owner(layer):
        if name in drawn:
            bound = 1.0 / np.sqrt(np.prod(p.value.shape[1:]))
            assert p.value.all() and (np.abs(p.value) <= bound).all(), name
        else:
            assert p.value.tobytes() == before[name].tobytes(), name
