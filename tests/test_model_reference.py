"""Equivalence of the whole model against recorded reference data.

`model_reference.npz` holds, for each variant, one forward / backward pass
of the default-seed model with every parameter jittered by N(0, 0.05) on a
seeded 64x64 image: the raw outputs, the image gradient, the projection
<g, r> of each parameter gradient g on a seeded random direction r (and
<|g|, |r|>, the scale a rounding change in g moves it by), the parameter
names in walk order, and the jittered model's checksum.

The jitter matters: at default weights every offset and modulation head
is zero, so the sampler reads only integer coordinates and a changed
corner order, tap order or sigmoid branch leaves the `run` output alone.
Here offsets are fractional and gates off their ties, so raw outputs are
compared bit for bit; gradients are compared within 1e-12 relative.

It was recorded at commit d7593ec.  Regenerate with
`PYTHONPATH=src python tests/test_model_reference.py`, never in the same
change as an edit to a forward kernel.
"""

from pathlib import Path

import numpy as np
import pytest

from tridet.config import ModelConfig
from tridet.model import build_model

FIXTURE = Path(__file__).with_name("model_reference.npz")
VARIANTS = ("full", "tiny", "nano", "x-toy")
JITTER = 0.05
SIZE = 64


def jittered_model(variant, rng):
    """The default-seed model of `variant`, every parameter jittered."""
    model = build_model(ModelConfig.default(variant))
    for _, p in model.named_params():
        p.value = p.value + rng.normal(0.0, JITTER, p.value.shape)
    return model


def run_variant(variant, seed):
    """One jittered forward / backward pass; returns the arrays to compare."""
    rng = np.random.default_rng(seed)
    model = jittered_model(variant, rng)
    image = rng.uniform(0.0, 1.0, (3, SIZE, SIZE))
    raws = model.forward(image)
    model.zero_grad()
    grad_image = model.backward([rng.standard_normal(r.shape) for r in raws])
    names, proj, scale = [], [], []
    for name, p in model.named_params():
        r = rng.standard_normal(p.grad.shape)
        names.append(name)
        proj.append(np.vdot(p.grad, r))
        scale.append(np.vdot(np.abs(p.grad), np.abs(r)))
    out = {f"raw.{i}": raw for i, raw in enumerate(raws)}
    out.update(grad_image=grad_image, grad_proj=np.array(proj),
               grad_scale=np.array(scale), names=np.array(names),
               checksum=np.array(model.checksum()))
    return out


def record():
    arrays = {}
    for seed, variant in enumerate(VARIANTS):
        for key, value in run_variant(variant, seed).items():
            arrays[f"{variant}/{key}"] = value
    return arrays


@pytest.fixture(scope="module")
def reference():
    with np.load(FIXTURE) as data:
        return dict(data)


@pytest.mark.parametrize("seed,variant", list(enumerate(VARIANTS)),
                         ids=VARIANTS)
def test_model_matches_reference(reference, seed, variant):
    got = run_variant(variant, seed)
    ref = {k.split("/", 1)[1]: v for k, v in reference.items()
           if k.startswith(variant + "/")}
    assert sorted(got) == sorted(ref)
    assert got["names"].tolist() == ref["names"].tolist()
    assert str(got["checksum"]) == str(ref["checksum"])
    for key in got:
        if key.startswith("raw."):
            assert got[key].shape == ref[key].shape, key
            assert got[key].tobytes() == ref[key].tobytes(), key
    err = np.abs(got["grad_image"] - ref["grad_image"]).max()
    assert err <= 1e-12 * np.abs(ref["grad_image"]).max()
    # each projection within 1e-12 of the sum it is rounded from
    for key in ("grad_proj", "grad_scale"):
        err = np.abs(got[key] - ref[key])
        bad = np.flatnonzero(err > 1e-12 * ref["grad_scale"])
        assert bad.size == 0, [(key, got["names"][i]) for i in bad[:5]]


if __name__ == "__main__":
    np.savez_compressed(FIXTURE, **record())
    print(f"wrote {FIXTURE}")
