"""Equivalence of the detection head against recorded reference data.

`head_reference.npz` holds, for each head configuration in CASES, the raw
outputs, the input gradient and every parameter gradient of one forward /
backward pass, plus the default-seed checksum of every model variant.  It
was recorded from the head that ran on a level axis stacked from the input
map with itself (commit 8cc7f2f), so these tests pin the single-map head to
that behaviour: raw outputs bit for bit, gradients within 1e-12 relative.

Parameters are jittered off the exact ties of the default initialization
(integer sampling offsets, DY-ReLU at its ReLU coefficients), so the
gradients compared are two-sided ones.

Regenerate with `PYTHONPATH=src python tests/test_head_fixture.py`; it only
uses the public head and model constructors and `init_params`.
"""

from pathlib import Path

import numpy as np
import pytest

from tridet.attention import TDAHead
from tridet.config import ModelConfig
from tridet.layers import init_params
from tridet.model import build_model

FIXTURE = Path(__file__).with_name("head_reference.npz")
VARIANTS = ("full", "tiny", "nano", "x-toy")
# (name, channels, n_blocks, depthwise, H, W)
CASES = (
    ("plain1", 4, 1, False, 5, 7),
    ("plain2", 8, 2, False, 8, 8),
    ("dw1", 6, 1, True, 6, 4),
    ("dw2", 8, 2, True, 7, 8),
)


def run_case(channels, n_blocks, depthwise, h, w, seed):
    """One jittered forward / backward pass; returns the arrays to compare."""
    rng = np.random.default_rng(seed)
    head = init_params(TDAHead(channels, n_blocks, 2, 3, depthwise=depthwise),
                       rng)
    for _, p in sorted(head.named_params()):
        p.value = p.value + rng.normal(0.0, 0.05, p.value.shape)
    x = rng.standard_normal((channels, h, w))
    head.zero_grad()
    raw = head.forward(x.copy())
    graw = rng.standard_normal(raw.shape)
    out = {"raw": raw, "grad_input": head.backward(graw)}
    for name, p in head.named_params():
        out[f"grad.{name}"] = p.grad.copy()
    return out


def record():
    arrays = {}
    for seed, (case, *spec) in enumerate(CASES):
        for key, value in run_case(*spec, seed=seed).items():
            arrays[f"{case}/{key}"] = value
    for variant in VARIANTS:
        arrays[f"checksum/{variant}"] = np.array(
            build_model(ModelConfig.default(variant)).checksum())
    return arrays


@pytest.fixture(scope="module")
def reference():
    with np.load(FIXTURE) as data:
        return dict(data)


@pytest.mark.parametrize("seed,case", list(enumerate(CASES)),
                         ids=[c[0] for c in CASES])
def test_head_matches_reference(reference, seed, case):
    name, *spec = case
    got = run_case(*spec, seed=seed)
    ref = {k.split("/", 1)[1]: v for k, v in reference.items()
           if k.startswith(name + "/")}
    # same parameter names and shapes, so older weight files still load
    assert {k: v.shape for k, v in got.items()} == \
        {k: v.shape for k, v in ref.items()}
    assert np.array_equal(got["raw"], ref["raw"])
    for key in got:
        if key != "raw":
            err = np.abs(got[key] - ref[key]).max()
            assert err <= 1e-12 * np.abs(ref[key]).max(), key


@pytest.mark.parametrize("variant", VARIANTS)
def test_default_checksum_unchanged(reference, variant):
    model = build_model(ModelConfig.default(variant))
    assert model.checksum() == str(reference[f"checksum/{variant}"])


if __name__ == "__main__":
    np.savez_compressed(FIXTURE, **record())
    print(f"wrote {FIXTURE}")
