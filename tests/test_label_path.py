"""The label path from the synthetic scene through augmentation to the
loss, pinned bit for bit: labels are float64 rows `cx, cy, w, h, class_id,
weight`, and these figures were recorded when labels were still one
object per box."""

import hashlib

import numpy as np
import pytest

from tridet.augment import LabeledImage, MosaicTransforms, mosaic_apply
from tridet.config import ModelConfig
from tridet.model import build_model
from tridet.train import train_toy, training_sample

# sha256 over (row count, float64 little-endian rows) of the
# `training_sample` labels at seeds 0-7, per variant at its default config
SAMPLE_DIGESTS = {
    "full": "52ebe8ac18ddc51de7f1cb0147b4547a31bc6851cbe5452169e88144824815d7",
    "tiny": "52ebe8ac18ddc51de7f1cb0147b4547a31bc6851cbe5452169e88144824815d7",
    "nano": "e59703756e0efed344789b809683ca96b81b1c5800270f3ac6ac76e79a28c195",
    "x-toy": "5210111e1b52a14f1d2a4071398e20b7d1aa81c19501622a815ae8186872f193",
}
# the step-0 `detection_loss` total of `train_toy` at seed 0, from the
# default-seed weights of each variant
FIRST_LOSS = {
    "full": "0x1.0527c45f20015p+2",
    "tiny": "0x1.0528be22633dfp+2",
    "nano": "0x1.5c7597f1b3732p+3",
    "x-toy": "0x1.5d13ef9bc294bp+2",
}
EDGE_MOSAIC_DIGEST = \
    "2081c3cec0cffab4c7d9bc4fc67b26762ec37431170d5f0edde9113ded6f7b9d"


@pytest.mark.parametrize("variant", list(SAMPLE_DIGESTS))
def test_training_sample_labels_bit_identical(variant):
    cfg = ModelConfig.default(variant)
    digest = hashlib.sha256()
    for seed in range(8):
        rows = training_sample(cfg, seed).boxes
        assert rows.dtype == np.float64 and rows.shape[1:] == (6,)
        digest.update(str(len(rows)).encode())
        digest.update(rows.astype("<f8").tobytes())
    assert digest.hexdigest() == SAMPLE_DIGESTS[variant]


@pytest.mark.parametrize("variant", list(FIRST_LOSS))
def test_first_step_loss_bit_identical(variant):
    cfg = ModelConfig.default(variant)
    curve = train_toy(build_model(cfg), cfg, 0, 0)
    assert float(curve[0]).hex() == FIRST_LOSS[variant]


def test_edge_mosaic_labels_bit_identical():
    # boxes across every source edge, one larger than its image, one that
    # the clips leave below MIN_BOX_AREA, and integral corners; scales that
    # crop and pad, flips, and a centre off the middle of the canvas
    rows = [[[2.0, 16.0, 10.0, 6.0, 0, 1.0], [30.5, 29.0, 9.0, 12.0, 1, 0.5],
             [16.0, 16.0, 40.0, 40.0, 1, 1.0]],
            [[16.0, 1.0, 8.0, 8.0, 0, 1.0], [12.0, 12.0, 8.0, 8.0, 1, 0.25]],
            [[31.0, 16.0, 3.0, 3.0, 0, 1.0], [8.25, 20.75, 6.5, 14.5, 1, 1.0]],
            [[0.0, 0.0, 12.0, 12.0, 1, 1.0], [24.0, 8.0, 16.0, 4.0, 0, 0.75]]]
    rng = np.random.default_rng(3)
    imgs = [LabeledImage(rng.random((3, 32, 32)), np.array(r)) for r in rows]
    tf = MosaicTransforms((21.0, 14.0), (1.3, 0.7, 1.0, 1.55),
                          (True, False, False, True),
                          ((0.01, -0.02, 0.0), (0.0,) * 3, (0.0,) * 3,
                           (-0.01, 0.0, 0.03)))
    out = mosaic_apply(imgs, 40, tf).boxes
    assert out.shape == (5, 6)
    assert hashlib.sha256(out.astype("<f8").tobytes()).hexdigest() == \
        EDGE_MOSAIC_DIGEST
