"""Mosaic / mixup augmentation: transform correctness, box bookkeeping,
and seeded determinism."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tridet.augment import (BoxLabel, LabeledImage, MosaicTransforms, hflip,
                            mixup, mosaic, mosaic_apply, rescale, rgb_shift,
                            rng_from_seed)
from tridet.postproc import Box


def toy_image(seed=0, size=32, boxes=()):
    rng = np.random.default_rng(seed)
    return LabeledImage(rng.random((3, size, size)), list(boxes))


class TestElementaryTransforms:
    def test_double_hflip_identity(self):
        img = toy_image(0, boxes=[BoxLabel(Box(10, 12, 6, 4), 1)])
        back = hflip(hflip(img))
        assert_allclose(back.pixels, img.pixels)
        assert_allclose(back.boxes[0].box.cx, img.boxes[0].box.cx)

    def test_hflip_mirrors_cx(self):
        img = toy_image(1, size=32, boxes=[BoxLabel(Box(10, 12, 6, 4), 0)])
        out = hflip(img)
        assert out.boxes[0].box.cx == 32 - 10
        assert_allclose(out.pixels[:, :, 0], img.pixels[:, :, -1])

    def test_scale_one_identity(self):
        img = toy_image(2, boxes=[BoxLabel(Box(8, 8, 4, 4), 0)])
        out = rescale(img, 1.0)
        assert_allclose(out.pixels, img.pixels)
        assert_allclose(out.boxes[0].box.w, 4.0)

    def test_rgb_shift_clamps(self):
        img = LabeledImage(np.full((3, 4, 4), 0.98))
        out = rgb_shift(img, (0.05, 0.05, 0.05))
        assert_allclose(out.pixels, 1.0)
        out = rgb_shift(LabeledImage(np.full((3, 4, 4), 0.02)),
                        (-0.05, -0.05, -0.05))
        assert_allclose(out.pixels, 0.0)

    def test_rescale_scales_boxes(self):
        img = toy_image(3, size=16, boxes=[BoxLabel(Box(8, 8, 4, 4), 0)])
        out = rescale(img, 2.0)
        assert out.pixels.shape == (3, 32, 32)
        assert_allclose(out.boxes[0].box.w, 8.0)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            rescale(toy_image(4), 0.0)


class TestMosaic:
    def test_identity_transforms_give_exact_crops(self):
        imgs = [toy_image(s, size=32) for s in range(4)]
        tf = MosaicTransforms((16.0, 16.0), (1.0,) * 4, (False,) * 4,
                              ((0.0, 0.0, 0.0),) * 4)
        out = mosaic_apply(imgs, 32, tf)
        # top-left quadrant comes from the bottom-right of source 0
        assert_allclose(out.pixels[:, :16, :16], imgs[0].pixels[:, 16:, 16:])
        # top-right quadrant from the bottom-left of source 1
        assert_allclose(out.pixels[:, :16, 16:], imgs[1].pixels[:, 16:, :16])
        assert_allclose(out.pixels[:, 16:, :16], imgs[2].pixels[:, :16, 16:])
        assert_allclose(out.pixels[:, 16:, 16:], imgs[3].pixels[:, :16, :16])

    def test_box_fully_inside_quadrant_translates(self):
        box = BoxLabel(Box(24.0, 26.0, 6.0, 4.0), 1)
        imgs = [toy_image(s, size=32) for s in range(4)]
        imgs[0] = LabeledImage(imgs[0].pixels, [box])
        tf = MosaicTransforms((16.0, 16.0), (1.0,) * 4, (False,) * 4,
                              ((0.0, 0.0, 0.0),) * 4)
        out = mosaic_apply(imgs, 32, tf)
        assert len(out.boxes) == 1
        # source offset: the crop drops 16 px in each direction
        assert_allclose(out.boxes[0].box.cx, 24.0 - 16.0)
        assert_allclose(out.boxes[0].box.cy, 26.0 - 16.0)
        assert_allclose(out.boxes[0].box.w, 6.0)

    def test_determinism_under_equal_seeds(self):
        imgs = [toy_image(s, size=32,
                          boxes=[BoxLabel(Box(16, 16, 10, 10), s)])
                for s in range(4)]
        a = mosaic(imgs, 32, rng_from_seed(123))
        b = mosaic(imgs, 32, rng_from_seed(123))
        assert (a.pixels == b.pixels).all()
        assert a.boxes == b.boxes

    def test_requires_four_images(self):
        with pytest.raises(ValueError):
            mosaic([toy_image(0)] * 3, 32, rng_from_seed(0))

    def test_pixels_partition_into_source_colors(self):
        colors = [0.1, 0.3, 0.7, 0.9]
        imgs = [LabeledImage(np.full((3, 32, 32), c)) for c in colors]
        tf = MosaicTransforms((10.0, 20.0), (1.0,) * 4, (False,) * 4,
                              ((0.0, 0.0, 0.0),) * 4)
        out = mosaic_apply(imgs, 32, tf)
        seen = set(np.round(out.pixels, 6).ravel())
        assert seen <= set(colors) | {0.5}

    def test_boxes_inside_canvas_no_zero_area(self):
        rng = rng_from_seed(7)
        for trial in range(10):
            imgs = [toy_image(trial * 4 + s, size=32,
                              boxes=[BoxLabel(Box(16, 16, 12, 12), 0)])
                    for s in range(4)]
            out = mosaic(imgs, 32, rng)
            for b in out.boxes:
                x1, y1, x2, y2 = b.box.corners()
                assert 0 <= x1 <= x2 <= 32
                assert 0 <= y1 <= y2 <= 32
                assert b.box.area >= 4.0

    def test_pixel_range_preserved(self):
        imgs = [toy_image(s) for s in range(4)]
        out = mosaic(imgs, 32, rng_from_seed(5))
        assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0


class TestMixup:
    def test_lambda_one_keeps_first(self):
        a = toy_image(0, boxes=[BoxLabel(Box(8, 8, 5, 5), 0)])
        b = toy_image(1, boxes=[BoxLabel(Box(10, 10, 5, 5), 1)])
        out = mixup(a, b, 1.0)
        assert_allclose(out.pixels, a.pixels)
        weights = {x.class_id: x.weight for x in out.boxes}
        assert weights == {0: 1.0, 1: 0.0}

    def test_half_blend_of_black_and_white(self):
        black = LabeledImage(np.zeros((3, 8, 8)))
        white = LabeledImage(np.ones((3, 8, 8)))
        assert_allclose(mixup(black, white, 0.5).pixels, 0.5)

    def test_range_preserved_any_lambda(self):
        a, b = toy_image(2), toy_image(3)
        for lam in (0.0, 0.25, 0.7, 1.0):
            out = mixup(a, b, lam)
            assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0

    def test_extent_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mixup(toy_image(0, size=16), toy_image(1, size=32), 0.5)
