"""Mosaic / mixup augmentation: transform correctness, label-row
bookkeeping, and seeded determinism."""

import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tridet.augment import (LabeledImage, MosaicTransforms, hflip, mixup,
                            mosaic, mosaic_apply, rescale, rgb_shift,
                            rng_from_seed)


def label(cx, cy, w, h, class_id, weight=1.0):
    """One label row: cx, cy, w, h, class_id, weight."""
    return [cx, cy, w, h, class_id, weight]


def toy_image(seed=0, size=32, boxes=()):
    rng = np.random.default_rng(seed)
    return LabeledImage(rng.random((3, size, size)),
                        np.array(boxes, dtype=np.float64).reshape(-1, 6))


def corners(rows):
    cx, cy, w, h = rows[:, :4].T
    return cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2


class TestElementaryTransforms:
    def test_double_hflip_identity(self):
        img = toy_image(0, boxes=[label(10, 12, 6, 4, 1)])
        back = hflip(hflip(img))
        assert_allclose(back.pixels, img.pixels)
        assert back.boxes.tobytes() == img.boxes.tobytes()

    def test_hflip_mirrors_cx(self):
        img = toy_image(1, size=32, boxes=[label(10, 12, 6, 4, 0, 0.5)])
        out = hflip(img)
        assert out.boxes.tolist() == [[32 - 10, 12, 6, 4, 0, 0.5]]
        assert_allclose(out.pixels[:, :, 0], img.pixels[:, :, -1])

    def test_scale_one_identity(self):
        img = toy_image(2, boxes=[label(8, 8, 4, 4, 0)])
        out = rescale(img, 1.0)
        assert_allclose(out.pixels, img.pixels)
        assert out.boxes.tobytes() == img.boxes.tobytes()

    def test_rgb_shift_clamps(self):
        img = LabeledImage(np.full((3, 4, 4), 0.98))
        out = rgb_shift(img, (0.05, 0.05, 0.05))
        assert_allclose(out.pixels, 1.0)
        out = rgb_shift(LabeledImage(np.full((3, 4, 4), 0.02)),
                        (-0.05, -0.05, -0.05))
        assert_allclose(out.pixels, 0.0)

    def test_rescale_scales_boxes(self):
        img = toy_image(3, size=16, boxes=[label(8, 8, 4, 4, 1, 0.5)])
        out = rescale(img, 2.0)
        assert out.pixels.shape == (3, 32, 32)
        assert out.boxes.tolist() == [[16, 16, 8, 8, 1, 0.5]]

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
        imgs = [toy_image(s, size=32) for s in range(4)]
        imgs[0] = toy_image(0, size=32, boxes=[label(24.0, 26.0, 6.0, 4.0, 1,
                                                     0.25)])
        tf = MosaicTransforms((16.0, 16.0), (1.0,) * 4, (False,) * 4,
                              ((0.0, 0.0, 0.0),) * 4)
        out = mosaic_apply(imgs, 32, tf)
        # source offset: the crop drops 16 px in each direction; class and
        # weight ride along
        assert out.boxes.tolist() == [[24.0 - 16.0, 26.0 - 16.0, 6.0, 4.0,
                                       1, 0.25]]

    def test_determinism_under_equal_seeds(self):
        imgs = [toy_image(s, size=32, boxes=[label(16, 16, 10, 10, s)])
                for s in range(4)]
        a = mosaic(imgs, 32, rng_from_seed(123))
        b = mosaic(imgs, 32, rng_from_seed(123))
        assert (a.pixels == b.pixels).all()
        assert a.boxes.shape == b.boxes.shape
        assert a.boxes.tobytes() == b.boxes.tobytes()

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
                              boxes=[label(16, 16, 12, 12, 0)])
                    for s in range(4)]
            out = mosaic(imgs, 32, rng)
            assert out.boxes.shape[1] == 6
            x1, y1, x2, y2 = corners(out.boxes)
            assert ((0 <= x1) & (x1 <= x2) & (x2 <= 32)).all()
            assert ((0 <= y1) & (y1 <= y2) & (y2 <= 32)).all()
            assert (out.boxes[:, 2] * out.boxes[:, 3] >= 4.0).all()

    def test_pixel_range_preserved(self):
        imgs = [toy_image(s) for s in range(4)]
        out = mosaic(imgs, 32, rng_from_seed(5))
        assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0


class TestMixup:
    def test_lambda_one_keeps_first(self):
        a = toy_image(0, boxes=[label(8, 8, 5, 5, 0)])
        b = toy_image(1, boxes=[label(10, 10, 5, 5, 1)])
        out = mixup(a, b, 1.0)
        assert_allclose(out.pixels, a.pixels)
        assert out.boxes.tolist() == [[8, 8, 5, 5, 0, 1.0],
                                      [10, 10, 5, 5, 1, 0.0]]

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


class TestLabelRows:
    def test_mixup_scales_each_side_weight(self):
        a = toy_image(0, boxes=[label(8, 8, 5, 5, 0, 0.5)])
        b = toy_image(1, boxes=[label(10, 10, 5, 5, 1, 0.8),
                                label(4, 4, 2, 2, 0)])
        out = mixup(a, b, 0.3)
        assert out.boxes[:, :5].tolist() == [[8, 8, 5, 5, 0], [10, 10, 5, 5, 1],
                                             [4, 4, 2, 2, 0]]
        assert out.boxes[:, 5].tolist() == [0.5 * 0.3, 0.8 * (1.0 - 0.3),
                                            1.0 * (1.0 - 0.3)]

    def test_empty_labels_flow_through_every_transform(self):
        img = toy_image(5, size=16)
        assert img.boxes.shape == (0, 6)
        assert LabeledImage(img.pixels).boxes.shape == (0, 6)
        for out in (hflip(img), rescale(img, 1.5), rgb_shift(img, (0.1,) * 3),
                    mixup(img, img, 0.5), mosaic([img] * 4, 24,
                                                 rng_from_seed(2))):
            assert out.boxes.shape == (0, 6)
            assert out.boxes.dtype == np.float64

    def test_no_transform_changes_its_input_labels(self):
        rng = np.random.default_rng(4)
        imgs = [toy_image(s, size=24,
                          boxes=[label(*rng.uniform(-4, 28, 2),
                                       *rng.uniform(2, 20, 2), s % 2,
                                       rng.uniform())
                                 for _ in range(3)])
                for s in range(4)]
        before = [img.boxes.copy() for img in imgs]
        outs = [hflip(imgs[0]), rescale(imgs[1], 1.3),
                rgb_shift(imgs[2], (0.02, -0.01, 0.0)),
                mixup(imgs[0], imgs[3], 0.4),
                mosaic(imgs, 32, rng_from_seed(6), (0.25, 1.75)),
                mosaic_apply(imgs, 40, MosaicTransforms(
                    (20.0, 20.0), (1.0,) * 4, (False,) * 4,
                    ((0.0, 0.0, 0.0),) * 4))]
        for out in outs:
            # every output owns its rows, so editing it edits no input
            out.boxes[...] = -1.0
        for img, rows in zip(imgs, before):
            assert img.boxes.tobytes() == rows.tobytes()

    def test_mosaic_refuses_non_finite_label_fields(self):
        # refused where labels enter, with the loss's text and the row's
        # index in its image: the clip once turned each of these rows into
        # a box spanning its patch
        tf = MosaicTransforms((16.0, 16.0), (1.0,) * 4, (False,) * 4,
                              ((0.0, 0.0, 0.0),) * 4)
        ok = [label(-0.0, 8.0, 0.0, 6.0, 0), label(8.0, 8.0, 4.0, 4.0, 1)]
        for bad, why in (
                (label(math.nan, 8.0, 4.0, 4.0, 1), "cx nan is not finite"),
                (label(8.0, 8.0, math.nan, 4.0, 0), "w nan is not finite"),
                (label(math.inf, 8.0, math.inf, 4.0, 1),
                 "cx inf is not finite"),
                (label(8.0, -math.inf, 4.0, 0.0, 0), "cy -inf is not finite"),
                (label(8.0, 8.0, 4.0, 1e150, 0),
                 "h 1e+150 outside [-1e+08, 1e+08]")):
            imgs = [toy_image(s, size=16, boxes=ok) for s in range(4)]
            imgs[3] = toy_image(3, size=16, boxes=ok + [bad])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                text = re.escape(f"label row 2: {why}")
                with pytest.raises(ValueError, match=f"^{text}$"):
                    mosaic_apply(imgs, 32, tf)
        # the finite rows pass: a -0.0 centre of zero width is dropped
        imgs = [toy_image(s, size=16, boxes=ok) for s in range(4)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = mosaic_apply(imgs, 32, tf)
        want = np.array([[cx, cy, 4.0, 4.0, 1, 1.0]
                         for cy in (8.0, 24.0) for cx in (8.0, 24.0)])
        assert out.boxes.tobytes() == want.tobytes()
