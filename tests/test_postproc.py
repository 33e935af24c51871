"""Box geometry, distance-aware NMS against a brute-force oracle, focal
loss and label smoothing reductions, decoding, and the composite loss."""

import math
import re
import warnings
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tridet import ops
from tridet.config import ModelConfig
from tridet.model import build_model
from tridet.postproc import (NMS_TILE, P_CLAMP, _check_labels,
                             assign_targets, box_planes, clamp_stats,
                             decode_predictions, detection_loss, diou,
                             diou_nms, diou_planes, focal_loss,
                             focal_loss_grad_p, format_detection,
                             label_smooth)
from tridet.train import train_toy


class Box(namedtuple("Box", "cx cy w h")):
    """A test box: four named numbers, which `diou` reads as a sequence."""

    def corners(self):
        return (self.cx - self.w / 2, self.cy - self.h / 2,
                self.cx + self.w / 2, self.cy + self.h / 2)

    @classmethod
    def from_corners(cls, x1, y1, x2, y2):
        return cls((x1 + x2) / 2, (y1 + y2) / 2, x2 - x1, y2 - y1)

    @property
    def area(self):
        return self.w * self.h


def labels(*pairs):
    """Label rows [N, 6] from (box, class_id) pairs, each of weight 1."""
    return np.array([[*box, cid, 1.0] for box, cid in pairs]).reshape(-1, 6)


def random_box(rng, span=10.0):
    return Box(float(rng.uniform(0, span)), float(rng.uniform(0, span)),
               float(rng.uniform(0.5, span / 2)), float(rng.uniform(0.5, span / 2)))


def det(box, class_id, score):
    """One detection row: cx, cy, w, h, class_id, score."""
    return [box.cx, box.cy, box.w, box.h, class_id, score]


def row_box(row):
    return Box(*row[:4].tolist())


def scalar_iou(a, b):
    """IoU of two boxes in plain Python floats: an independent reference."""
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    if union <= 0:
        return 0.0
    return inter / union


def scalar_diou(a, b):
    """`scalar_iou` minus rho2 / c2 where c2 > 0, squaring with `**`."""
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    cw = max(ax2, bx2) - min(ax1, bx1)
    ch = max(ay2, by2) - min(ay1, by1)
    c2 = cw * cw + ch * ch
    if c2 <= 0:
        return scalar_iou(a, b)
    return scalar_iou(a, b) - ((a.cx - b.cx) ** 2 + (a.cy - b.cy) ** 2) / c2


def kernel_grad(a, b):
    """d diou(a, b) / d (cx, cy, w, h) of a, from `diou_planes`."""
    p, q = (box_planes([x.cx, x.cy, x.w, x.h]) for x in (a, b))
    return diou_planes(p, q, grad=True)[1]


def brute_force_nms(rows, threshold):
    """Indices of the rows a greedy pass over `diou`, pair by pair, keeps,
    in rank order: descending score, NaN scores last, then input index."""
    def rank(i):
        score = rows[i, 5]
        return (math.isnan(score), 0.0 if math.isnan(score) else -score, i)

    kept = []
    for i in sorted(range(len(rows)), key=rank):
        if all(rows[j, 4] != rows[i, 4]
               or diou(row_box(rows[j]), row_box(rows[i])) <= threshold
               for j in kept):
            kept.append(i)
    return kept


def assert_nms_matches_oracle(rows, threshold):
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 6)
    got = diou_nms(rows, threshold)
    assert got.tobytes() == rows[brute_force_nms(rows, threshold)].tobytes()


def loop_decode(raw, anchors, stride, conf_threshold, num_classes):
    """The per-cell decode loop that decode_predictions must reproduce."""
    r = np.asarray(raw, dtype=np.float64).reshape(
        len(anchors), 5 + num_classes, *np.shape(raw)[1:])
    h, w = r.shape[2:]
    rows = []
    for a, (aw, ah) in enumerate(anchors):
        obj = ops.sigmoid(r[a, 4])
        cls = ops.sigmoid(r[a, 5:])
        for i in range(h):
            for j in range(w):
                cid = int(cls[:, i, j].argmax())
                score = float(obj[i, j] * cls[cid, i, j])
                if score <= conf_threshold:
                    continue
                cx = (float(ops.sigmoid(r[a, 0, i, j])) + j) * stride
                cy = (float(ops.sigmoid(r[a, 1, i, j])) + i) * stride
                bw = aw * math.exp(float(r[a, 2, i, j]))
                bh = ah * math.exp(float(r[a, 3, i, j]))
                rows.append([cx, cy, bw, bh, cid, score])
    return np.array(rows, dtype=np.float64).reshape(-1, 6)


def encode_box(box, anchor, stride, cell_ij):
    """Inverse of the decode transform for one assigned anchor/cell."""
    i, j = cell_ij
    sx = box.cx / stride - j
    sy = box.cy / stride - i
    assert 0.0 < sx < 1.0 and 0.0 < sy < 1.0, f"center not in cell {cell_ij}"
    return (math.log(sx / (1.0 - sx)), math.log(sy / (1.0 - sy)),
            math.log(box.w / anchor[0]), math.log(box.h / anchor[1]))


# integer values make scores tie exactly, boxes coincide and extents vanish
_coord = st.one_of(st.integers(0, 8).map(float), st.floats(0.0, 64.0))
_extent = st.one_of(st.integers(0, 6).map(float), st.floats(0.0, 20.0))
_score = st.one_of(st.integers(1, 4).map(lambda v: v / 4), st.floats(0.0, 1.0))


@st.composite
def detection_lists(draw):
    classes = st.integers(0, draw(st.integers(0, 2)))
    n = draw(st.integers(0, 100))
    rows = draw(st.lists(st.tuples(_coord, _coord, _extent, _extent, classes,
                                   _score), min_size=n, max_size=n))
    # exact copies of drawn boxes; two zero-extent copies have c2 == 0
    if rows:
        copies = st.tuples(st.integers(0, len(rows) - 1), classes, _score)
        n = draw(st.integers(0, 50))
        rows += [rows[i][:4] + (c, p) for i, c, p in
                 draw(st.lists(copies, min_size=n, max_size=n))]
    return np.array(rows, dtype=np.float64).reshape(-1, 6)


class TestIoU:
    """The IoU part of the kernel, through `diou`."""

    def test_identical(self):
        b = Box(2, 3, 4, 5)
        assert diou(b, b) == 1.0 == scalar_iou(b, b)

    def test_disjoint(self):
        # IoU exactly 0, so DIoU is minus rho2 / c2 = 200 / 242
        a, b = Box(0, 0, 1, 1), Box(10, 10, 1, 1)
        assert diou(a, b) == -(200.0 / 242.0)
        assert scalar_iou(a, b) == 0.0

    def test_hand_geometry(self):
        a = Box.from_corners(0, 0, 2, 2)
        b = Box.from_corners(1, 1, 3, 3)
        assert_allclose(diou(a, b), 1.0 / 7.0 - 2.0 / 18.0)
        assert_allclose(scalar_iou(a, b), 1.0 / 7.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b = random_box(rng), random_box(rng)
            assert diou(a, b) == diou(b, a)
            assert scalar_iou(a, b) == scalar_iou(b, a)


class TestDIoU:
    def test_identical(self):
        b = Box(1, 1, 2, 2)
        assert diou(b, b) == 1.0

    def test_concentric_equals_iou(self):
        a = Box(5, 5, 2, 2)
        b = Box(5, 5, 6, 6)
        assert_allclose(diou(a, b), scalar_iou(a, b), atol=1e-15)

    def test_diagonal_disjoint_unit_boxes(self):
        a = Box.from_corners(0, 0, 1, 1)
        b = Box.from_corners(1, 1, 2, 2)
        assert_allclose(diou(a, b), -0.25, atol=1e-15)

    def test_never_exceeds_iou(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = random_box(rng), random_box(rng)
            assert diou(a, b) <= scalar_iou(a, b) + 1e-12

    def test_matches_scalar_reference(self):
        # random boxes, and small integer ones that touch, coincide, nest
        # and have zero extents; `**` may round one ulp off `x * x`
        rng = np.random.default_rng(3)
        boxes = [random_box(rng) for _ in range(1000)]
        boxes += [Box(*map(float, rng.integers(0, 5, 4))) for _ in range(1000)]
        a, b = boxes[::2] + boxes[1::2], boxes[1::2] + boxes[::2]
        p, q = (box_planes(np.array([[x.cx, x.cy, x.w, x.h] for x in xs]).T)
                for xs in (a, b))
        got = diou_planes(p, q)
        want = [scalar_diou(x, y) for x, y in zip(a, b)]
        assert_allclose(got, want, rtol=0, atol=1e-12)
        assert got.tolist() == [diou(x, y) for x, y in zip(a, b)]

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b = random_box(rng), random_box(rng)
            g = kernel_grad(a, b)
            v = np.array([a.cx, a.cy, a.w, a.h])
            fd = ops.finite_diff_grad(
                lambda p: diou(Box(p[0], p[1], p[2], p[3]), b), v)
            assert ops.relative_error(g, fd) < 1e-6


class TestDIoUNMS:
    def test_single_kept(self):
        d = det(Box(1, 1, 2, 2), 0, 0.5)
        assert diou_nms([d]).tolist() == [d]

    def test_identical_boxes_keep_higher_score(self):
        a = det(Box(1, 1, 2, 2), 0, 0.9)
        b = det(Box(1, 1, 2, 2), 0, 0.8)
        assert diou_nms([b, a], 0.5).tolist() == [a]

    def test_cross_class_not_suppressed(self):
        a = det(Box(1, 1, 2, 2), 0, 0.9)
        b = det(Box(1, 1, 2, 2), 1, 0.8)
        assert len(diou_nms([a, b], 0.5)) == 2

    def test_matches_brute_force_oracle(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            dets = [det(random_box(rng), int(rng.integers(0, 3)),
                        float(rng.uniform(0, 1)))
                    for _ in range(50)]
            assert_nms_matches_oracle(dets, 0.45)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(detection_lists(), st.sampled_from([-0.3, 0.0, 0.3, 0.45, 0.9]))
    def test_property_matches_brute_force_oracle(self, dets, threshold):
        assert_nms_matches_oracle(dets, threshold)

    def test_degenerate_boxes(self):
        point = Box(2.0, 2.0, 0.0, 0.0)   # c2 == 0 against itself
        line = Box(2.0, 2.0, 0.0, 4.0)    # zero width: IoU 0 against itself
        dets = [det(point, 0, 0.5), det(point, 0, 0.5),
                det(line, 1, 0.5), det(line, 1, 0.7)]
        assert_nms_matches_oracle(dets, 0.0)
        assert diou_nms(dets, -0.5).tolist() == [dets[3], dets[0]]

    @pytest.mark.parametrize("cx", [12.55403779917204, 11.59867016807235])
    def test_threshold_at_diou_rounding_edge(self, cx):
        # (a.cx - b.cx) ** 2 here differs by one ulp from the product that
        # the kernel squares with, so the `**` reference lands elsewhere; a
        # threshold at the kernel's DIoU keeps b, one ulp below drops it
        a, b = Box(10.0, 10.0, 4.0, 4.0), Box(cx, 10.0, 4.0, 4.0)
        dx, cw = a.cx - b.cx, (b.cx + 2.0) - 8.0
        threshold = scalar_iou(a, b) - (dx * dx) / (cw * cw + 4.0 * 4.0)
        assert threshold == diou(a, b) != scalar_diou(a, b)
        dets = np.array([det(a, 0, 0.9), det(b, 0, 0.8)])
        for t, kept in ((threshold, 2), (np.nextafter(threshold, -np.inf), 1)):
            assert len(diou_nms(dets, t)) == kept
            assert len(brute_force_nms(dets, t)) == kept
            assert_nms_matches_oracle(dets, t)

    def test_chain_across_blocks_keeps_every_other_box(self):
        # neighbours 0.5 apart have DIoU 0.58, boxes 1.0 apart 0.30: box
        # 2i + 1 falls to box 2i only, so a dropped row that still drops
        # rows would take box 2i + 2 with it, across three tile boundaries
        n = 3 * NMS_TILE + 1
        dets = np.array([det(Box(0.5 * i, 0.0, 2.0, 2.0), 0, 1.0 - i / n)
                         for i in range(n)])
        assert diou(row_box(dets[0]), row_box(dets[1])) > 0.45
        assert diou(row_box(dets[0]), row_box(dets[2])) <= 0.45
        shuffled = dets[np.random.default_rng(0).permutation(n)]
        assert diou_nms(shuffled, 0.45).tobytes() == dets[::2].tobytes()

    # sizes inside one tile, and around one and two tiles
    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 33, NMS_TILE - 1, NMS_TILE,
                                   NMS_TILE + 1, 2 * NMS_TILE + 1])
    @pytest.mark.parametrize("threshold", [0.0, 0.45, 0.9])
    def test_one_class_at_block_sizes(self, n, threshold):
        for seed in range(5):
            rng = np.random.default_rng([n, seed])
            dets = [det(random_box(rng, 20.0), 0,
                        float(rng.choice([0.5, rng.uniform(0, 1)])))
                    for _ in range(n - n // 3)]
            # exact copies, some with the same score
            for i in rng.integers(0, len(dets), n // 3):
                dets.append(dets[i][:5]
                            + [float(rng.choice([dets[i][5], 0.7]))])
            assert_nms_matches_oracle(dets, threshold)

    @pytest.mark.parametrize("threshold", [0.0, 1e-12])
    def test_touching_boxes_do_not_suppress(self, threshold):
        # unit squares edge to edge (iw == 0 exactly) and corner to corner
        # (iw == ih == 0), a zero-width line along shared edges, a point on
        # a shared corner and a zero-width line through a square's centre
        # (DIoU exactly 0): IoU 0, so DIoU <= 0, and only the copy of the
        # centre square falls
        boxes = [Box.from_corners(x, y, x + 1.0, y + 1.0)
                 for x in range(3) for y in range(3)]
        boxes += [Box.from_corners(1.0, 0.0, 1.0, 3.0), Box(2.0, 2.0, 0.0, 0.0),
                  Box(0.5, 0.5, 0.0, 1.0), Box(1.5, 1.5, 1.0, 1.0)]
        dets = np.array([det(b, 0, 0.9 - 0.01 * i) for i, b in enumerate(boxes)])
        shuffled = dets[np.random.default_rng(1).permutation(13)]
        assert diou_nms(shuffled, threshold).tobytes() == dets[:-1].tobytes()
        assert_nms_matches_oracle(shuffled, threshold)

    @pytest.mark.parametrize("threshold", [0.0, 0.45, 0.9])
    def test_dense_field_across_tiles(self, threshold):
        # a jittered 10 x 9 grid of about 2 x 2 boxes 1.5 apart, each with a
        # near copy, in random score order: about three tiles of one class
        rng = np.random.default_rng(9)
        boxes = [Box(1.5 * x + rng.uniform(-0.2, 0.2),
                     1.5 * y + rng.uniform(-0.2, 0.2),
                     rng.uniform(1.5, 2.5), rng.uniform(1.5, 2.5))
                 for x in range(10) for y in range(9)]
        boxes += [Box(b.cx + 0.02, b.cy - 0.01, 1.01 * b.w, b.h) for b in boxes]
        dets = np.array([det(b, 0, float(p))
                         for b, p in zip(boxes, rng.permutation(len(boxes)))])
        kept = brute_force_nms(dets, threshold)
        assert diou_nms(dets, threshold).tobytes() == dets[kept].tobytes()
        # some box falls to a kept box in another tile
        tile = np.empty(len(dets), dtype=int)
        tile[np.argsort(-dets[:, 5], kind="stable")] = \
            np.arange(len(dets)) // NMS_TILE
        assert any(tile[k] != tile[d] and dets[k, 5] > dets[d, 5]
                   and diou(row_box(dets[k]), row_box(dets[d])) > threshold
                   for k in kept for d in range(len(dets)) if d not in kept)

    @pytest.mark.parametrize("threshold", [0.45, 0.0, -0.3, math.nan])
    def test_non_finite_boxes_match_oracle(self, threshold):
        # such a pair takes every later row, whatever its corners
        rng = np.random.default_rng(5)
        with np.errstate(invalid="ignore", over="ignore"):
            for _ in range(40):
                n = int(rng.integers(1, 30))
                fields = rng.uniform(0, 8, (n, 4))
                bad = rng.uniform(size=(n, 4)) < 0.08
                fields[bad] = rng.choice([np.nan, np.inf, -np.inf], bad.sum())
                dets = [det(Box(*map(float, f)), int(rng.integers(0, 2)),
                            float(rng.uniform())) for f in fields]
                assert_nms_matches_oracle(dets, threshold)

    def test_non_finite_boxes_follow_the_kernel(self):
        # a NaN field fails `union > 0` and `c2 > 0`: DIoU 0 against any
        # box, so a NaN box suppresses nothing and falls to nothing at a
        # threshold >= 0; an infinite center gives inf / inf, a NaN DIoU,
        # which drops the later box at any threshold
        box = Box(1.0, 1.0, 2.0, 2.0)

        def kept(a, b, threshold):
            pair = np.array([det(a, 0, 0.9), det(b, 0, 0.8)])
            got = diou_nms(pair, threshold)
            assert got.tobytes() == pair[:len(got)].tobytes()
            return len(got)

        with np.errstate(invalid="ignore"):
            for field in range(4):
                bad = Box(*[math.nan if k == field else v for k, v in
                            enumerate((1.0, 1.0, 2.0, 2.0))])
                assert diou(bad, box) == diou(box, bad) == 0.0
                for a, b in ((bad, box), (box, bad)):
                    counts = [kept(a, b, t) for t in (0.45, 0.0, -0.3)]
                    assert counts == [2, 2, 1]
            far = Box(math.inf, 1.0, 2.0, 2.0)
            assert math.isnan(diou(far, box)) and math.isnan(diou(box, far))
            for a, b in ((far, box), (box, far)):
                assert [kept(a, b, t) for t in (0.45, 1.0)] == [1, 1]

    def test_nan_scores_rank_last_by_index(self):
        # disjoint boxes, so every row is kept and the output is the rank
        nan = math.nan
        scores = [0.3, nan, 0.9, nan, 0.3, 0.5, nan]
        dets = np.array([det(Box(10.0 * i, 0.0, 2.0, 2.0), i % 2, p)
                         for i, p in enumerate(scores)])
        got = diou_nms(dets, 0.45)
        assert got.tobytes() == dets[[2, 5, 0, 4, 1, 3, 6]].tobytes()
        # and with overlaps: a NaN-score row falls to any kept row of its
        # class, and keeps later NaN-score rows out
        rng = np.random.default_rng(11)
        for _ in range(50):
            dets = np.array([det(random_box(rng), int(rng.integers(0, 2)),
                                 float(rng.choice([nan, rng.uniform()])))
                             for _ in range(int(rng.integers(1, 40)))])
            assert_nms_matches_oracle(dets, 0.45)

    def test_nan_score_map_through_decode_and_nms(self):
        # zero logits: boxes 8 x 8 at stride 8 touch but never overlap, so
        # NMS keeps every row; NaN objectness logits give NaN scores
        anchors = ((8.0, 8.0),)
        raw = np.zeros((7, 3, 3))
        raw[4, [0, 1, 2], [2, 1, 0]] = np.nan
        rows = decode_predictions(raw, anchors, 8, 0.2, 2)
        assert len(rows) == 9
        nan_rows = np.isnan(rows[:, 5])
        assert nan_rows.tolist() == [False, False, True, False, True,
                                     False, True, False, False]
        got = diou_nms(rows, 0.45)
        assert got.tobytes() == np.concatenate(
            [rows[~nan_rows], rows[nan_rows]]).tobytes()
        assert_nms_matches_oracle(rows, 0.45)

    def test_subset_order_idempotent(self):
        rng = np.random.default_rng(3)
        dets = np.array([det(random_box(rng), int(rng.integers(0, 2)),
                             float(rng.uniform(0, 1))) for _ in range(30)])
        kept = diou_nms(dets)
        assert all(k.tolist() in dets.tolist() for k in kept)
        scores = kept[:, 5].tolist()
        assert scores == sorted(scores, reverse=True)
        assert diou_nms(kept).tobytes() == kept.tobytes()


class TestFocalLoss:
    def test_gamma0_alpha1_is_cross_entropy(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(0.05, 0.95, 32)
        y = rng.integers(0, 2, 32).astype(float)
        fl = focal_loss(p, y, alpha=1.0, gamma=0.0)
        # alpha_t = 1 for positives; negatives need 1 - alpha = 1, so
        # evaluate positives and negatives with their own alpha setting
        ce_pos = -np.log(p)
        assert np.abs((fl - ce_pos)[y == 1]).max() < 1e-12
        fl_neg = focal_loss(p, y, alpha=0.0, gamma=0.0)
        ce_neg = -np.log(1 - p)
        assert np.abs((fl_neg - ce_neg)[y == 0]).max() < 1e-12

    def test_perfect_prediction_near_zero(self):
        assert focal_loss(np.array(1.0), np.array(1.0)) < 1e-5

    def test_known_scalar_value(self):
        v = focal_loss(np.array(0.5), np.array(1.0), alpha=0.25, gamma=2.0)
        assert_allclose(v, 0.25 * 0.25 * (-math.log(0.5)), atol=1e-12)
        assert_allclose(v, 0.043321, atol=1e-6)

    def test_nonnegative_and_monotone(self):
        p = np.linspace(0.01, 0.99, 50)
        losses = focal_loss(p, np.ones_like(p))
        assert (losses >= 0).all()
        assert (np.diff(losses) <= 0).all()

    def test_clamp_counted(self):
        from tridet.postproc import clamp_stats
        before = clamp_stats.count
        focal_loss(np.array([1.5, 0.5, -0.2]), np.array([1.0, 1.0, 0.0]))
        assert clamp_stats.count - before == 2

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0.05, 0.95, 16)
        y = rng.integers(0, 2, 16).astype(float)
        g = focal_loss_grad_p(p, y)
        fd = ops.finite_diff_grad(lambda v: float(focal_loss(v, y).sum()), p)
        assert ops.relative_error(g, fd) < 1e-6

    def test_matches_clip_formulas_bit_for_bit(self):
        # the loss and its derivative each written out over np.clip
        rng = np.random.default_rng(6)
        p = np.concatenate([[np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0,
                             1e-8, 1e-7, 1.0 - 1e-9, 1.5, -0.2],
                            rng.uniform(0.0, 1.0, 200)])
        y = rng.uniform(0.0, 1.0, p.size)
        for alpha, gamma in ((0.25, 2.0), (0.7, 0.0), (0.5, 1.5)):
            c = np.clip(p, P_CLAMP, 1.0 - P_CLAMP)
            loss = (y * (-alpha * np.power(1.0 - c, gamma) * np.log(c))
                    + (1.0 - y) * (-(1.0 - alpha) * np.power(c, gamma)
                                   * np.log(1.0 - c)))
            dpos = alpha * (gamma * np.power(1.0 - c, gamma - 1.0) * np.log(c)
                            - np.power(1.0 - c, gamma) / c)
            dneg = (1.0 - alpha) * (-gamma * np.power(c, gamma - 1.0)
                                    * np.log(1.0 - c)
                                    + np.power(c, gamma) / (1.0 - c))
            grad = np.where(p == c, y * dpos + (1.0 - y) * dneg, 0.0)
            before = clamp_stats.count
            assert focal_loss(p, y, alpha, gamma).tobytes() == loss.tobytes()
            assert clamp_stats.count - before == int((c != p).sum()) == 11
            assert focal_loss_grad_p(p, y, alpha, gamma).tobytes() == grad.tobytes()
            assert clamp_stats.count - before == 11

    def test_train_toy_clamp_count_pinned(self):
        # lr = 5 drives some objectness logits far enough to be clamped;
        # 200 is the count recorded before the loss shared its clamp
        cfg = ModelConfig.default("full")
        before = clamp_stats.count
        train_toy(build_model(cfg), cfg, 3, 0, lr=5.0)
        assert clamp_stats.count - before == 200


class TestLabelSmooth:
    def test_eps_zero_unchanged(self):
        v = np.array([1.0, 0.0, 0.0])
        assert_allclose(label_smooth(v, 0.0), v)

    def test_k2_formula(self):
        assert_allclose(label_smooth(np.array([1.0, 0.0]), 0.1), [0.95, 0.05])

    @pytest.mark.parametrize("k", [2, 20, 80])
    def test_mass_and_argmax_preserved(self, k):
        onehot = np.zeros(k)
        onehot[k // 2] = 1.0
        sm = label_smooth(onehot, 0.1)
        assert abs(sm.sum() - 1.0) < 1e-12
        assert sm.argmax() == k // 2

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            label_smooth(np.array([1.0, 0.0]), 1.0)


class TestDecode:
    ANCHORS = ((8.0, 8.0), (16.0, 12.0))

    def test_zero_logits_center_convention(self):
        raw = np.zeros((2 * 7, 2, 2))
        dets = decode_predictions(raw, self.ANCHORS, 8, -0.1, 2)
        cell00 = (dets[:, 0] == 4.0) & (dets[:, 1] == 4.0)
        assert cell00.any()  # (sigmoid(0) + 0) * 8 = 4
        assert (dets[:, 5] == 0.25).all()

    def test_tw_zero_gives_anchor_extent(self):
        raw = np.zeros((2 * 7, 1, 1))
        dets = decode_predictions(raw, self.ANCHORS, 32, -0.1, 2)
        assert set(dets[:, 2].tolist()) == {8.0, 16.0}

    def test_zero_weights_emit_nothing_at_default_threshold(self):
        raw = np.zeros((2 * 7, 4, 4))
        assert decode_predictions(raw, self.ANCHORS, 8, 0.25, 2).shape == (0, 6)

    def test_count_matches_naive_scan(self):
        rng = np.random.default_rng(6)
        raw = rng.standard_normal((2 * 7, 3, 3))
        dets = decode_predictions(raw, self.ANCHORS, 8, 0.25, 2)
        count = 0
        r = raw.reshape(2, 7, 3, 3)
        for a in range(2):
            for i in range(3):
                for j in range(3):
                    obj = 1 / (1 + math.exp(-r[a, 4, i, j]))
                    cls = max(1 / (1 + math.exp(-r[a, 5 + c, i, j]))
                              for c in range(2))
                    if obj * cls > 0.25:
                        count += 1
        assert len(dets) == count

    def test_score_at_threshold_dropped_and_tie_takes_first_class(self):
        raw = np.zeros((7, 1, 2))
        raw[4, 0, 1] = 1.0   # cell 1: score sigmoid(1) / 2, cell 0: 0.25
        dets = decode_predictions(raw, self.ANCHORS[:1], 8, 0.25, 2)
        assert len(dets) == 1
        assert dets[0, 4] == 0 and dets[0, 0] == 12.0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4),
           st.integers(1, 4), st.data())
    def test_matches_per_cell_loop(self, n_anchors, nc, h, w, data):
        shape = (n_anchors * (5 + nc), h, w)
        # integer logits tie class scores and repeat cell scores
        logits = st.one_of(st.integers(-3, 3).map(float), st.floats(-8.0, 8.0))
        size = int(np.prod(shape))
        raw = np.array(data.draw(st.lists(logits, min_size=size,
                                          max_size=size))).reshape(shape)
        anchors = ((8.0, 8.0), (16.0, 12.0), (12.0, 16.0))[:n_anchors]
        scores = loop_decode(raw, anchors, 16, -1.0, nc)[:, 5].tolist()
        # a threshold equal to an attained score, or any in [0, 1]
        threshold = data.draw(st.one_of(st.sampled_from(scores),
                                        st.floats(0.0, 1.0)))
        got = decode_predictions(raw, anchors, 16, threshold, nc)
        ref = loop_decode(raw, anchors, 16, threshold, nc)
        assert got.dtype == np.float64 and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    def test_overflow_names_first_candidate_and_logit(self):
        # candidates in (anchor, row, column) order: exp(700) is finite,
        # anchor 1 cell (0, 1) overflows in its height beside a NaN width,
        # and a later candidate overflows too
        r = np.zeros((2, 7, 2, 2))
        r[0, 2, 1, 1] = 700.0
        r[1, 2:4, 0, 1] = np.nan, 800.0
        r[1, 2, 1, 0] = 900.0
        with pytest.raises(ValueError) as exc:
            decode_predictions(r.reshape(14, 2, 2), self.ANCHORS, 8, -0.1, 2)
        assert str(exc.value) == ("extent logit 800.0 at stride 8, anchor 1, "
                                  "cell (0, 1) overflows exp")

    def test_overflow_of_exp_times_anchor_names_first_candidate(self):
        # exp(708) is finite and 8 * exp(708) is not: anchor 0 cell (1, 0)
        # overflows in its height after an infinite width logit (passed
        # through) and 8 * exp(705) (finite), and before an exp overflow
        r = np.zeros((2, 7, 2, 2))
        r[0, 2, 0, 0] = np.inf
        r[0, 2, 0, 1] = 705.0
        r[0, 2:4, 1, 0] = 705.0, 708.0
        r[1, 3, 0, 0] = 800.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                decode_predictions(r.reshape(14, 2, 2), self.ANCHORS, 8, -0.1, 2)
            assert str(exc.value) == ("extent logit 708.0 at stride 8, "
                                      "anchor 0, cell (1, 0) overflows exp")
            r[0, 3, 1, 0] = r[1, 3, 0, 0] = 0.0
            rows = decode_predictions(r.reshape(14, 2, 2), self.ANCHORS, 8,
                                      -0.1, 2)
        assert rows[0, 2] == np.inf and rows[1, 2] == 8 * math.exp(705.0)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ops.ShapeError):
            decode_predictions(np.zeros((13, 2, 2)), self.ANCHORS, 8, 0.5, 2)

    def test_decode_encode_round_trip(self):
        rng = np.random.default_rng(7)
        anchor = (16.0, 12.0)
        raw = rng.uniform(-1.5, 1.5, 4)
        stride = 8
        i, j = 2, 1
        cx = (float(ops.sigmoid(np.float64(raw[0]))) + j) * stride
        cy = (float(ops.sigmoid(np.float64(raw[1]))) + i) * stride
        w = anchor[0] * math.exp(raw[2])
        h = anchor[1] * math.exp(raw[3])
        back = encode_box(Box(cx, cy, w, h), anchor, stride, (i, j))
        assert ops.relative_error(np.array(back), raw) < 1e-9

    def test_format_line(self):
        rows = np.array([det(Box(1.5, 2.0, 3.0, 4.0), 1, 0.875)])
        text = format_detection("img.ppm", rows)
        assert text == "img.ppm 1 0.875000 1.500000 2.000000 3.000000 4.000000\n"
        assert format_detection("img.ppm", rows[:0]) == ""

    @pytest.mark.parametrize("image_id", ["img.ppm", "my dir/100% a.ppm",
                                          "%s %d %%.ppm"])
    def test_format_matches_per_line_f_string(self, image_id):
        # the per-detection f-string each printed line used to come from
        rng = np.random.default_rng(12)
        rows = rng.uniform(-1e3, 1e3, (60, 6))
        rows[:, 4] = rng.integers(0, 80, 60)
        rows[:6, :4] = [[np.nan, np.inf, -np.inf, -0.0]] * 6
        rows[6:12, 5] = [np.nan, 0.0, -0.0, 1e-7, 0.5 - 5e-7, 1e300]
        want = "".join(f"{image_id} {int(c)} {p:.6f} {x:.6f} {y:.6f} "
                       f"{w:.6f} {h:.6f}\n"
                       for x, y, w, h, c, p in rows.tolist())
        assert format_detection(image_id, rows) == want


class TestDetectionLoss:
    ANCHORS = (((8.0, 8.0),), ((16.0, 16.0),), ((32.0, 32.0),))
    STRIDES = (8, 16, 32)
    # two classes and the default loss settings
    CFG = ModelConfig(anchors=ANCHORS)

    def _shapes(self, nc=2):
        return [(1 * (5 + nc), 4, 4), (1 * (5 + nc), 2, 2), (1 * (5 + nc), 1, 1)]

    def test_assignment_best_prior(self):
        targets = labels((Box(10, 10, 30, 30), 0))
        assigned = assign_targets(targets, self.ANCHORS, self.STRIDES,
                                  [(4, 4), (2, 2), (1, 1)])
        assert assigned == {(2, 0, 0, 0): 0}

    def test_empty_targets_zero_box_component(self):
        raws = [np.random.default_rng(8).standard_normal(s)
                for s in self._shapes()]
        total, comps, _ = detection_loss(raws, np.zeros((0, 6)), self.CFG)
        assert comps["box"] == 0.0
        assert comps["cls"] == 0.0
        assert comps["obj"] > 0.0

    @pytest.mark.parametrize("cid", [2, -1, -2])
    def test_out_of_range_class_rejected(self, cid):
        raws = [np.zeros(s) for s in self._shapes()]
        targets = labels((Box(10.0, 12.0, 8.0, 8.0), 0),
                         (Box(20.0, 9.0, 6.0, 6.0), cid),
                         (Box(5.0, 5.0, 4.0, 4.0), 3))
        with pytest.raises(ValueError, match=rf"^label row 1: target class "
                           rf"{cid} is out of range for num_classes = 2$"):
            detection_loss(raws, targets, self.CFG)

    @pytest.mark.parametrize("cid, why", [
        (1.5, "class id 1.5 is not an integer"),
        (-0.5, "class id -0.5 is not an integer"),
        (math.nan, "class id nan is not finite"),
        (math.inf, "class id inf is not finite"),
        (-math.inf, "class id -inf is not finite")])
    def test_bad_class_id_rejected(self, cid, why):
        # refused before any arithmetic; a float class id once reached
        # `np.eye(n)[...]` as an index
        raws = [np.zeros(s) for s in self._shapes()]
        targets = labels((Box(10.0, 12.0, 8.0, 8.0), 0),
                         (Box(20.0, 9.0, 6.0, 6.0), 1),
                         (Box(5.0, 5.0, 4.0, 4.0), cid))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^label row 2: {why}$"):
                detection_loss(raws, targets, self.CFG)

    @pytest.mark.parametrize("shape", [(0,), (6,), (2, 5), (2, 7), (1, 2, 6)])
    def test_labels_not_n_by_6_rejected(self, shape):
        raws = [np.zeros(s) for s in self._shapes()]
        with pytest.raises(ValueError, match=r"^labels must be an \[N, 6\] "
                           rf"array, got shape {re.escape(str(shape))}$"):
            detection_loss(raws, np.zeros(shape), self.CFG)

    @pytest.mark.parametrize("field, value, why", [
        (0, math.inf, "cx inf is not finite"),
        (0, -math.inf, "cx -inf is not finite"),
        (0, math.nan, "cx nan is not finite"),
        (1, math.inf, "cy inf is not finite"),
        (1, math.nan, "cy nan is not finite"),
        (2, math.nan, "w nan is not finite"),
        (2, math.inf, "w inf is not finite"),
        (2, 0.0, "w 0.0 is not > 0"),
        (2, -0.0, "w -0.0 is not > 0"),
        (2, -3.0, "w -3.0 is not > 0"),
        (3, math.nan, "h nan is not finite"),
        (3, -math.inf, "h -inf is not finite"),
        (3, 0.0, "h 0.0 is not > 0"),
        (3, -1e-300, "h -1e-300 is not > 0")])
    def test_bad_box_field_rejected(self, field, value, why):
        # refused before any arithmetic: an infinite cx once raised
        # OverflowError from int(cx / stride), a NaN one a bare ValueError,
        # and a NaN, zero or negative w trained
        raws = [np.zeros(s) for s in self._shapes()]
        targets = labels((Box(10.0, 12.0, 8.0, 8.0), 0),
                         (Box(20.0, 9.0, 6.0, 6.0), 1))
        targets[1, field] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^label row 1: {why}$"):
                detection_loss(raws, targets, self.CFG)

    def test_box_fields_checked_one_by_one(self):
        # cx + cy overflows to inf for two finite centres; a check of the
        # sum would refuse this row
        assert np.isfinite(_check_labels(
            labels((Box(1e308, 1e308, 8.0, 8.0), 0)), 2)).all()

    def test_integral_float_class_ids_accepted(self):
        # 1.0 and -0.0 are the integers 1 and 0
        raws = [np.random.default_rng(3).standard_normal(s)
                for s in self._shapes()]
        a = labels((Box(10.0, 12.0, 8.0, 8.0), -0.0),
                   (Box(20.0, 9.0, 6.0, 6.0), 1.0))
        b = labels((Box(10.0, 12.0, 8.0, 8.0), 0),
                   (Box(20.0, 9.0, 6.0, 6.0), 1))
        assert detection_loss(raws, a, self.CFG)[0] == \
            detection_loss(raws, b, self.CFG)[0]

    def test_near_perfect_fit_small_loss(self):
        nc = 2
        gt = Box(10.0, 12.0, 8.5, 7.5)
        raws = [np.full(s, -12.0) for s in self._shapes(nc)]
        enc = encode_box(gt, self.ANCHORS[0][0], 8, (1, 1))
        r0 = raws[0].reshape(1, 5 + nc, 4, 4)
        r0[0, :4, 1, 1] = enc
        r0[0, 4, 1, 1] = 12.0
        r0[0, 5, 1, 1] = 12.0
        total, comps, _ = detection_loss(
            [r0.reshape(self._shapes(nc)[0]), raws[1], raws[2]],
            labels((gt, 0)), replace(self.CFG, smooth_eps=0.0))
        assert total < 0.01

    def test_gradcheck_total(self):
        rng = np.random.default_rng(9)
        raws = [rng.standard_normal(s) * 0.5 for s in self._shapes()]
        targets = labels((Box(11.3, 13.1, 7.0, 9.0), 1),
                         (Box(17.0, 9.0, 30.0, 28.0), 0))
        total, _, grads = detection_loss(raws, targets, self.CFG)
        for lvl in range(3):
            def f(v, lvl=lvl):
                rs = [r.copy() for r in raws]
                rs[lvl] = v
                return detection_loss(rs, targets, self.CFG)[0]
            fd = ops.finite_diff_grad(f, raws[lvl].copy())
            assert ops.relative_error(grads[lvl], fd) < 1e-4
