"""Mosaic and mixup augmentation on labeled toy images.

All randomness flows through an explicit seeded generator, so equal seeds
give byte-identical outputs.  Images are 3 x H x W float arrays in [0, 1].
Labels are one float64 array [N, 6], a row `cx, cy, w, h, class_id,
weight` per box; the weight lets mixup blend two label sets.  Every
transform returns new label rows and leaves its input's unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .postproc import check_box_fields

MIN_BOX_AREA = 4.0
PAD_VALUE = 0.5


@dataclass
class LabeledImage:
    pixels: np.ndarray            # [3, H, W], values in [0, 1]
    boxes: np.ndarray = field(default_factory=lambda: np.zeros((0, 6)))

    @property
    def hw(self):
        return self.pixels.shape[1:]


def rng_from_seed(seed):
    return np.random.default_rng(np.uint64(seed))


def hflip(img: LabeledImage) -> LabeledImage:
    w = img.pixels.shape[2]
    flipped = img.pixels[:, :, ::-1].copy()
    boxes = img.boxes.copy()
    boxes[:, 0] = w - boxes[:, 0]
    return LabeledImage(flipped, boxes)


def rgb_shift(img: LabeledImage, deltas) -> LabeledImage:
    shifted = np.clip(img.pixels + np.asarray(deltas)[:, None, None], 0.0, 1.0)
    return LabeledImage(shifted, img.boxes.copy())


def rescale(img: LabeledImage, factor) -> LabeledImage:
    """Bilinear resize by a positive factor; boxes scale along."""
    if factor <= 0:
        raise ValueError(f"scale factor must be positive, got {factor}")
    h, w = img.hw
    nh, nw = max(1, round(h * factor)), max(1, round(w * factor))
    fy = h / nh
    fx = w / nw
    ys = (np.arange(nh) + 0.5) * fy - 0.5
    xs = (np.arange(nw) + 0.5) * fx - 0.5
    yy, xx = np.meshgrid(np.clip(ys, 0, h - 1), np.clip(xs, 0, w - 1),
                         indexing="ij")
    pixels = ops.grid_sample_zero(img.pixels, yy, xx)
    boxes = img.boxes.copy()
    boxes[:, :4] *= (nw / w, nh / h, nw / w, nh / h)
    return LabeledImage(pixels, boxes)


def _clip(rows, dx, dy, x_lo, y_lo, x_hi, y_hi):
    """Rows whose first columns are `cx, cy, w, h`, their corners shifted
    by (dx, dy) and clipped to the window [x_lo, x_hi] x [y_lo, y_hi],
    without rows left empty or smaller than MIN_BOX_AREA; later columns
    ride along.  Each shift and bound is one value, or one per row.  A
    corner meets a bound as Python's `max(lo, x)` and `min(hi, x)` would."""
    cx, cy, w, h = rows[:, :4].T
    x1, x2 = cx - w / 2 + dx, cx + w / 2 + dx
    y1, y2 = cy - h / 2 + dy, cy + h / 2 + dy
    x1, y1 = np.where(x1 > x_lo, x1, x_lo), np.where(y1 > y_lo, y1, y_lo)
    x2, y2 = np.where(x2 < x_hi, x2, x_hi), np.where(y2 < y_hi, y2, y_hi)
    w, h = x2 - x1, y2 - y1
    keep = ~((w <= 0) | (h <= 0) | (w * h < MIN_BOX_AREA))
    out = rows[keep]
    out[:, :4] = np.column_stack([(x1 + x2) / 2, (y1 + y2) / 2, w, h])[keep]
    return out


@dataclass
class MosaicTransforms:
    """Sampled per-call mosaic parameters; tests pin these directly."""
    center: tuple
    scales: tuple
    flips: tuple
    shifts: tuple        # 4 x 3 per-channel additive shifts


def sample_mosaic_transforms(rng, out_size, scale_range=(0.5, 1.5),
                             shift_limit=0.05):
    center = (float(rng.uniform(0.25 * out_size, 0.75 * out_size)),
              float(rng.uniform(0.25 * out_size, 0.75 * out_size)))
    scales = tuple(float(rng.uniform(*scale_range)) for _ in range(4))
    flips = tuple(bool(rng.random() < 0.5) for _ in range(4))
    shifts = tuple(tuple(float(rng.uniform(-shift_limit, shift_limit))
                         for _ in range(3)) for _ in range(4))
    return MosaicTransforms(center, scales, flips, shifts)


def mosaic_apply(imgs, out_size, tf: MosaicTransforms) -> LabeledImage:
    """Deterministic four-image mosaic given pinned transforms.  Refuses,
    as the loss does, an image's label row with a cx, cy, w or h that is
    not finite or outside LABEL_FIELD_DOMAIN, as `image Q: label row K: …`."""
    if len(imgs) != 4:
        raise ValueError(f"mosaic needs exactly 4 images, got {len(imgs)}")
    for q, img in enumerate(imgs):
        try:
            check_box_fields(img.boxes)
        except ValueError as e:
            raise ValueError(f"image {q}: {e}") from None
    s = out_size
    xc = int(round(tf.center[0]))
    yc = int(round(tf.center[1]))
    canvas = np.full((3, s, s), PAD_VALUE)
    # label rows, each followed by its shift onto the canvas and the
    # window of its pasted patch
    rows = [np.zeros((0, 12))]
    # canvas regions: top-left, top-right, bottom-left, bottom-right
    regions = (
        (0, 0, xc, yc),
        (xc, 0, s, yc),
        (0, yc, xc, s),
        (xc, yc, s, s),
    )
    # which source corner feeds the region (align toward the center point)
    anchor_right = (True, False, True, False)
    anchor_bottom = (True, True, False, False)
    for q in range(4):
        img = imgs[q]
        img = rescale(img, tf.scales[q])
        if tf.flips[q]:
            img = hflip(img)
        img = rgb_shift(img, tf.shifts[q])
        hq, wq = img.hw
        rx1, ry1, rx2, ry2 = regions[q]
        rw, rh = rx2 - rx1, ry2 - ry1
        cw, ch = min(rw, wq), min(rh, hq)
        if cw <= 0 or ch <= 0:
            continue
        sx1 = wq - cw if anchor_right[q] else 0
        sy1 = hq - ch if anchor_bottom[q] else 0
        dx1 = rx2 - cw if anchor_right[q] else rx1
        dy1 = ry2 - ch if anchor_bottom[q] else ry1
        canvas[:, dy1: dy1 + ch, dx1: dx1 + cw] = \
            img.pixels[:, sy1: sy1 + ch, sx1: sx1 + cw]
        rows.append(np.column_stack([img.boxes, np.tile(
            (dx1 - sx1, dy1 - sy1, dx1, dy1, dx1 + cw, dy1 + ch),
            (len(img.boxes), 1))]))
    # clip to the canvas, then to the patch: two clips, as a corners ->
    # centre -> corners round trip between them rounds
    rows = np.concatenate(rows)
    rows = _clip(rows, *rows[:, 6:8].T, 0.0, 0.0, s, s)
    rows = _clip(rows, 0, 0, *rows[:, 8:].T)
    return LabeledImage(canvas, rows[:, :6].copy())


def mosaic(imgs, out_size, rng, scale_range=(0.5, 1.5), shift_limit=0.05):
    """Four-image mosaic: random center, per-image scale / flip / RGB
    shift, each image cropped into its quadrant of the canvas."""
    tf = sample_mosaic_transforms(rng, out_size, scale_range, shift_limit)
    return mosaic_apply(imgs, out_size, tf)


def mixup(a: LabeledImage, b: LabeledImage, lam) -> LabeledImage:
    """Convex pixel blend; labels are the union with weights lam / 1-lam."""
    if a.hw != b.hw:
        raise ValueError(f"mixup extents differ: {a.hw} vs {b.hw}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam}")
    pixels = lam * a.pixels + (1.0 - lam) * b.pixels
    boxes = np.concatenate([a.boxes, b.boxes])
    boxes[:len(a.boxes), 5] *= lam
    boxes[len(a.boxes):, 5] *= 1.0 - lam
    return LabeledImage(pixels, boxes)
