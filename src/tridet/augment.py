"""Mosaic and mixup augmentation on labeled toy images.

All randomness flows through an explicit seeded generator, so equal seeds
give byte-identical outputs.  Images are 3 x H x W float arrays in [0, 1]
and labels carry a weight so mixup can blend two label sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import ops
from .postproc import Box

MIN_BOX_AREA = 4.0
PAD_VALUE = 0.5


@dataclass
class BoxLabel:
    box: Box
    class_id: int
    weight: float = 1.0


@dataclass
class LabeledImage:
    pixels: np.ndarray            # [3, H, W], values in [0, 1]
    boxes: list = field(default_factory=list)

    @property
    def hw(self):
        return self.pixels.shape[1:]


def rng_from_seed(seed):
    return np.random.default_rng(np.uint64(seed))


def hflip(img: LabeledImage) -> LabeledImage:
    w = img.pixels.shape[2]
    flipped = img.pixels[:, :, ::-1].copy()
    boxes = [replace(b, box=Box(w - b.box.cx, b.box.cy, b.box.w, b.box.h))
             for b in img.boxes]
    return LabeledImage(flipped, boxes)


def rgb_shift(img: LabeledImage, deltas) -> LabeledImage:
    shifted = np.clip(img.pixels + np.asarray(deltas)[:, None, None], 0.0, 1.0)
    return LabeledImage(shifted, [replace(b) for b in img.boxes])


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
    sy = nh / h
    sx = nw / w
    boxes = [replace(b, box=Box(b.box.cx * sx, b.box.cy * sy,
                                b.box.w * sx, b.box.h * sy))
             for b in img.boxes]
    return LabeledImage(pixels, boxes)


def _shift_clip_boxes(boxes, dx, dy, out_w, out_h):
    out = []
    for b in boxes:
        x1, y1, x2, y2 = b.box.corners()
        x1, x2 = x1 + dx, x2 + dx
        y1, y2 = y1 + dy, y2 + dy
        x1, x2 = max(0.0, x1), min(float(out_w), x2)
        y1, y2 = max(0.0, y1), min(float(out_h), y2)
        if x2 - x1 <= 0 or y2 - y1 <= 0:
            continue
        if (x2 - x1) * (y2 - y1) < MIN_BOX_AREA:
            continue
        out.append(replace(b, box=Box.from_corners(x1, y1, x2, y2)))
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
    """Deterministic four-image mosaic given pinned transforms."""
    if len(imgs) != 4:
        raise ValueError(f"mosaic needs exactly 4 images, got {len(imgs)}")
    s = out_size
    xc = int(round(tf.center[0]))
    yc = int(round(tf.center[1]))
    canvas = np.full((3, s, s), PAD_VALUE)
    out_boxes = []
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
        shifted = _shift_clip_boxes(img.boxes, dx1 - sx1, dy1 - sy1, s, s)
        # keep only boxes whose surviving extent intersects the pasted patch
        for b in shifted:
            x1, y1, x2, y2 = b.box.corners()
            x1, x2 = max(x1, dx1), min(x2, dx1 + cw)
            y1, y2 = max(y1, dy1), min(y2, dy1 + ch)
            if x2 - x1 <= 0 or y2 - y1 <= 0:
                continue
            if (x2 - x1) * (y2 - y1) < MIN_BOX_AREA:
                continue
            out_boxes.append(replace(b, box=Box.from_corners(x1, y1, x2, y2)))
    return LabeledImage(canvas, out_boxes)


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
    boxes = [replace(x, weight=x.weight * lam) for x in a.boxes] \
        + [replace(x, weight=x.weight * (1.0 - lam)) for x in b.boxes]
    return LabeledImage(pixels, boxes)
