"""Desk-scale training smoke test on a fixed synthetic scene, and the
shared inference pipeline used by the command-line front end."""

from __future__ import annotations

import numpy as np

from .augment import LabeledImage, mixup, mosaic, rng_from_seed
from .config import STRIDES, ModelConfig
from .layers import sgd_step
from .model import Model
from .postproc import decode_predictions, detection_loss, diou_nms


class DivergenceError(RuntimeError):
    pass


def synthetic_scene():
    """64x64 mid-gray canvas with colored rectangles at known positions,
    labeled with rows `cx, cy, w, h, class_id, weight`."""
    pixels = np.full((3, 64, 64), 0.5)
    boxes = []

    def put(cx, cy, w, h, color, cid):
        x1, y1 = int(cx - w / 2), int(cy - h / 2)
        pixels[:, y1: y1 + int(h), x1: x1 + int(w)] = \
            np.asarray(color)[:, None, None]
        boxes.append((cx, cy, w, h, cid, 1.0))

    put(18.0, 20.0, 16.0, 12.0, (0.9, 0.2, 0.1), 0)
    put(44.0, 40.0, 20.0, 24.0, (0.1, 0.3, 0.9), 1)
    put(30.0, 52.0, 10.0, 8.0, (0.2, 0.8, 0.2), 0)
    return LabeledImage(pixels, np.array(boxes))


def training_sample(cfg: ModelConfig, seed):
    """The fixed augmented scene the smoke test trains on."""
    rng = rng_from_seed(seed)
    scene = synthetic_scene()
    if cfg.variant == "nano":
        lam = float(rng.uniform(0.3, 0.7))
        return mixup(scene, synthetic_scene(), lam)
    return mosaic([scene] * 4, scene.pixels.shape[-1], rng,
                  cfg.mosaic_scale_range, cfg.mosaic_shift_limit)


def train_toy(model: Model, cfg: ModelConfig, steps, seed, lr=0.01,
              log=None):
    """Plain gradient descent on the fixed scene; returns the loss curve."""
    sample = training_sample(cfg, seed)
    # built once: a walk of the module tree costs more than zeroing and
    # stepping the list it yields
    params = [p for p in model.params() if p.trainable]
    curve = []
    for step in range(steps + 1):
        raws = model.forward(sample.pixels)
        total, comps, graws = detection_loss(raws, sample.boxes, cfg)
        if not np.isfinite(total):
            raise DivergenceError(f"loss became non-finite at step {step}")
        curve.append(total)
        if log is not None:
            log(f"step {step} loss {total:.6f} "
                f"box {comps['box']:.6f} obj {comps['obj']:.6f} "
                f"cls {comps['cls']:.6f}")
        if step == steps:
            break
        for p in params:
            p.grad[...] = 0.0
        model.backward(graws)
        sgd_step(params, lr)
    return curve


def run_inference(model: Model, cfg: ModelConfig, image):
    """Full pipeline: forward, per-level decode, class-wise distance NMS.
    Returns the kept detection rows [N, 6] (see `decode_predictions`)."""
    levels = zip(model.forward(image), cfg.anchors, STRIDES)
    rows = [decode_predictions(raw, anchors, stride, cfg.conf_threshold,
                               cfg.num_classes) for raw, anchors, stride in levels]
    return diou_nms(np.concatenate(rows), cfg.nms_threshold)
