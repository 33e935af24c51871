"""Prediction decoding, one distance-IoU kernel over box planes (with its
gradient for the loss), distance-aware NMS, the balanced focal loss, label
smoothing, and the composite detection loss with gradients w.r.t. raw
predictions."""

from __future__ import annotations

import math

import numpy as np

from . import ops
from .config import STRIDES, ModelConfig

P_CLAMP = 1e-7
# rows of one class that `diou_nms` meets with the later rows at once
NMS_TILE = 64


class ClampStats:
    """Counts probability clamps performed by the focal loss."""

    def __init__(self):
        self.count = 0


clamp_stats = ClampStats()


def box_planes(b):
    """Rows x0, y0, x1, y1 (corners), cx, cy, w, h and area of the boxes
    b = [cx, cy, w, h], one box per column (or one box as a vector)."""
    b = np.asarray(b, dtype=np.float64)
    half = b[2:] / 2
    return np.concatenate([b[:2] - half, b[:2] + half, b, b[2:3] * b[3:]])


def diou_planes(p, q, grad=False):
    """Distance-IoU of each column of the box planes p with the same column
    of q: IoU minus the squared center distance over the squared diagonal
    of the smallest enclosing box.  With `grad`, also its derivative in
    p's cx, cy, w, h as rows [4, N], q held fixed; subgradients at
    geometric ties pick p's side.

    IoU is 0 where the boxes do not overlap or `union > 0` fails, the
    distance term is 0 where `c2 > 0` fails.  So a NaN field gives DIoU
    0, and an infinite one may give NaN (inf / inf).  The value squares
    with `x * x` in a fixed order of operations, on which the NMS output
    and so the `run` digests rest."""
    iwh = np.minimum(q[2:4], p[2:4]) - np.maximum(q[:2], p[:2])
    inter = np.multiply(*np.maximum(iwh, 0.0))
    union = (p[8] + q[8]) - inter
    v = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)
    cwh = np.maximum(q[2:4], p[2:4]) - np.minimum(q[:2], p[:2])
    c2, dxy = np.add(*(cwh * cwh)), p[4:6] - q[4:6]
    rho2 = np.add(*(dxy * dxy))
    v -= np.divide(rho2, c2, out=np.zeros_like(c2), where=c2 > 0.0)
    if not grad:
        return v
    # d inter / d p's low and high edges, live while the boxes overlap
    ok = (np.minimum(*iwh) > 0.0) & (union > 0.0)
    lo = np.where(ok & (p[:2] > q[:2]), -iwh[::-1], 0.0)
    hi = np.where(ok & (p[2:4] < q[2:4]), iwh[::-1], 0.0)
    d_inter = np.concatenate([lo + hi, 0.5 * (hi - lo)])
    # d union = d area - d inter, with d area = (0, 0, h, w)
    d_union = -d_inter
    d_union[2:] += p[7:5:-1]
    d_iou = np.divide(d_inter * union - inter * d_union, union * union,
                      out=np.zeros_like(d_inter), where=ok)
    # d c2: p's edges that bound the enclosing box move its width or height
    elo, ehi = 1.0 * (p[:2] < q[:2]), 1.0 * (p[2:4] > q[2:4])
    d_c2 = 2.0 * np.concatenate([cwh, cwh]) * np.concatenate(
        [ehi - elo, 0.5 * (ehi + elo)])
    # d rho2 = (2 dx, 2 dy, 0, 0)
    num = -rho2 * d_c2
    num[:2] += 2.0 * dxy * c2
    d_pen = np.divide(num, c2 * c2, out=np.zeros_like(num), where=c2 > 0.0)
    return v, d_iou - d_pen


def diou(a, b) -> float:
    """`diou_planes` of two boxes, each a `(cx, cy, w, h)` sequence, as a
    float."""
    return float(diou_planes(box_planes(a), box_planes(b)))


def diou_nms(rows, threshold=0.45):
    """Greedy class-wise suppression of rows [N, 6] from
    `decode_predictions`: keep by rank, drop rows whose distance-IoU with
    a kept row of the same class exceeds the threshold, and return the
    kept rows by rank.  Rank is descending score, NaN last, then index.

    Each class is walked in rank order, NMS_TILE rows at a time. Broad
    phase: four comparisons meet the tile's live rows with every later
    row of the class in one boolean tile; its true cells are the pairs
    (i, j), i before j. Narrow phase: `diou_planes` on those pairs only,
    the one DIoU that `diou` and the loss use. Greedy rule: the pairs
    come sorted by i, so a pair whose DIoU is not <= the threshold drops
    j while i is alive.

    Non-finite boxes follow the kernel: a NaN field gives DIoU 0 against
    any box, so such a box suppresses nothing and falls to nothing at a
    threshold >= 0; an infinite field may give a NaN DIoU (an infinite
    center gives inf / inf), which is not <= any threshold and drops the
    later row.

    Exactness: a pair the broad phase skips lacks `iw > 0` and `ih > 0`,
    so its IoU is 0 and its DIoU is 0 minus a ratio of squares: at most
    0, never above a threshold >= 0. For a negative or NaN threshold, or
    for a non-finite corner or coordinates large enough for a square to
    overflow (inf / inf is NaN), every later row is a pair."""
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 6)
    # lexsort puts NaN keys last; its last key is the primary one
    ranked = rows[np.lexsort((np.arange(len(rows)), -rows[:, 5]))]
    planes, cls = box_planes(ranked[:, :4].T), ranked[:, 4]
    # a difference of two corners or centers is at most 2 * big
    big = float(np.abs(planes[:4]).max(initial=0.0))
    every = not (threshold >= 0 and math.isfinite(8 * big * big))
    alive = np.ones(len(ranked), dtype=bool)
    for c in set(cls.tolist()):
        seg = np.flatnonzero(cls == c)
        m = len(seg)
        cp = planes.take(seg, axis=1)
        x0, y0, x1, y1 = cp[:4]
        live = [True] * m
        for t in range(0, m - 1, NMS_TILE):
            # live rows of t .. t + k - 1 against columns t + 1 .. m - 1
            k, w = min(NMS_TILE, m - 1 - t), m - 1 - t
            a = np.flatnonzero(live[t:t + k])
            r, s = a + t, slice(t + 1, m)
            if every:
                hit = np.ones((len(a), w), dtype=bool)
            else:
                hit = np.greater(x1[r, None], x0[None, s])
                hit &= np.less(x0[r, None], x1[None, s])
                hit &= np.greater(y1[r, None], y0[None, s])
                hit &= np.less(y0[r, None], y1[None, s])
            # column c is rank t + 1 + c, later than row t + a from c = a on
            hit[:, :k] &= a[:, None] <= np.arange(k)
            i, j = np.divmod(np.flatnonzero(hit), w)
            i, j = r[i], j + t + 1
            drop = ~(diou_planes(cp.take(i, axis=1), cp.take(j, axis=1))
                     <= threshold)
            for p, q in zip(i[drop].tolist(), j[drop].tolist()):
                if live[p]:
                    live[q] = False
        alive[seg] = live
    return ranked[alive]


def _focal(p, y, alpha, gamma):
    """Elementwise focal loss, its derivative in p (zero where p was
    clamped to [P_CLAMP, 1 - P_CLAMP]) and the number of clamped entries,
    from one clamp and one set of powers and logs."""
    praw = np.asarray(p, dtype=np.float64)
    p = np.minimum(np.maximum(praw, P_CLAMP), 1.0 - P_CLAMP)
    clamped = p != praw
    y = np.asarray(y, dtype=np.float64)
    q = 1.0 - p
    log_p = np.log(p)
    log_q = np.log(q)
    pow_p = np.power(p, gamma)
    pow_q = np.power(q, gamma)
    loss = (y * (-alpha * pow_q * log_p)
            + (1.0 - y) * (-(1.0 - alpha) * pow_p * log_q))
    dpos = alpha * (gamma * np.power(q, gamma - 1.0) * log_p - pow_q / p)
    dneg = (1.0 - alpha) * (-gamma * np.power(p, gamma - 1.0) * log_q + pow_p / q)
    grad = np.where(clamped, 0.0, y * dpos + (1.0 - y) * dneg)
    return loss, grad, int(clamped.sum())


def focal_loss(p, y, alpha=0.25, gamma=2.0):
    """Balanced focal loss, elementwise; y may be a soft label in [0, 1].

    For hard labels this is -alpha_t * (1 - p_t)^gamma * log(p_t) with
    p_t = p if y=1 else 1-p and alpha_t = alpha if y=1 else 1-alpha.
    """
    loss, _, clamps = _focal(p, y, alpha, gamma)
    clamp_stats.count += clamps
    return loss


def focal_loss_grad_p(p, y, alpha=0.25, gamma=2.0):
    """d focal_loss / d p (zero subgradient where p was clamped)."""
    return _focal(p, y, alpha, gamma)[1]


def label_smooth(onehot, eps):
    """y' = y * (1 - eps) + eps / K; preserves the probability mass."""
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"smoothing factor must lie in [0, 1), got {eps}")
    onehot = np.asarray(onehot, dtype=np.float64)
    return onehot * (1.0 - eps) + eps / onehot.shape[-1]


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def _split_raw(raw, n_anchors, num_classes):
    ch = n_anchors * (5 + num_classes)
    if raw.shape[0] != ch:
        raise ops.ShapeError(
            f"raw prediction has {raw.shape[0]} channels, expected {ch}")
    h, w = raw.shape[1:]
    return raw.reshape(n_anchors, 5 + num_classes, h, w)


def decode_predictions(raw, anchors, stride, conf_threshold, num_classes):
    """Standard anchor decode: centers from sigmoid offsets plus the cell
    origin times the stride, extents from exponential anchor scaling.
    Returns float64 rows [N, 6] of `cx, cy, w, h, class_id, score` in
    (anchor, row, column) order, without scores at or below the threshold
    (a NaN score is kept, as `score <= conf_threshold` is false).  The
    first finite extent logit whose exp, or exp times its anchor, is
    infinite raises a ValueError naming it; NaN and infinite logits pass
    through as NaN, 0 and inf extents."""
    r = _split_raw(np.asarray(raw, dtype=np.float64), len(anchors),
                   num_classes)
    cls = ops.sigmoid(r[:, 5:])
    score = ops.sigmoid(r[:, 4]) * cls.max(axis=1)
    aa, ii, jj = np.nonzero(~(score <= conf_threshold))
    t = r[aa, :4, ii, jj]
    # math.exp, not np.exp: numpy's SIMD exp may round differently
    ext = []
    for v in t[:, 2:].ravel().tolist():
        try:
            ext.append(math.exp(v))
        except OverflowError:
            ext.append(math.inf)
    with np.errstate(over="ignore"):
        wh = np.reshape(ext, (-1, 2)) * np.asarray(anchors, float)[aa]
    # a finite logit whose exp, or exp times the anchor, is infinite
    over = np.flatnonzero(np.isinf(wh) & np.isfinite(t[:, 2:]))
    if over.size:
        k, e = divmod(int(over[0]), 2)
        raise ValueError(
            f"extent logit {float(t[k, 2 + e])!r} at stride {stride}, "
            f"anchor {aa[k]}, cell ({ii[k]}, {jj[k]}) overflows exp")
    return np.column_stack((
        (ops.sigmoid(t[:, 0]) + jj) * stride, (ops.sigmoid(t[:, 1]) + ii) * stride,
        wh, cls.argmax(axis=1)[aa, ii, jj], score[aa, ii, jj]))


def format_detection(image_id, rows):
    """The printed text of rows [N, 6] from `diou_nms`: one line `image_id
    class_id score cx cy w h` and a newline per row, floats to 6 places."""
    line = f"{image_id}".replace("%", "%%") + " %d" + " %.6f" * 5 + "\n"
    return (line * len(rows)) % tuple(rows[:, [4, 5, 0, 1, 2, 3]].ravel().tolist())


# ---------------------------------------------------------------------------
# target assignment and composite loss
# ---------------------------------------------------------------------------

def _wh_iou(wh_a, wh_b):
    iw = min(wh_a[0], wh_b[0])
    ih = min(wh_a[1], wh_b[1])
    inter = iw * ih
    return inter / (wh_a[0] * wh_a[1] + wh_b[0] * wh_b[1] - inter)


def assign_targets(labels, anchors_per_level, strides, grid_hw):
    """Single best anchor per label row by width/height prior IoU.

    Returns {(level, anchor, i, j): row index into labels}; the first row
    to claim a slot keeps it.
    """
    assigned = {}
    for k, (cx, cy, bw, bh) in enumerate(labels[:, :4].tolist()):
        best = None
        for lvl, anchors in enumerate(anchors_per_level):
            for a, prior in enumerate(anchors):
                q = _wh_iou((bw, bh), prior)
                if best is None or q > best[0]:
                    best = (q, lvl, a)
        _, lvl, a = best
        h, w = grid_hw[lvl]
        stride = strides[lvl]
        j = min(max(int(cx / stride), 0), w - 1)
        i = min(max(int(cy / stride), 0), h - 1)
        assigned.setdefault((lvl, a, i, j), k)
    return assigned


# the closed domain of a label's cx, cy, w and h: rows of +-1e8 keep the
# loss and its gradients finite, while cx = 1e150 or w = 1e308 overflows
# the DIoU
LABEL_FIELD_DOMAIN = (-1e8, 1e8)


def check_box_fields(labels):
    """Names the first of the label rows [N, >= 4] with a cx, cy, w or h
    that is not finite or lies outside LABEL_FIELD_DOMAIN."""
    lo, hi = LABEL_FIELD_DOMAIN
    for k, row in enumerate(labels[:, :4].tolist()):
        for name, v in zip(("cx", "cy", "w", "h"), row):
            if not math.isfinite(v):
                raise ValueError(f"label row {k}: {name} {v} is not finite")
            if not lo <= v <= hi:
                raise ValueError(f"label row {k}: {name} {v} outside "
                                 f"[{lo:g}, {hi:g}]")


def _check_labels(labels, num_classes):
    """Labels as float64 rows [N, 6]; refuses a wrong shape, then names the
    first row with a box field check_box_fields refuses, then the first
    with a w or h not > 0 or a class id not an integer in [0, num_classes)."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.ndim != 2 or labels.shape[1] != 6:
        raise ValueError(f"labels must be an [N, 6] array, got shape "
                         f"{labels.shape}")
    check_box_fields(labels)
    for k, (_, _, w, h, c, _) in enumerate(labels.tolist()):
        for name, v in (("w", w), ("h", h)):
            if not v > 0:
                raise ValueError(f"label row {k}: {name} {v} is not > 0")
        if not math.isfinite(c):
            raise ValueError(f"label row {k}: class id {c} is not finite")
        if not c.is_integer():
            raise ValueError(f"label row {k}: class id {c} is not an integer")
        if not 0 <= c < num_classes:
            raise ValueError(f"label row {k}: target class {int(c)} is out "
                             f"of range for num_classes = {num_classes}")
    return labels


def detection_loss(raws, labels, cfg: ModelConfig):
    """Composite loss over per-level raw prediction tensors, against label
    rows [N, 6] of `cx, cy, w, h, class_id, weight` (the weight is not read).

    total = w_box * mean(1 - diou) over assigned slots
          + w_obj * focal(objectness) summed over every slot, divided by
            the number of positive assignments
          + w_cls * mean focal(smoothed class scores) over assigned slots.

    The anchors, class count, focal alpha and gamma, label smoothing and
    the three weights come from `cfg`, the strides from `STRIDES`.
    Returns (total, components, grads) with grads matching raws' shapes.
    """
    num_classes = cfg.num_classes
    labels = _check_labels(labels, num_classes)
    views = [_split_raw(np.asarray(r, dtype=np.float64), len(cfg.anchors[l]),
                        num_classes)
             for l, r in enumerate(raws)]
    grid_hw = [v.shape[2:] for v in views]
    assigned = assign_targets(labels, cfg.anchors, STRIDES, grid_hw)
    grads = [np.zeros_like(v) for v in views]
    n_assigned = len(assigned)
    n_norm = max(1, n_assigned)

    # per slot: column, row, stride and anchor extents, and its label row
    slot = np.array([(j, i, STRIDES[l], *cfg.anchors[l][a])
                     for l, a, i, j in assigned],
                    dtype=np.float64).reshape(-1, 5)
    target = labels[list(assigned.values())]
    stride = slot[:, 2:3]
    # the box DIoU and class focal terms of every assigned slot at once,
    # with their gradients w.r.t. the slot's raw predictions
    rows = np.array([views[l][a, :, i, j] for l, a, i, j in assigned])
    rows = rows.reshape(n_assigned, 5 + num_classes)
    sxy = ops.sigmoid(rows[:, :2])
    wh = slot[:, 3:5] * np.exp(rows[:, 2:4])
    pred = np.concatenate([(sxy + slot[:, :2]) * stride, wh], axis=1)
    d, dd = diou_planes(box_planes(pred.T), box_planes(target[:, :4].T), True)
    pc = ops.sigmoid(rows[:, 5:])
    onehot = np.eye(num_classes)[target[:, 4].astype(np.intp)]
    fl, gpc, clamps = _focal(pc, label_smooth(onehot, cfg.smooth_eps),
                             cfg.alpha, cfg.gamma)
    clamp_stats.count += clamps
    g = np.zeros_like(rows)
    # d (cx, cy, w, h) / d (tx, ty, tw, th)
    g[:, :4] = (-cfg.w_box / n_norm) * dd.T * np.concatenate(
        [sxy * (1.0 - sxy) * stride, wh], axis=1)
    g[:, 5:] = (cfg.w_cls / n_norm) * (gpc / num_classes) * pc * (1.0 - pc)
    box_loss = float((1.0 - d).sum()) / n_norm
    cls_loss = float(fl.sum()) / num_classes / n_norm
    # each slot's gradient row, whose objectness entry (0.0) lands before
    # the objectness gradient below, and the slot's objectness target
    ys = [np.zeros_like(v[:, 4]) for v in views]
    for k, (l, a, i, j) in enumerate(assigned):
        grads[l][a, :, i, j] += g[k]
        ys[l][a, i, j] = 1.0

    # objectness: focal summed over every slot, normalized by the number
    # of positive assignments (the customary focal-loss reduction); one
    # focal call over every level's logits, then one sum per level
    p = ops.sigmoid(np.concatenate([v[:, 4].ravel() for v in views]))
    fl, gp, clamps = _focal(p, np.concatenate([y.ravel() for y in ys]),
                            cfg.alpha, cfg.gamma)
    clamp_stats.count += clamps
    gp = cfg.w_obj * (gp / n_norm) * p * (1.0 - p)
    ends = np.cumsum([y.size for y in ys])[:-1]
    obj_loss = 0.0
    for lvl, (f, gl) in enumerate(zip(np.split(fl, ends), np.split(gp, ends))):
        obj_loss += float(f.sum()) / n_norm
        grads[lvl][:, 4] += gl.reshape(ys[lvl].shape)

    components = {"box": box_loss, "obj": obj_loss, "cls": cls_loss}
    total = cfg.w_box * box_loss + cfg.w_obj * obj_loss + cfg.w_cls * cls_loss
    out_grads = [g.reshape(np.asarray(r).shape) for g, r in zip(grads, raws)]
    return total, components, out_grads
