"""Where the traced run attaches to tridet, and the per-layer metrics it
derives from the spans.

Each name is wrapped where its caller looks it up: a function imported by
name into another module is wrapped in that module (`tridet.train.diou_nms`,
not `tridet.postproc.diou_nms`), and `Layer` methods are wrapped on their
class, so instances built anywhere, `gradcheck` included, are traced.
"""

from __future__ import annotations

from tridet import attention, cli, coordatt, gradcheck, layers, model, neck, \
    ops, postproc, train


def _nms_counts(args, kept):
    return {"postproc.nms_candidates": len(args[0]),
            "postproc.nms_kept": len(kept)}


def _conv_counts(args, out):
    # multiply-accumulates: output elements x (Cin / groups) x kH x kW
    weight = args[1]
    return {"ops.conv2d_mmac": out.size * weight[0].size / 1e6}


def _suite_span(module, *_):
    return "gradcheck." + module.replace("-", "_")


def _suite_counts(_, results):
    return {"gradcheck.checks_run": len(results),
            "gradcheck.checks_failed": sum(not r.passed for r in results)}


# (owner, attribute, span name, counter function or None)
WRAPS = [
    (cli, "main", "cli", None),
    (cli, "load_config", "config.load", None),
    (cli, "build_model", "model.build", None),
    (cli, "load_weights", "model.load_weights", None),
    (cli, "read_ppm", "ppm.read", None),
    (cli, "run_inference", "infer", None),
    (cli, "format_detection", "postproc.format", None),
    (train, "train_toy", "train", None),
    (train, "mosaic", "augment.mosaic", None),
    (train, "decode_predictions", "postproc.decode", None),
    (train, "diou_nms", "postproc.nms", _nms_counts),
    (train, "detection_loss", "postproc.loss", None),
    (train, "sgd_step", "layers.sgd", None),
    (gradcheck, "detection_loss", "postproc.loss", None),
    (gradcheck, "run_suite", _suite_span, _suite_counts),
    (ops, "conv2d", "ops.conv2d", _conv_counts),
    (ops, "conv2d_backward", "ops.conv2d_bwd", None),
    (ops, "grid_sample_zero", "ops.grid_sample", None),
    (ops, "grid_sample_zero_backward", "ops.grid_sample_bwd", None),
    (ops, "max_pool2d", "ops.max_pool", None),
    (ops, "max_pool2d_backward", "ops.max_pool_bwd", None),
    (layers.Layer, "zero_grad", "layers.zero_grad", None),
    (model.Model, "forward", "model.forward", None),
    (model.Model, "backward", "model.backward", None),
    (neck.ToyBackbone, "forward", "neck.backbone_fwd", None),
    (neck.ToyBackbone, "backward", "neck.backbone_bwd", None),
    (neck.Neck, "forward", "neck.fwd", None),
    (neck.Neck, "backward", "neck.bwd", None),
    (coordatt.CoordAttention, "forward", "coordatt.fwd", None),
    (coordatt.CoordAttention, "backward", "coordatt.bwd", None),
    (attention.TDAHead, "forward", "attention.head_fwd", None),
    (attention.TDAHead, "backward", "attention.head_bwd", None),
    (attention.ScaleAttention, "forward", "attention.scale_fwd", None),
    (attention.ScaleAttention, "backward", "attention.scale_bwd", None),
    (attention.SpatialAttention, "forward", "attention.spatial_fwd", None),
    (attention.SpatialAttention, "backward", "attention.spatial_bwd", None),
    (attention.TaskAttention, "forward", "attention.task_fwd", None),
    (attention.TaskAttention, "backward", "attention.task_bwd", None),
]

# self time per item, metric name -> span name
SELF_MS = {
    "postproc.nms_ms": "postproc.nms",
    "postproc.decode_ms": "postproc.decode",
    "postproc.format_ms": "postproc.format",
    "postproc.loss_ms": "postproc.loss",
    "attention.head_fwd_ms": "attention.head_fwd",
    "attention.head_bwd_ms": "attention.head_bwd",
    "attention.scale_fwd_ms": "attention.scale_fwd",
    "attention.scale_bwd_ms": "attention.scale_bwd",
    "attention.spatial_fwd_ms": "attention.spatial_fwd",
    "attention.spatial_bwd_ms": "attention.spatial_bwd",
    "attention.task_fwd_ms": "attention.task_fwd",
    "attention.task_bwd_ms": "attention.task_bwd",
    "ops.grid_sample_ms": "ops.grid_sample",
    "ops.grid_sample_bwd_ms": "ops.grid_sample_bwd",
    "ops.conv2d_ms": "ops.conv2d",
    "ops.conv2d_bwd_ms": "ops.conv2d_bwd",
    "ops.max_pool_ms": "ops.max_pool",
    "ops.max_pool_bwd_ms": "ops.max_pool_bwd",
    "neck.backbone_fwd_ms": "neck.backbone_fwd",
    "neck.backbone_bwd_ms": "neck.backbone_bwd",
    "neck.fwd_ms": "neck.fwd",
    "neck.bwd_ms": "neck.bwd",
    "coordatt.fwd_ms": "coordatt.fwd",
    "coordatt.bwd_ms": "coordatt.bwd",
    "model.forward_ms": "model.forward",
    "model.backward_ms": "model.backward",
    "model.build_ms": "model.build",
    "model.load_weights_ms": "model.load_weights",
    "augment.mosaic_ms": "augment.mosaic",
    "layers.sgd_ms": "layers.sgd",
    "layers.zero_grad_ms": "layers.zero_grad",
    "config.load_ms": "config.load",
    "ppm.read_ms": "ppm.read",
    "cli.self_ms": "cli",
    "gradcheck.tensor_core_ms": "gradcheck.tensor_core",
    "gradcheck.attention_head_ms": "gradcheck.attention_head",
    "gradcheck.coord_attention_ms": "gradcheck.coord_attention",
    "gradcheck.postproc_loss_ms": "gradcheck.postproc_loss",
}

# time per item including child spans, for the composite layers and suites
TOTAL_MS = {
    "model.forward_total_ms": "model.forward",
    "model.backward_total_ms": "model.backward",
    "attention.head_fwd_total_ms": "attention.head_fwd",
    "attention.head_bwd_total_ms": "attention.head_bwd",
    "neck.fwd_total_ms": "neck.fwd",
    "neck.bwd_total_ms": "neck.bwd",
    "neck.backbone_fwd_total_ms": "neck.backbone_fwd",
    "neck.backbone_bwd_total_ms": "neck.backbone_bwd",
    "gradcheck.tensor_core_total_ms": "gradcheck.tensor_core",
    "gradcheck.attention_head_total_ms": "gradcheck.attention_head",
    "gradcheck.coord_attention_total_ms": "gradcheck.coord_attention",
    "gradcheck.postproc_loss_total_ms": "gradcheck.postproc_loss",
}

# counters summed by the wrappers, reported per item
COUNTS = ("postproc.nms_candidates", "postproc.nms_kept", "ops.conv2d_mmac",
          "gradcheck.checks_run", "gradcheck.checks_failed")
# span call counts per item, metric name -> span name
CALLS = {
    "ops.conv2d_calls": "ops.conv2d",
    "ops.grid_sample_calls": "ops.grid_sample",
}

# metric name -> unit, in the order the benchmark reports them
PER_LAYER = {
    **{m: "ms" for m in SELF_MS},
    **{m: "ms" for m in TOTAL_MS},
    **{m: "count" for m in COUNTS},
    **{m: "count" for m in CALLS},
    "postproc.nms_keep_ratio": "ratio",
    "postproc.focal_clamps": "count",
    "trace.item_ms": "ms",
    "trace.untraced_item_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def install(tracer):
    for owner, attr, name, count in WRAPS:
        tracer.wrap(owner, attr, name, count)


def clamp_count():
    return postproc.clamp_stats.count


def per_layer(tracer, items, traced_s, untraced_s_per_item, clamps):
    """Per-item values of every PER_LAYER metric from a finished trace."""
    out = {}
    for metric, span in SELF_MS.items():
        out[metric] = 1000.0 * tracer.self_s.get(span, 0.0) / items
    for metric, span in TOTAL_MS.items():
        out[metric] = 1000.0 * tracer.total_s.get(span, 0.0) / items
    for metric in COUNTS:
        out[metric] = tracer.counts.get(metric, 0) / items
    for metric, span in CALLS.items():
        out[metric] = tracer.calls.get(span, 0) / items
    candidates = tracer.counts.get("postproc.nms_candidates", 0)
    out["postproc.nms_keep_ratio"] = (
        tracer.counts.get("postproc.nms_kept", 0) / candidates
        if candidates else 0.0)
    out["postproc.focal_clamps"] = clamps / items
    out["trace.item_ms"] = 1000.0 * traced_s / items
    out["trace.untraced_item_ms"] = 1000.0 * untraced_s_per_item
    out["trace.overhead_pct"] = 100.0 * (traced_s / items
                                         / untraced_s_per_item - 1.0)
    out["trace.spans"] = len(tracer.spans) / items
    return {m: out[m] for m in PER_LAYER}
