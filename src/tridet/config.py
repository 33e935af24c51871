"""Model configuration and its flat key-value text format.

The config file is diff-friendly structured text: one ``section.key =
value`` per line, '#' comments allowed.  parse -> serialize -> parse is a
fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

VARIANTS = ("full", "tiny", "nano", "x-toy")

_DEFAULT_ANCHORS = (
    ((8.0, 8.0), (16.0, 12.0), (12.0, 16.0)),
    ((24.0, 24.0), (32.0, 24.0), (24.0, 32.0)),
    ((40.0, 40.0), (48.0, 56.0), (56.0, 48.0)),
)

STRIDES = (8, 16, 32)
ANCHOR_KEYS = ("anchors.p3", "anchors.p4", "anchors.p5")


class ConfigError(ValueError):
    """A bad config value; `key` names the config key when there is one."""

    def __init__(self, msg, key=None):
        super().__init__(msg)
        self.key = key


@dataclass
class ModelConfig:
    variant: str = "full"
    num_classes: int = 2
    widths: tuple = (16, 32, 64)
    seed: int = 0
    csp_enabled: bool = True
    anchors: tuple = _DEFAULT_ANCHORS
    conf_threshold: float = 0.25
    nms_threshold: float = 0.45
    alpha: float = 0.25
    gamma: float = 2.0
    smooth_eps: float = 0.1
    w_box: float = 0.05
    w_obj: float = 1.0
    w_cls: float = 0.5
    ca_ratio: int = 16
    dyrelu_reduction: int = 4
    lambda_a: float = 1.0
    lambda_b: float = 0.5

    @property
    def n_blocks(self):
        return 1 if self.variant == "tiny" else 2

    @property
    def depthwise(self):
        return self.variant == "nano"

    @property
    def mosaic_scale_range(self):
        return (0.25, 1.75) if self.variant == "x-toy" else (0.5, 1.5)

    @property
    def mosaic_shift_limit(self):
        return 0.1 if self.variant == "x-toy" else 0.05

    @property
    def head_channels(self):
        return tuple(w // 2 for w in self.widths)

    def validate(self):
        def check(ok, key, msg):
            if not ok:
                raise ConfigError(f"bad value for {key}: {msg}", key)

        check(self.variant in VARIANTS, "model.variant",
              f"unknown variant {self.variant!r}")
        check(self.num_classes >= 1, "model.num_classes",
              f"{self.num_classes} is below 1")
        check(self.seed >= 0, "model.seed", f"{self.seed} is below 0")
        check(len(self.widths) == 3 and all(w >= 2 for w in self.widths),
              "model.widths", f"need three extents >= 2, got {self.widths}")
        check(self.ca_ratio >= 1, "attention.ca_ratio", f"{self.ca_ratio} is below 1")
        for w in self.widths:
            check(w % self.ca_ratio == 0, "attention.ca_ratio",
                  f"{self.ca_ratio} does not divide width {w}")
        check(self.dyrelu_reduction >= 1, "attention.dyrelu_reduction",
              f"{self.dyrelu_reduction} is below 1")
        counts = [len(level) for level in self.anchors]
        # blame the level whose anchor count is the odd one out
        odd = min(range(len(counts)), key=lambda i: counts.count(counts[i]))
        check(len(set(counts)) == 1, ANCHOR_KEYS[odd],
              f"{counts[odd]} anchors, but the levels p3/p4/p5 need equal "
              f"counts, got {counts}")
        for key, level in zip(ANCHOR_KEYS, self.anchors):
            for aw, ah in level:
                check(math.isfinite(aw) and math.isfinite(ah), key,
                      f"non-finite anchor extent ({aw}, {ah})")
                check(aw > 0 and ah > 0, key, f"non-positive anchor extent ({aw}, {ah})")
        for key, (attr, parse, _) in KEYS.items():
            if parse is float:
                v = getattr(self, attr)
                check(math.isfinite(v), key, f"{v} is not finite")
        for key in ("detect.conf_threshold", "detect.nms_threshold", "loss.alpha"):
            v = getattr(self, KEYS[key][0])
            check(0.0 <= v <= 1.0, key, f"{v} outside [0, 1]")
        check(0.0 <= self.smooth_eps < 1.0, "loss.smooth_eps",
              f"{self.smooth_eps} outside [0, 1)")
        for key in ("loss.gamma", "loss.w_box", "loss.w_obj", "loss.w_cls"):
            v = getattr(self, KEYS[key][0])
            check(v >= 0.0, key, f"{v} is below 0")
        return self

    @classmethod
    def default(cls, variant="full"):
        base = cls(variant=variant)
        if variant == "x-toy":
            base = replace(base, widths=(32, 64, 128))
        return base.validate()


def _fmt_anchors(level):
    return ",".join(f"{_fmt_float(aw)}x{_fmt_float(ah)}" for aw, ah in level)


def _parse_anchors(text):
    out = []
    for tok in text.split(","):
        aw, sep, ah = tok.partition("x")
        if not sep:
            raise ValueError(f"anchor {tok.strip()!r} is not of the form WxH")
        out.append((float(aw), float(ah)))
    return tuple(out)


def _parse_bool(text):
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text.lower() == "true"


def _fmt_float(v):
    """Six significant digits when they read back as v, else every digit."""
    text = f"{v:g}"
    return text if float(text) == v else repr(v)


# key -> (ModelConfig attribute, parser, formatter), in file order; the
# anchor keys follow these
KEYS = {
    "model.variant": ("variant", str, str),
    "model.num_classes": ("num_classes", int, str),
    "model.widths": ("widths", lambda s: tuple(int(t) for t in s.split(",")),
                     lambda ws: ",".join(str(w) for w in ws)),
    "model.seed": ("seed", int, str),
    "model.csp": ("csp_enabled", _parse_bool, lambda b: "true" if b else "false"),
    "detect.conf_threshold": ("conf_threshold", float, _fmt_float),
    "detect.nms_threshold": ("nms_threshold", float, _fmt_float),
    "loss.alpha": ("alpha", float, _fmt_float),
    "loss.gamma": ("gamma", float, _fmt_float),
    "loss.smooth_eps": ("smooth_eps", float, _fmt_float),
    "loss.w_box": ("w_box", float, _fmt_float),
    "loss.w_obj": ("w_obj", float, _fmt_float),
    "loss.w_cls": ("w_cls", float, _fmt_float),
    "attention.ca_ratio": ("ca_ratio", int, str),
    "attention.dyrelu_reduction": ("dyrelu_reduction", int, str),
    "attention.lambda_a": ("lambda_a", float, _fmt_float),
    "attention.lambda_b": ("lambda_b", float, _fmt_float),
}


def serialize_config(cfg: ModelConfig) -> str:
    lines = [f"{key} = {fmt(getattr(cfg, attr))}"
             for key, (attr, _, fmt) in KEYS.items()]
    lines += [f"{key} = {_fmt_anchors(level)}"
              for key, level in zip(ANCHOR_KEYS, cfg.anchors)]
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> ModelConfig:
    cfg = ModelConfig()
    anchors = list(cfg.anchors)
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (t.strip() for t in line.partition("="))
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key not in KEYS and key not in ANCHOR_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in lines:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}, "
                              f"first set on line {lines[key]}", key)
        lines[key] = lineno
        try:
            if key in ANCHOR_KEYS:
                anchors[ANCHOR_KEYS.index(key)] = _parse_anchors(value)
            else:
                attr, parse, _ = KEYS[key]
                setattr(cfg, attr, parse(value))
        except ValueError as e:
            raise ConfigError(f"line {lineno}: bad value for {key}: {e}", key) from e
    cfg.anchors = tuple(anchors)
    try:
        return cfg.validate()
    except ConfigError as e:
        if e.key not in lines:
            raise
        raise ConfigError(f"line {lines[e.key]}: {e}", e.key) from None


def load_config(path) -> ModelConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())
