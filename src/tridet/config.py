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
ANCHOR_DOMAIN = (math.nextafter(0.0, 1.0), 1e4)  # (0, 1e4], as closed floats


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
        def fail(key, msg):
            raise ConfigError(f"bad value for {key}: {msg}", key)

        # every key's value (each element of a tuple), then each anchor extent
        rows = [(key, getattr(self, attr), dom)
                for key, (attr, _, _, dom) in KEYS.items()]
        rows += [(key, sum(level, ()), ANCHOR_DOMAIN)
                 for key, level in zip(ANCHOR_KEYS, self.anchors)]
        for key, value, dom in rows:
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    fail(key, f"{v} is not finite")
                if isinstance(dom[0], str):
                    if v not in dom:
                        fail(key, f"{v!r} is not one of {', '.join(dom)}")
                elif not dom[0] <= v <= dom[1]:
                    fail(key, f"{v} outside [{dom[0]}, {dom[1]}]")
        if len(self.widths) != 3:
            fail("model.widths", f"need three widths, got {self.widths}")
        for w in self.widths:
            if w % self.ca_ratio:
                fail("attention.ca_ratio",
                     f"{self.ca_ratio} does not divide width {w}")
        counts = [len(level) for level in self.anchors]
        if len(set(counts)) > 1:
            # blame the level whose anchor count is the odd one out
            odd = min(range(len(counts)), key=lambda i: counts.count(counts[i]))
            fail(ANCHOR_KEYS[odd], f"{counts[odd]} anchors, but the levels "
                 f"p3/p4/p5 need equal counts, got {counts}")
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


# key -> (ModelConfig attribute, parser, formatter, domain), in file order;
# the anchor keys follow these.  A domain is a tuple of allowed strings or a
# closed interval (lo, hi) holding the value, or each of its elements.
KEYS = {
    "model.variant": ("variant", str, str, VARIANTS),
    "model.num_classes": ("num_classes", int, str, (1, 1000)),
    "model.widths": ("widths", lambda s: tuple(int(t) for t in s.split(",")),
                     lambda ws: ",".join(str(w) for w in ws), (4, 1024)),
    "model.seed": ("seed", int, str, (0, math.inf)),
    "model.csp": ("csp_enabled", _parse_bool,
                  lambda b: "true" if b else "false", (False, True)),
    "detect.conf_threshold": ("conf_threshold", float, _fmt_float, (0, 1)),
    "detect.nms_threshold": ("nms_threshold", float, _fmt_float, (0, 1)),
    "loss.alpha": ("alpha", float, _fmt_float, (0, 1)),
    "loss.gamma": ("gamma", float, _fmt_float, (0, math.inf)),
    "loss.smooth_eps": ("smooth_eps", float, _fmt_float,
                        (0, math.nextafter(1.0, 0.0))),  # [0, 1)
    "loss.w_box": ("w_box", float, _fmt_float, (0, 100)),
    "loss.w_obj": ("w_obj", float, _fmt_float, (0, 100)),
    "loss.w_cls": ("w_cls", float, _fmt_float, (0, 100)),
    "attention.ca_ratio": ("ca_ratio", int, str, (1, math.inf)),
    "attention.dyrelu_reduction": ("dyrelu_reduction", int, str, (1, math.inf)),
    "attention.lambda_a": ("lambda_a", float, _fmt_float, (0, 10)),
    "attention.lambda_b": ("lambda_b", float, _fmt_float, (0, 10)),
}


def serialize_config(cfg: ModelConfig) -> str:
    lines = [f"{key} = {fmt(getattr(cfg, attr))}"
             for key, (attr, _, fmt, _) in KEYS.items()]
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
                attr, parse, _, _ = KEYS[key]
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
