"""Model assembly per variant, weight persistence, and the full
image -> raw-predictions forward/backward pair.  A `Model` holds only its
children and is built with zero weights; `build_model` draws them."""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

from .attention import TDAHead
from .config import ModelConfig
from .layers import Layer, init_params
from .neck import Neck, ToyBackbone

WEIGHT_MAGIC = b"3AW1"


class WeightFileError(ValueError):
    pass


class Model(Layer):
    def __init__(self, cfg: ModelConfig):
        cfg.validate()
        self.backbone = ToyBackbone(cfg.widths, depthwise=cfg.depthwise)
        self.neck = Neck(cfg.widths, cfg.ca_ratio, cfg.csp_enabled,
                         cfg.depthwise)
        a = len(cfg.anchors[0])
        self.heads = [
            TDAHead(c, cfg.n_blocks, cfg.num_classes, a, cfg.dyrelu_reduction,
                    cfg.lambda_a, cfg.lambda_b, cfg.depthwise)
            for c in cfg.head_channels
        ]

    def forward(self, image):
        """image [3, H, W] -> list of raw prediction maps, one per level."""
        pyr = self.neck.forward(*self.backbone.forward(image))
        return [head.forward(p) for head, p in zip(self.heads, pyr)]

    def backward(self, graws):
        gps = [head.backward(g) for head, g in zip(self.heads, graws)]
        gc3, gc4, gc5 = self.neck.backward(*gps)
        return self.backbone.backward(gc3, gc4, gc5)

    def checksum(self):
        digest = hashlib.sha256()
        for name, p in sorted(self.named_params()):
            digest.update(name.encode())
            digest.update(p.value.astype("<f4").tobytes())
        return digest.hexdigest()


def build_model(cfg: ModelConfig) -> Model:
    return init_params(Model(cfg), np.random.default_rng(cfg.seed))


def save_weights(model: Model, path):
    entries = sorted(model.named_params())
    with open(path, "wb") as f:
        f.write(WEIGHT_MAGIC)
        f.write(struct.pack("<I", len(entries)))
        for name, p in entries:
            payload = p.value.astype("<f4")
            nb = name.encode()
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<BB", 0, payload.ndim))
            f.write(struct.pack(f"<{payload.ndim}I", *payload.shape))
            f.write(struct.pack("<Q", payload.nbytes))
        for _, p in entries:
            f.write(p.value.astype("<f4").tobytes())


def load_weights(model: Model, path):
    known = dict(model.named_params())
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != WEIGHT_MAGIC:
        raise WeightFileError(
            f"bad magic {data[:4]!r} at byte 0, expected {WEIGHT_MAGIC!r}")
    off = 4
    try:
        (count,) = struct.unpack_from("<I", data, off)
        off += 4
        manifest = []
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", data, off)
            off += 2
            try:
                name = data[off: off + nlen].decode()
            except UnicodeDecodeError as e:
                raise WeightFileError(
                    f"tensor name at byte {off + e.start} is not UTF-8") from e
            off += nlen
            dtype, ndim = struct.unpack_from("<BB", data, off)
            off += 2
            shape = struct.unpack_from(f"<{ndim}I", data, off)
            off += 4 * ndim
            (nbytes,) = struct.unpack_from("<Q", data, off)
            off += 8
            manifest.append((name, dtype, shape, nbytes))
    except struct.error as e:
        raise WeightFileError(f"truncated manifest at byte {off}: {e}") from e
    seen, dups = set(), set()
    for name, *_ in manifest:
        (dups if name in seen else seen).add(name)
    for name, dtype, shape, nbytes in manifest:
        if name in dups:
            raise WeightFileError(f"duplicate tensor name {name!r} in manifest")
        if name not in known:
            raise WeightFileError(f"unknown tensor name {name!r} in manifest")
        if dtype != 0:
            raise WeightFileError(f"unsupported dtype code {dtype} for {name!r}")
        if tuple(shape) != known[name].value.shape:
            raise WeightFileError(
                f"shape {tuple(shape)} for {name!r} disagrees with model "
                f"shape {known[name].value.shape}")
        if nbytes != math.prod(shape) * 4:
            raise WeightFileError(
                f"manifest byte length {nbytes} for {name!r} does not match "
                f"shape {tuple(shape)}")
    missing = set(known) - seen
    if missing:
        raise WeightFileError(f"manifest is missing tensors: {sorted(missing)}")
    # check every payload before assigning any: a bad file changes nothing
    start = off
    for name, _, _, nbytes in manifest:
        if off + nbytes > len(data):
            raise WeightFileError(
                f"truncated payload for {name!r} at byte {off}")
        off += nbytes
    if off != len(data):
        raise WeightFileError(
            f"{len(data) - off} trailing bytes after the last payload at byte {off}")
    # one float64 copy of every payload; each tensor gets a slice of it
    values = np.frombuffer(data, dtype="<f4", offset=start).astype(np.float64)
    staged, at = [], 0
    for name, _, shape, nbytes in manifest:
        staged.append((name, values[at: at + nbytes // 4].reshape(shape)))
        at += nbytes // 4
    # one check covers every payload; a failure then names the tensor
    if not np.isfinite(values).all():
        for name, arr in staged:
            bad = arr.size - np.count_nonzero(np.isfinite(arr))
            if bad:
                raise WeightFileError(
                    f"payload for {name!r} holds {bad} non-finite value(s)")
    for name, arr in staged:
        p = known[name]
        p.value = arr
        p.grad = np.zeros(arr.shape)
    return model
