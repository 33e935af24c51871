"""Binary portable pixmap (P6) and graymap (P5) I/O, maxval 255 only.

Kept dependency-free so image bytes round-trip exactly; parse errors
report the byte offset they were detected at.
"""

from __future__ import annotations

import numpy as np


class ImageFormatError(ValueError):
    pass


def _read_token(data, off):
    while off < len(data):
        c = data[off: off + 1]
        if c == b"#":
            while off < len(data) and data[off: off + 1] != b"\n":
                off += 1
        elif c.isspace():
            off += 1
        else:
            break
    start = off
    while off < len(data) and not data[off: off + 1].isspace():
        off += 1
    if start == off:
        raise ImageFormatError(f"missing header token at byte {start}")
    return data[start:off], off


def read_ppm(path):
    """Read a binary P6 file into a [3, H, W] float array in [0, 1]."""
    with open(path, "rb") as f:
        data = f.read()
    magic, off = _read_token(data, 0)
    if magic != b"P6":
        raise ImageFormatError(f"bad magic {magic!r} at byte 0, expected b'P6'")
    fields = []
    for _ in range(3):
        tok, off = _read_token(data, off)
        try:
            fields.append(int(tok))
        except ValueError:
            raise ImageFormatError(f"non-numeric header token {tok!r} "
                                   f"near byte {off}") from None
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise ImageFormatError(f"non-positive image extent {w}x{h} in header")
    if maxval != 255:
        raise ImageFormatError(f"unsupported maxval {maxval} (only 255)")
    off += 1  # single whitespace byte after maxval
    need = 3 * w * h
    pix = data[off: off + need]
    if len(pix) != need:
        raise ImageFormatError(
            f"pixel payload truncated at byte {off + len(pix)}: "
            f"have {len(pix)} of {need} bytes")
    arr = np.frombuffer(pix, dtype=np.uint8).reshape(h, w, 3)
    return arr.transpose(2, 0, 1).astype(np.float64) / 255.0


def write_ppm(path, image):
    """Write a [3, H, W] float array in [0, 1] as binary P6."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] != 3:
        raise ImageFormatError(f"expected [3, H, W] image, got {image.shape}")
    h, w = image.shape[1:]
    pix = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(pix.transpose(1, 2, 0).tobytes())


def write_pgm(path, plane):
    """Write a 2-D array as binary P5, min-max normalized to 0..255."""
    plane = np.asarray(plane, dtype=np.float64)
    if plane.ndim != 2:
        raise ImageFormatError(f"expected a 2-D plane, got shape {plane.shape}")
    lo = plane.min()
    hi = plane.max()
    span = hi - lo if hi > lo else 1.0
    pix = np.round((plane - lo) / span * 255.0).astype(np.uint8)
    h, w = plane.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(pix.tobytes())
