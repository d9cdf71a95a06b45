"""Binary PGM (P5) and PPM (P6) image files, 8-bit, mapped linearly to [0, 1].

Writing rounds to the nearest of 256 levels with maxval 255; reading a file
produced by :func:`write_image` reproduces the pixel bytes exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import ImageFormatError


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comments between header tokens
    while pos < len(data):
        ch = data[pos:pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < len(data) and not data[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ImageFormatError("unexpected end of header")
    return data[start:pos], pos


def read_image(path) -> np.ndarray:
    """Load a P5/P6 file as float64 in [0, 1]; (H, W) or (H, W, 3)."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, pos = _read_token(data, 0)
    if magic not in (b"P5", b"P6"):
        raise ImageFormatError(f"unsupported magic {magic!r}; need binary P5 or P6")
    fields = []
    for _ in range(3):
        token, pos = _read_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError as exc:
            raise ImageFormatError(f"non-numeric header token {token!r}") from exc
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ImageFormatError(f"bad dimensions {width}x{height}")
    if not (0 < maxval < 256):
        raise ImageFormatError(f"only 8-bit data supported, maxval={maxval}")
    pos += 1  # single whitespace after maxval
    channels = 1 if magic == b"P5" else 3
    expected = width * height * channels
    payload = data[pos:pos + expected]
    if len(payload) != expected:
        raise ImageFormatError(
            f"payload has {len(payload)} bytes, expected {expected}")
    samples = np.frombuffer(payload, dtype=np.uint8)
    if samples.max() > maxval:
        raise ImageFormatError(f"sample {samples.max()} exceeds maxval {maxval}")
    arr = samples.astype(float) / maxval
    if channels == 1:
        return arr.reshape(height, width)
    return arr.reshape(height, width, 3)


def write_image(path, img: np.ndarray) -> None:
    """Save as P5 (2-D input) or P6 (H x W x 3 input), maxval 255."""
    arr = np.asarray(img, dtype=float)
    if arr.ndim == 2:
        magic = b"P5"
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"P6"
    elif arr.ndim == 3 and arr.shape[2] == 1:
        magic = b"P5"
        arr = arr[:, :, 0]
    else:
        raise ImageFormatError(f"cannot map shape {arr.shape} onto P5/P6")
    quantized = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    header = b"%s\n%d %d\n255\n" % (magic, arr.shape[1], arr.shape[0])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(quantized.tobytes(order="C"))
