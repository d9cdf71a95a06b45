"""Binary PGM (P5) and PPM (P6) image files, 8-bit, mapped linearly to [0, 1].

Writing rounds to the nearest of 256 levels with maxval 255; reading a file
produced by :func:`write_image` reproduces the pixel bytes exactly.
:func:`read_samples` checks a file and keeps its 8-bit samples;
:func:`read_image` maps them to float64 as ``samples / maxval``.
:class:`ImageSet` reads and checks a set of files up front but holds only
their samples, building a float64 frame on each lookup.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

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


def read_samples(path) -> tuple[np.ndarray, int]:
    """Check a P5/P6 file and return its read-only uint8 samples, (H, W) or
    (H, W, 3), with its maxval; no sample exceeds maxval."""
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
    shape = (height, width) if channels == 1 else (height, width, 3)
    return samples.reshape(shape), maxval


def read_image(path) -> np.ndarray:
    """Load a P5/P6 file as float64 in [0, 1]; (H, W) or (H, W, 3)."""
    samples, maxval = read_samples(path)
    return samples / maxval


class ImageSet(Mapping):
    """Read-only ``{key: image}`` over image files: every file is read and
    checked at construction, in the order given, and kept as its 8-bit
    samples; each lookup returns a new float64 frame, ``read_image``'s."""

    def __init__(self, paths: Mapping):
        self._samples = {key: read_samples(path) for key, path in paths.items()}

    def __getitem__(self, key) -> np.ndarray:
        samples, maxval = self._samples[key]
        return samples / maxval

    def __contains__(self, key) -> bool:  # Mapping's would build the frame
        return key in self._samples

    def __iter__(self) -> Iterator:
        return iter(self._samples)

    def __len__(self) -> int:
        return len(self._samples)


def write_image(path, img: np.ndarray) -> None:
    """Save as P5 (2-D input) or P6 (H x W x 3 input), maxval 255."""
    arr = np.asarray(img, dtype=float)
    if arr.ndim == 2:
        magic = b"P5"
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"P6"
    else:
        raise ImageFormatError(f"cannot map shape {arr.shape} onto P5/P6")
    quantized = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    header = b"%s\n%d %d\n255\n" % (magic, arr.shape[1], arr.shape[0])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(quantized.tobytes(order="C"))
