"""Block-transform codec with an adaptive rate-distortion contract.

The coding chain is a blockwise orthonormal cosine transform (DCT-II: the
product ``C @ block @ C.T`` for every block, as two matmuls in the image's
layout) then uniform scalar quantization.  Bit counts are information-theoretic
estimates, the sum of ``-log2 p(symbol)`` under a symbol-frequency entropy
model, not an arithmetic-coded bitstream.  Two model flavors exist:

* a generic prior whose pseudo-counts decay polynomially with symbol
  magnitude, so small coefficients are cheap and large ones cost roughly
  ``3 * log2(1 + |s|)`` bits, and
* trained models re-estimated from the quantized coefficients of raw frames
  (``refine_model``), which exploit redundancy across similar frames.

The planner's compression ratio maps to a bit budget via ``rate_control``:
``target = ratio * 8 bits per pixel per channel``, met by a binary search
over the quantization-step grid.  Every bit count is
``EntropyModel.bits_for_counts``: the alphabet's symbol counts dotted with
``-log2 p``.  The transform does not depend on the step, so ``rate_control``
transforms the image once and sorts, once, only the coefficients with
``|c| > QUANT_STEP_GRID[0] / 2``: every other one is symbol 0 at every grid
step.  Each step it tries is counted from that sorted copy, plus symbol 0
for each coefficient left out: the counts ``encode`` takes at that step.
Only the step it returns is quantized; its frame keeps the search's bits.

Each stage drops every frame-sized array it no longer needs before it
allocates the next.  ``encode``, ``rate_control`` and ``refine_model`` take
their symbols from one quantizer, ``_quantize``, which rounds the quotient
in the coefficients' own buffer.  Counted in float64 arrays the size of the
padded frame (int64 symbols count the same), at their peak, for a C-ordered
image of any size (a side no block divides is edge-padded into a copy, which
the transform's column pass overwrites): ``encode`` and ``rate_control``
hold 2 (the transform's two, then the coefficients and their symbols;
``encode`` counts the symbols through a clipped copy once the
coefficients are gone, and the sorted copy is gone before ``rate_control``
quantizes), ``deserialize_frame`` 2 (the symbols and their clipped copy; the
payload is read through a view), ``decode`` 2 (the dequantized array, which
the inverse transform's column pass overwrites, and the row pass's product),
and ``refine_model`` 2 over any number of frames (as ``encode``, and nothing
is held into the next frame).
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ValidationError
from .fourier import check_image

DEFAULT_SYMBOL_RADIUS = 2048
GENERIC_DECAY_POWER = 3
SMOOTHING = 1.0

# Quantization steps searched by rate_control, finest first.  For unit-range
# images |coeff| <= block_size, so the finest step gives |symbol| <=
# block_size / 0.004: inside the default alphabet (radius 2048) only for
# block sizes up to 8 (2000 at 8).  A symbol beyond the radius is priced as
# the edge symbol.
QUANT_STEP_GRID = np.geomspace(0.004, 16.0, num=60)

FRAME_MAGIC = b"VCQ1"
FRAME_VERSION = 1


@dataclass(frozen=True)
class CodecConfig:
    block_size: int = 8
    quant_step: float = 0.05
    rate_tolerance: float = 0.05

    def __post_init__(self):
        if not (1 <= self.block_size <= 255):  # the frame container stores it in one byte
            raise ValidationError(f"block_size must lie in [1, 255], got {self.block_size}")
        if not (0 < self.quant_step < math.inf):
            raise ValidationError("quant_step must be positive and finite")
        if self.block_size / self.quant_step >= 2.0 ** 62:  # |coeff| <= block_size
            raise ValidationError(f"quant_step {self.quant_step:g} is too fine: "
                                  "quantized coefficients overflow int64")
        if not (0 <= self.rate_tolerance < math.inf):
            raise ValidationError("rate_tolerance must be non-negative and finite")


class EntropyModel:
    """Symbol-frequency table over quantized coefficients in [-radius, radius].

    Frequencies are kept >= the smoothing constant so every symbol has
    positive probability.  Models are immutable in practice: refinement
    returns a new instance.
    """

    def __init__(self, freq: np.ndarray, radius: int, model_id: str):
        freq = np.asarray(freq, dtype=float)
        if radius < 1 or radius > 32767:
            raise ValidationError("radius must lie in [1, 32767]")
        if freq.shape != (2 * radius + 1,):
            raise ValidationError(
                f"frequency table must have {2 * radius + 1} entries")
        if np.any(freq < SMOOTHING):
            raise ValidationError(
                f"all frequencies must be >= smoothing constant {SMOOTHING}")
        self.freq = freq
        self.radius = radius
        self.model_id = model_id
        self._log2_prob = np.log2(freq) - math.log2(freq.sum())

    @classmethod
    def generic(cls, radius: int = DEFAULT_SYMBOL_RADIUS) -> "EntropyModel":
        """Data-free prior: pseudo-counts ((radius+1) / (1+|s|)) ** 3."""
        symbols = np.abs(np.arange(-radius, radius + 1))
        freq = ((radius + 1.0) / (1.0 + symbols)) ** GENERIC_DECAY_POWER
        return cls(freq, radius, model_id=f"generic-r{radius}")

    def bits_for_counts(self, counts: np.ndarray) -> float:
        """Estimated bits of ``counts[k]`` symbols ``k - radius`` for each k."""
        return float(-(counts @ self._log2_prob))

    def bits_for_symbols(self, symbols: np.ndarray) -> float:
        """Estimated bits: sum of -log2 p over (alphabet-clipped) symbols."""
        return self.bits_for_counts(_symbol_counts(symbols, self.radius))


def _symbol_counts(symbols: np.ndarray, radius: int) -> np.ndarray:
    """int64 counts of the integer ``symbols`` clipped to [-radius, radius],
    indexed by symbol + radius; the clip works on a copy."""
    idx = np.clip(symbols, -radius, radius, dtype=np.int64)
    idx += radius
    return np.bincount(idx.ravel(), minlength=2 * radius + 1)


@dataclass(frozen=True)
class EncodedFrame:
    """Quantized transform coefficients plus the bit estimate for one image,
    shaped (H, W) or (H, W, 3).

    ``qcoeffs`` is laid out like the padded image: (padH, padW) for grayscale
    or (padH, padW, 3) for color.  ``bit_count`` is computed from the model
    at encode time, never patched afterwards.
    """

    qcoeffs: np.ndarray
    quant_step: float
    model_id: str
    bit_count: float
    height: int
    width: int
    channels: int
    block_size: int


@functools.cache
def _dct_basis(block: int) -> np.ndarray:
    """Orthonormal DCT-II matrix C (rows are basis vectors), read-only."""
    k = np.arange(block)[:, None]
    i = np.arange(block)[None, :]
    c = math.sqrt(2.0 / block) * np.cos(math.pi * (2 * i + 1) * k / (2 * block))
    c[0] = math.sqrt(1.0 / block)
    c.setflags(write=False)
    return c


@functools.cache
def _right_factor(block: int, channels: int, forward: bool) -> np.ndarray:
    """The read-only factor that contracts ``_blockwise``'s column index:
    ``C.T`` (``C`` for the inverse), or its ``kron`` with the identity when
    ``channels`` interleaved channels share each row."""
    c = _dct_basis(block) if forward else _dct_basis(block).T
    if channels == 1:
        return c.T  # a view of the read-only basis
    right = np.kron(c.T, np.eye(channels))
    right.setflags(write=False)
    return right


def _blockwise(x: np.ndarray, block: int, forward: bool, out: np.ndarray) -> np.ndarray:
    """Block DCT (``(C @ tile) @ C.T``) or its inverse (``(C.T @ tile) @ C``)
    of every block x block tile over the first two axes, written into ``out``
    (a C-contiguous float64 array shaped like ``x``, which may be ``x``
    itself) and returned; a trailing channel axis is kept.  ``C`` times each
    block row contracts the row index, then the (-1, block * channels) view
    times ``C.T`` (``kron(C.T, I)`` for interleaved channels) the column
    index: the per-tile sums in the same order, kron's zeros adding exactly
    (fma(0, x, acc) = acc for finite x)."""
    h, w = x.shape[:2]
    ch = 1 if x.ndim == 2 else x.shape[2]
    c = _dct_basis(block) if forward else _dct_basis(block).T
    rows = c @ x.reshape(h // block, block, w * ch)
    np.matmul(rows.reshape(-1, block * ch), _right_factor(block, ch, forward),
              out=out.reshape(-1, block * ch))
    return out


def _transform(img: np.ndarray, block: int) -> tuple[np.ndarray, np.ndarray]:
    """The checked image (``check_image``: values in [0, 1]) and its block-DCT
    coefficients, laid out like the edge-padded image: (padH, padW) or (padH,
    padW, channels).  Every coefficient has |c| <= block (up to rounding), so
    ``CodecConfig``'s step limit keeps ``c / step`` inside int64."""
    arr = check_image(img)
    h, w = arr.shape[:2]
    padded = arr
    if h % block or w % block:
        pad = ((0, (-h) % block), (0, (-w) % block)) + ((0, 0),) * (arr.ndim - 2)
        padded = np.pad(arr, pad, mode="edge")
    # the column pass overwrites the padded copy, never the caller's array;
    # np.pad keeps an F-ordered input's order, which ``out`` may not have
    out = padded if padded is not arr and padded.flags.c_contiguous else np.empty(padded.shape)
    return arr, _blockwise(padded, block, True, out)


def _quantize(coeffs: np.ndarray, step: float) -> np.ndarray:
    """The int64 symbols ``rint(coeffs / step)``, rounded in ``coeffs``' own
    buffer, which is left holding the rounded quotient: a caller drops
    ``coeffs`` before it prices the symbols."""
    return np.rint(np.divide(coeffs, step, out=coeffs), out=coeffs).astype(np.int64)


def _frame(arr: np.ndarray, q: np.ndarray, step: float, block: int,
           em: EntropyModel, bits: float) -> EncodedFrame:
    """The frame of the symbols ``q`` of the checked image ``arr``."""
    return EncodedFrame(qcoeffs=q, quant_step=step, model_id=em.model_id, bit_count=bits,
                        height=arr.shape[0], width=arr.shape[1],
                        channels=1 if arr.ndim == 2 else arr.shape[2], block_size=block)


def encode(img: np.ndarray, cfg: CodecConfig, em: EntropyModel) -> EncodedFrame:
    """Transform, quantize, and price an image under the entropy model."""
    arr, coeffs = _transform(img, cfg.block_size)
    q = _quantize(coeffs, cfg.quant_step)
    del coeffs  # before pricing allocates its clipped copy
    return _frame(arr, q, cfg.quant_step, cfg.block_size, em, em.bits_for_symbols(q))


def decode(frame: EncodedFrame) -> np.ndarray:
    """Dequantize and inverse-transform; output clipped to [0, 1].  Raises
    ValidationError when the reconstruction overflows to non-finite values."""
    q = frame.qcoeffs
    expected_pad = (frame.height + (-frame.height) % frame.block_size,
                    frame.width + (-frame.width) % frame.block_size)
    if q.shape[:2] != expected_pad:
        raise ValidationError(
            f"coefficient layout {q.shape[:2]} does not match padded dims {expected_pad}")
    with np.errstate(over="ignore", invalid="ignore"):
        rec = np.multiply(q, frame.quant_step, order="C")
        _blockwise(rec, frame.block_size, False, out=rec)  # the column pass overwrites rec
    if not np.all(np.isfinite(rec)):
        raise ValidationError(
            f"reconstruction is not finite at quantization step {frame.quant_step}")
    if q.shape[:2] == (frame.height, frame.width):  # nothing to crop: clip in place
        return np.clip(rec, 0.0, 1.0, out=rec)
    return np.clip(rec[:frame.height, :frame.width], 0.0, 1.0)


def _window_counts(ordered: np.ndarray, step: float,
                   radius: int) -> tuple[int, np.ndarray]:
    """How often each symbol ``clip(rint(c / step), -radius, radius)`` occurs
    among the ascending values ``ordered``, over the occupied window:
    ``(low, counts)`` with ``counts[k]`` the count of symbol ``low + k``, for
    the symbols from the smallest value's to the largest's; ``(0, [])`` for
    no values.

    The symbol is non-decreasing in c, so symbol v starts at the first value
    at or above ``(v - 1/2) * step``; only the symbols inside the window need
    a search.  The division and the threshold each round, so values within a
    relative 2**-40 of a threshold (a few, unless they repeat) are quantized
    as encode does and placed by their own symbol; ties at half-integers thus
    round as ``rint`` does.
    """
    if not ordered.size:
        return 0, np.zeros(0, dtype=np.int64)

    def symbol(x):
        return np.clip(np.rint(x / step), -radius, radius)

    low, high = symbol(ordered[[0, -1]]).astype(np.int64)
    v = np.arange(low + 1, high + 1)
    t = (v - 0.5) * step
    band = np.abs(t) * 2.0 ** -40
    first = np.searchsorted(ordered, t - band)  # values below: symbol < v
    width = np.searchsorted(ordered, t + band) - first  # values from there on: symbol >= v
    if width.any():
        skipped = np.cumsum(width) - width  # near values of the lower thresholds
        near = ordered[np.arange(width.sum()) + np.repeat(first - skipped, width)]
        first += np.searchsorted(symbol(near), v) - skipped
    counts = np.empty(v.size + 1, dtype=np.int64)
    counts[:-1] = first
    counts[-1] = ordered.size
    counts[1:] -= first
    return int(low), counts


def rate_control(img: np.ndarray, ratio: float, em: EntropyModel,
                 cfg: CodecConfig) -> tuple[float, EncodedFrame]:
    """Pick a grid step whose bit estimate fits the ratio's budget.

    The budget is ``ratio * pixels * channels * 8`` bits with
    ``rate_tolerance`` relative slack.  The image is transformed once.  A
    coefficient with ``|c| <= QUANT_STEP_GRID[0] / 2`` is symbol 0 at every
    grid step, so only the others are sorted, once; a binary search over the
    grid then prices each step it tries from the symbol counts of that sorted
    copy over the symbols it occupies, plus symbol 0 for each coefficient
    left out: the counts ``encode`` prices, so each step's bits are
    ``encode``'s exactly.  The returned step fits the budget and the next
    finer grid step (if any) does not, so it is the finest feasible step
    whenever bit counts are non-increasing in the step.  Only that step is
    quantized, in the coefficients' buffer, which the search no longer
    needs; its frame keeps the search's bits and equals ``encode`` at that
    step.
    """
    if not (0 < ratio <= 1):
        raise ValidationError("ratio must lie in (0, 1]")
    arr, coeffs = _transform(img, cfg.block_size)
    allowed = (1.0 + cfg.rate_tolerance) * ratio * (arr.size * 8)

    grid = QUANT_STEP_GRID
    # |c / step| <= 1/2 rounds to 0 (ties to even) at every grid step
    flat = coeffs.reshape(-1)
    half = grid[0] / 2
    ordered = flat[~((flat <= half) & (flat >= -half))]
    ordered.sort()

    def price(idx: int) -> float:
        low, window = _window_counts(ordered, float(grid[idx]), em.radius)
        counts = np.zeros(2 * em.radius + 1, dtype=np.int64)
        counts[low + em.radius:low + em.radius + window.size] = window
        counts[em.radius] += flat.size - ordered.size
        return em.bits_for_counts(counts)

    bits = price(len(grid) - 1)
    if bits > allowed:
        raise BudgetError(
            f"budget {allowed:.1f} bits unreachable: coarsest step "
            f"{grid[-1]:.4g} still needs {bits:.1f} bits")

    # each mid lies in [lo, hi) and leaves that range once tried, so no step
    # is priced twice
    lo, hi = 0, len(grid) - 1  # hi fits, at `bits`; lo - 1, if tried, does not
    while lo < hi:
        mid = (lo + hi) // 2
        mid_bits = price(mid)
        if mid_bits <= allowed:
            hi, bits = mid, mid_bits
        else:
            lo = mid + 1
    del ordered  # before the chosen step is quantized
    step = float(grid[hi])
    return step, _frame(arr, _quantize(coeffs, step), step, cfg.block_size, em, bits)


def refine_model(em: EntropyModel, raw_frames: list[np.ndarray],
                 cfg: CodecConfig) -> EntropyModel:
    """Re-estimate symbol frequencies from the quantized coefficients of raw frames.

    Returns a new model over the same alphabet, its counts plus add-one
    smoothing; the input model is untouched and can keep serving concurrent
    encoders.
    """
    if not raw_frames:
        raise ValidationError("refinement needs at least one raw frame")
    counts = np.zeros(2 * em.radius + 1)
    for raw in raw_frames:
        _, coeffs = _transform(raw, cfg.block_size)
        q = _quantize(coeffs, cfg.quant_step)
        del coeffs  # before counting allocates its clipped copy
        counts += _symbol_counts(q, em.radius)
        del q  # not held through the next frame's transform
    return EntropyModel(counts + SMOOTHING, em.radius,
                        model_id=f"refined-n{len(raw_frames)}-q{cfg.quant_step:g}")


def serialize_frame(frame: EncodedFrame) -> bytes:
    """Pack a frame into the versioned binary container (see docs/formats.md)."""
    q = frame.qcoeffs
    if q.min() < -32767 or q.max() > 32767:
        raise ValidationError(
            "coefficients exceed the int16 wire range; use a coarser quant_step")
    model_id = frame.model_id.encode("utf-8")
    if len(model_id) > 255:
        raise ValidationError("model_id longer than 255 bytes")
    pad_h, pad_w = q.shape[:2]
    if max(pad_h, pad_w) > 65535:
        raise ValidationError(
            f"padded image {pad_h}x{pad_w} exceeds the container's limit of 65535 per side")
    header = struct.pack("<4sBBBBHHHHd", FRAME_MAGIC, FRAME_VERSION, frame.channels,
                         frame.block_size, len(model_id), frame.height, frame.width,
                         pad_h, pad_w, frame.quant_step)
    return b"".join((header, model_id, q.astype("<i2", order="C")))


def deserialize_frame(data: bytes, em: EntropyModel | None = None) -> EncodedFrame:
    """Unpack a frame container; recomputes bit_count when a model is given.

    Without a model the bit count is NaN, since estimates are only defined
    relative to a symbol distribution.
    """
    if len(data) < 24:
        raise ValidationError("frame container truncated")
    if data[:4] != FRAME_MAGIC:
        raise ValidationError("bad magic; not a frame container")
    version, channels, block_size, id_len = struct.unpack("<BBBB", data[4:8])
    if version != FRAME_VERSION:
        raise ValidationError(f"unsupported container version {version}")
    height, width, pad_h, pad_w = struct.unpack("<HHHH", data[8:16])
    (quant_step,) = struct.unpack("<d", data[16:24])
    if channels not in (1, 3):
        raise ValidationError(f"channel count must be 1 or 3, got {channels}")
    if block_size < 1:
        raise ValidationError("block size must be >= 1")
    if height < 1 or width < 1:
        raise ValidationError(f"height and width must be >= 1, got {height}x{width}")
    expected_pad = (height + (-height) % block_size, width + (-width) % block_size)
    if (pad_h, pad_w) != expected_pad:
        raise ValidationError(
            f"padded dims {pad_h}x{pad_w} are not {height}x{width} rounded up "
            f"to the block size {block_size}")
    if not (math.isfinite(quant_step) and quant_step > 0):
        raise ValidationError(f"quantization step must be finite and positive, got {quant_step}")
    try:
        model_id = data[24:24 + id_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"model id is not valid UTF-8: {exc}") from None
    payload = memoryview(data)[24 + id_len:]  # a view, not a copy of the coefficients
    expected = pad_h * pad_w * channels * 2
    if len(payload) != expected:
        raise ValidationError(
            f"payload is {len(payload)} bytes, expected {expected}")
    wire = np.frombuffer(payload, dtype="<i2")
    if not math.isfinite(max(-int(wire.min()), int(wire.max())) * quant_step):
        raise ValidationError(
            f"quantization step {quant_step} overflows on dequantization")
    shape = (pad_h, pad_w) if channels == 1 else (pad_h, pad_w, channels)
    q = wire.astype(np.int64).reshape(shape)
    if em is not None and em.model_id != model_id:
        raise ValidationError(
            f"container was priced under model '{model_id}', got '{em.model_id}'")
    return EncodedFrame(qcoeffs=q, quant_step=quant_step, model_id=model_id,
                        bit_count=math.nan if em is None else em.bits_for_symbols(q),
                        height=height, width=width, channels=channels, block_size=block_size)
