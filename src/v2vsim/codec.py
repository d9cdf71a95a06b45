"""Block-transform codec with an adaptive rate-distortion contract.

The coding chain is a blockwise orthonormal cosine transform followed by
uniform scalar quantization.  Bit counts are information-theoretic estimates,
the sum of ``-log2 p(symbol)`` under a symbol-frequency entropy model, not an
arithmetic-coded bitstream.  Two model flavors exist:

* a generic prior whose pseudo-counts decay polynomially with symbol
  magnitude, so small coefficients are cheap and large ones cost roughly
  ``3 * log2(1 + |s|)`` bits, and
* trained models re-estimated from the quantized coefficients of raw frames
  (``refine_model``), which exploit redundancy across similar frames.

The planner's compression ratio maps to a bit budget via ``rate_control``:
``target = ratio * 8 bits per pixel per channel``, met by searching the
quantization-step grid for the finest step within tolerance.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, replace

import numpy as np
from scipy.fft import dctn, idctn

from .errors import BudgetError, ValidationError
from .fourier import check_image

DEFAULT_SYMBOL_RADIUS = 2048
GENERIC_DECAY_POWER = 3
SMOOTHING = 1.0

# Quantization steps searched by rate_control, finest first.  The floor keeps
# every reachable symbol inside the default alphabet (|coeff| <= block_size
# for unit-range images, so |symbol| <= 8 / 0.004 = 2000 <= 2048).
QUANT_STEP_GRID = np.geomspace(0.004, 16.0, num=60)

FRAME_MAGIC = b"VCQ1"
FRAME_VERSION = 1


@dataclass(frozen=True)
class CodecConfig:
    block_size: int = 8
    quant_step: float = 0.05
    rd_weight_max: float = 100.0
    rd_weight_power: float = 2.0
    rate_tolerance: float = 0.05

    def __post_init__(self):
        if self.block_size < 1:
            raise ValidationError("block_size must be >= 1")
        if self.quant_step <= 0:
            raise ValidationError("quant_step must be positive")
        if self.rd_weight_max <= 0:
            raise ValidationError("rd_weight_max must be positive")
        if self.rd_weight_power < 1:
            raise ValidationError("rd_weight_power must be >= 1")
        if self.rate_tolerance < 0:
            raise ValidationError("rate_tolerance must be non-negative")


class EntropyModel:
    """Symbol-frequency table over quantized coefficients in [-radius, radius].

    Frequencies are kept >= the smoothing constant so every symbol has
    positive probability.  Models are immutable in practice: refinement
    returns a new instance.
    """

    def __init__(self, freq: np.ndarray, radius: int, model_id: str,
                 trained_on: int = 0):
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
        self.trained_on = trained_on
        self._log2_prob = np.log2(freq) - math.log2(freq.sum())

    @classmethod
    def generic(cls, radius: int = DEFAULT_SYMBOL_RADIUS) -> "EntropyModel":
        """Data-free prior: pseudo-counts ((radius+1) / (1+|s|)) ** 3."""
        symbols = np.abs(np.arange(-radius, radius + 1))
        freq = ((radius + 1.0) / (1.0 + symbols)) ** GENERIC_DECAY_POWER
        return cls(freq, radius, model_id=f"generic-r{radius}", trained_on=0)

    @classmethod
    def from_counts(cls, counts: np.ndarray, radius: int, model_id: str,
                    trained_on: int) -> "EntropyModel":
        """Empirical counts plus add-one smoothing."""
        counts = np.asarray(counts, dtype=float)
        if counts.shape != (2 * radius + 1,):
            raise ValidationError("count table size must match the radius")
        if np.any(counts < 0):
            raise ValidationError("counts must be non-negative")
        return cls(counts + SMOOTHING, radius, model_id, trained_on)

    def probabilities(self) -> np.ndarray:
        return self.freq / self.freq.sum()

    def clip_symbols(self, symbols: np.ndarray) -> np.ndarray:
        return np.clip(symbols, -self.radius, self.radius)

    def bits_for_symbols(self, symbols: np.ndarray) -> float:
        """Estimated bits: sum of -log2 p over (alphabet-clipped) symbols."""
        idx = self.clip_symbols(np.asarray(symbols)).astype(np.int64) + self.radius
        return float(-self._log2_prob[idx.ravel()].sum())


@dataclass(frozen=True)
class EncodedFrame:
    """Quantized transform coefficients plus the bit estimate for one image.

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


def _pad_to_blocks(chan: np.ndarray, block: int) -> np.ndarray:
    h, w = chan.shape
    ph = (-h) % block
    pw = (-w) % block
    if ph or pw:
        chan = np.pad(chan, ((0, ph), (0, pw)), mode="edge")
    return chan


def _blockwise(chan: np.ndarray, block: int, forward: bool) -> np.ndarray:
    h, w = chan.shape
    tiles = chan.reshape(h // block, block, w // block, block)
    fn = dctn if forward else idctn
    return fn(tiles, axes=(1, 3), norm="ortho").reshape(h, w)


def encode(img: np.ndarray, cfg: CodecConfig, em: EntropyModel) -> EncodedFrame:
    """Transform, quantize, and price an image under the entropy model."""
    arr = np.asarray(img, dtype=float)
    if arr.size == 0:
        raise ValidationError("cannot encode a zero-sized image")
    arr = check_image(arr)
    if arr.ndim == 2:
        channels = [arr]
        nchan = 1
    else:
        nchan = arr.shape[2]
        channels = [arr[:, :, c] for c in range(nchan)]

    quantized = []
    for chan in channels:
        padded = _pad_to_blocks(chan, cfg.block_size)
        coeffs = _blockwise(padded, cfg.block_size, forward=True)
        quantized.append(np.round(coeffs / cfg.quant_step).astype(np.int64))
    q = quantized[0] if nchan == 1 else np.stack(quantized, axis=-1)
    bits = em.bits_for_symbols(q)
    return EncodedFrame(qcoeffs=q, quant_step=cfg.quant_step,
                        model_id=em.model_id, bit_count=bits,
                        height=arr.shape[0], width=arr.shape[1],
                        channels=nchan, block_size=cfg.block_size)


def decode(frame: EncodedFrame) -> np.ndarray:
    """Dequantize and inverse-transform; output clipped to [0, 1]."""
    q = frame.qcoeffs
    expected_pad = (frame.height + (-frame.height) % frame.block_size,
                    frame.width + (-frame.width) % frame.block_size)
    if q.shape[:2] != expected_pad:
        raise ValidationError(
            f"coefficient layout {q.shape[:2]} does not match padded dims {expected_pad}")
    chans = [q] if frame.channels == 1 else [q[:, :, c] for c in range(frame.channels)]
    out = []
    for chan in chans:
        coeffs = chan.astype(float) * frame.quant_step
        rec = _blockwise(coeffs, frame.block_size, forward=False)
        out.append(rec[:frame.height, :frame.width])
    img = out[0] if frame.channels == 1 else np.stack(out, axis=-1)
    return np.clip(img, 0.0, 1.0)


def distortion_weight(ratio: float, cfg: CodecConfig) -> float:
    """Rate-distortion weight for a compression ratio: w_max * ratio ** power.

    Monotone increasing with weight ``rd_weight_max`` at ratio 1, so lighter
    compression penalizes distortion more heavily.
    """
    if not (0 < ratio <= 1):
        raise ValidationError("ratio must lie in (0, 1]")
    return cfg.rd_weight_max * ratio ** cfg.rd_weight_power


def rd_cost(img: np.ndarray, frame: EncodedFrame, ratio: float,
            cfg: CodecConfig, em: EntropyModel) -> float:
    """Estimated bits plus distortion-weighted mean squared error."""
    arr = check_image(img)
    rec = decode(frame)
    if rec.shape != arr.shape:
        raise ValidationError(f"frame dims {rec.shape} do not match image {arr.shape}")
    mse = float(np.mean((arr - rec) ** 2))
    return frame.bit_count + distortion_weight(ratio, cfg) * mse


def rate_control(img: np.ndarray, ratio: float, em: EntropyModel,
                 cfg: CodecConfig) -> tuple[float, EncodedFrame]:
    """Pick the finest grid step whose bit estimate fits the ratio's budget.

    The budget is ``ratio * pixels * channels * 8`` bits with
    ``rate_tolerance`` relative slack.  Bit counts are non-increasing in the
    step for magnitude-monotone models, so a binary search over the grid
    locates the finest feasible step; a linear fallback guards the rare
    non-monotone trained model.
    """
    if not (0 < ratio <= 1):
        raise ValidationError("ratio must lie in (0, 1]")
    arr = check_image(img)
    nchan = 1 if arr.ndim == 2 else arr.shape[2]
    raw_bits = arr.shape[0] * arr.shape[1] * nchan * 8
    allowed = (1.0 + cfg.rate_tolerance) * ratio * raw_bits

    grid = QUANT_STEP_GRID
    cache: dict[int, EncodedFrame] = {}

    def attempt(idx: int) -> EncodedFrame:  # encodes each grid step at most once
        if idx not in cache:
            cache[idx] = encode(arr, replace(cfg, quant_step=float(grid[idx])), em)
        return cache[idx]

    coarsest = attempt(len(grid) - 1)
    if coarsest.bit_count > allowed:
        raise BudgetError(
            f"budget {allowed:.1f} bits unreachable: coarsest step "
            f"{grid[-1]:.4g} still needs {coarsest.bit_count:.1f} bits")

    lo, hi = 0, len(grid) - 1  # hi is known feasible
    while lo < hi:
        mid = (lo + hi) // 2
        if attempt(mid).bit_count <= allowed:
            hi = mid
        else:
            lo = mid + 1
    # linear fallback: walk coarser if the boundary step is over budget
    while attempt(hi).bit_count > allowed:
        hi += 1
    return float(grid[hi]), cache[hi]


def refine_model(em: EntropyModel, raw_frames: list[np.ndarray],
                 cfg: CodecConfig) -> EntropyModel:
    """Re-estimate symbol frequencies from the quantized coefficients of raw frames.

    Returns a new model over the same alphabet; the input model is untouched
    and can keep serving concurrent encoders.
    """
    if not raw_frames:
        raise ValidationError("refinement needs at least one raw frame")
    counts = np.zeros(2 * em.radius + 1)
    for raw in raw_frames:
        frame = encode(raw, cfg, em)
        symbols = em.clip_symbols(frame.qcoeffs).astype(np.int64) + em.radius
        counts += np.bincount(symbols.ravel(), minlength=2 * em.radius + 1)
    return EntropyModel.from_counts(
        counts, em.radius,
        model_id=f"refined-n{len(raw_frames)}-q{cfg.quant_step:g}",
        trained_on=len(raw_frames))


def serialize_frame(frame: EncodedFrame) -> bytes:
    """Pack a frame into the versioned binary container (see docs/formats.md)."""
    q = frame.qcoeffs
    if np.any(np.abs(q) > 32767):
        raise ValidationError(
            "coefficients exceed the int16 wire range; use a coarser quant_step")
    model_id = frame.model_id.encode("utf-8")
    if len(model_id) > 255:
        raise ValidationError("model_id longer than 255 bytes")
    pad_h, pad_w = q.shape[:2]
    buf = io.BytesIO()
    buf.write(FRAME_MAGIC)
    buf.write(struct.pack("<BBBB", FRAME_VERSION, frame.channels,
                          frame.block_size, len(model_id)))
    buf.write(struct.pack("<HHHH", frame.height, frame.width, pad_h, pad_w))
    buf.write(struct.pack("<d", frame.quant_step))
    buf.write(model_id)
    buf.write(q.astype("<i2").tobytes(order="C"))
    return buf.getvalue()


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
    model_id = data[24:24 + id_len].decode("utf-8")
    payload = data[24 + id_len:]
    expected = pad_h * pad_w * channels * 2
    if len(payload) != expected:
        raise ValidationError(
            f"payload is {len(payload)} bytes, expected {expected}")
    q = np.frombuffer(payload, dtype="<i2").astype(np.int64)
    shape = (pad_h, pad_w) if channels == 1 else (pad_h, pad_w, channels)
    q = q.reshape(shape)
    if em is not None:
        if em.model_id != model_id:
            raise ValidationError(
                f"container was priced under model '{model_id}', got '{em.model_id}'")
        bits = em.bits_for_symbols(q)
    else:
        bits = math.nan
    return EncodedFrame(qcoeffs=q, quant_step=quant_step, model_id=model_id,
                        bit_count=bits, height=height, width=width,
                        channels=channels, block_size=block_size)
