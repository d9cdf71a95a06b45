"""Amplitude/phase spectra and low-frequency amplitude mixing between images.

Images are float64 arrays in [0, 1], shaped (H, W) or (H, W, C) with C in
{1, 3}.  Spectra are stored DC-centered: the forward transform applies an
fft-shift so the zero-frequency bin sits at (H//2, W//2), which is also the
center of the rectangular low-frequency mask.

``align`` mixes on the real half-spectrum (``rfft2``) inside the rectangle
only; the rectangle is symmetric about DC, so its output is real by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ValidationError


def check_image(img: np.ndarray, name: str = "image") -> np.ndarray:
    """Validate dimensions and finiteness; returns the array as float64."""
    arr = np.asarray(img, dtype=float)
    if arr.ndim == 3:
        if arr.shape[2] not in (1, 3):
            raise ValidationError(f"{name}: channel count must be 1 or 3, got {arr.shape[2]}")
    elif arr.ndim != 2:
        raise ValidationError(f"{name}: expected a 2-D or 3-D array, got ndim={arr.ndim}")
    if arr.shape[0] < 2 or arr.shape[1] < 2:
        raise ValidationError(f"{name}: height and width must be >= 2, got {arr.shape[:2]}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name}: values must be finite")
    return arr


@dataclass
class Spectrum:
    """Per-channel amplitude and phase of an image's 2-D DFT."""

    amplitude: np.ndarray
    phase: np.ndarray

    def __post_init__(self):
        if self.amplitude.shape != self.phase.shape:
            raise ValidationError("amplitude and phase shapes differ")
        if np.any(self.amplitude < 0):
            raise ValidationError("amplitude must be non-negative")


@dataclass(frozen=True)
class FreqMask:
    """Binary rectangle around the DC bin of a shifted spectrum.

    Half-widths are floor(alpha * H) and floor(alpha * W); the rectangle is
    inclusive on both ends and clipped to the image bounds.  alpha == 0 is
    the empty mask, making downstream mixing an identity.
    """

    alpha: float
    height: int
    width: int
    mask: np.ndarray

    @property
    def ones_count(self) -> int:
        return int(self.mask.sum())


def dft2(img: np.ndarray) -> Spectrum:
    """Forward per-channel 2-D DFT, unnormalized, DC-centered."""
    arr = check_image(img)
    spec = np.fft.fftshift(np.fft.fft2(arr, axes=(0, 1)), axes=(0, 1))
    return Spectrum(amplitude=np.abs(spec), phase=np.angle(spec))


def idft2(spec: Spectrum) -> np.ndarray:
    """Inverse 2-D DFT of a DC-centered spectrum; returns the real part."""
    field = np.fft.ifftshift(spec.amplitude * np.exp(1j * spec.phase), axes=(0, 1))
    return np.fft.ifft2(field, axes=(0, 1)).real


def check_alpha(alpha: float) -> None:
    """Reject an alignment alpha outside [0, 1), NaN included."""
    if not (0 <= alpha < 1):
        raise ValidationError("alpha must lie in [0, 1)")


def _half_widths(alpha: float, height: int, width: int) -> tuple[int, int]:
    """Half-widths floor(alpha * H), floor(alpha * W) of the low-frequency rectangle.

    alpha == 0 gives (-1, -1), the empty rectangle.
    """
    check_alpha(alpha)
    if alpha == 0:
        return -1, -1
    return math.floor(alpha * height), math.floor(alpha * width)


def low_freq_mask(alpha: float, height: int, width: int) -> FreqMask:
    """Build the central rectangle mask for a shifted H x W spectrum."""
    hh, hw = _half_widths(alpha, height, width)
    if height < 1 or width < 1:
        raise ValidationError("mask dimensions must be positive")
    mask = np.zeros((height, width), dtype=bool)
    cy, cx = height // 2, width // 2
    mask[max(0, cy - hh):min(height, cy + hh + 1),
         max(0, cx - hw):min(width, cx + hw + 1)] = True
    return FreqMask(alpha=alpha, height=height, width=width, mask=mask)


def mix_amplitude(src_amp: np.ndarray, tgt_amp: np.ndarray, mask: FreqMask) -> np.ndarray:
    """Target amplitude inside the mask, source amplitude outside, exactly."""
    if src_amp.shape != tgt_amp.shape:
        raise ValidationError(
            f"amplitude shapes differ: {src_amp.shape} vs {tgt_amp.shape}")
    if src_amp.shape[:2] != (mask.height, mask.width):
        raise ValidationError(
            f"mask {mask.height}x{mask.width} does not fit amplitude {src_amp.shape[:2]}")
    m = mask.mask if src_amp.ndim == 2 else mask.mask[:, :, None]
    return np.where(m, tgt_amp, src_amp)


def align(src: np.ndarray, tgt: np.ndarray, alpha: float, clip: bool = True) -> np.ndarray:
    """Push the source image toward the target's low-frequency style.

    Half-spectrum bins in the rectangle (row r with min(r, H - r) <= floor(alpha * H),
    column c <= floor(alpha * W)) become ``|F_tgt| * exp(1j * angle(F_src))``;
    all others keep the source's value.  The result is clipped to [0, 1] unless
    ``clip`` is False, which exists so spectral properties can be checked on
    the raw signal.
    """
    s = check_image(src, "source")
    t = check_image(tgt, "target")
    if s.shape != t.shape:
        raise ValidationError(f"source shape {s.shape} != target shape {t.shape}")
    h, w = s.shape[:2]
    hh, hw = _half_widths(alpha, h, w)
    spec = np.fft.rfft2(s, axes=(0, 1))
    tgt_spec = np.fft.rfft2(t, axes=(0, 1))
    top = min(hh + 1, h)
    cols = slice(0, hw + 1)
    for rows in (slice(0, top), slice(max(top, h - hh), h)):
        spec[rows, cols] = np.abs(tgt_spec[rows, cols]) * np.exp(1j * np.angle(spec[rows, cols]))
    out = np.fft.irfft2(spec, s=(h, w), axes=(0, 1))
    if clip:
        out = np.clip(out, 0.0, 1.0)
    return out


def _amplitude_feature(img: np.ndarray, mask: FreqMask) -> np.ndarray:
    amp = dft2(img).amplitude
    region = amp[mask.mask] if amp.ndim == 2 else amp[mask.mask, :]
    return np.log1p(region).ravel()


def domain_gap(set_a: list[np.ndarray], set_b: list[np.ndarray],
               feature_alpha: float) -> float:
    """Mean pairwise cross-set distance between low-frequency log-amplitude features.

    Zero iff every cross-set pair has identical features; symmetric in the
    two sets.  With ``feature_alpha == 0`` the feature is empty and the gap
    is 0 by convention.
    """
    if not set_a or not set_b:
        raise ValidationError("both image sets must be non-empty")
    imgs_a = [check_image(x, "set_a image") for x in set_a]
    imgs_b = [check_image(x, "set_b image") for x in set_b]
    shape = imgs_a[0].shape
    for arr in imgs_a + imgs_b:
        if arr.shape != shape:
            raise ValidationError("all images must share one shape")
    mask = low_freq_mask(feature_alpha, shape[0], shape[1])
    feats_a = [_amplitude_feature(x, mask) for x in imgs_a]
    feats_b = [_amplitude_feature(x, mask) for x in imgs_b]
    total = 0.0
    for fa, fb in product(feats_a, feats_b):
        total += float(np.linalg.norm(fa - fb))
    return total / (len(feats_a) * len(feats_b))
