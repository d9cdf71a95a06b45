"""Low-frequency amplitude alignment between images, after FDA (Yang & Soatto 2020).

Images are float64 arrays in [0, 1], shaped (H, W) or (H, W, 3).  Both
``align`` and ``domain_gap`` work on the real half-spectrum (``rfft2``)
inside one low-frequency rectangle, ``_low_band``: row frequencies within
floor(alpha * H) of DC either way, column frequencies up to floor(alpha *
W).  The rectangle is symmetric about DC, so ``align``'s output is real by
construction.  ``rfft2`` keeps columns 0..W//2 only, so of two
Hermitian-mirrored bins of the full spectrum the rectangle holds one, unless
both lie in column 0 (or W/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ValidationError


def check_image(img: np.ndarray, name: str = "image") -> np.ndarray:
    """Validate dimensions and the range [0, 1] (NaN fails); returns the array as float64."""
    arr = np.asarray(img, dtype=float)
    if not (arr.ndim == 2 or arr.ndim == 3 and arr.shape[2] == 3):
        raise ValidationError(f"{name}: expected an (H, W) or (H, W, 3) array, "
                              f"got shape {arr.shape}")
    if arr.shape[0] < 2 or arr.shape[1] < 2:
        raise ValidationError(f"{name}: height and width must be >= 2, got {arr.shape[:2]}")
    if not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise ValidationError(f"{name}: values must lie in [0, 1]")
    return arr


@dataclass
class Spectrum:
    """Per-channel amplitude and phase of an image's 2-D DFT.  Unused by the package,
    like ``dft2`` and ``idft2``: kept only for the benchmark under ``perfbench/``."""

    amplitude: np.ndarray
    phase: np.ndarray

    def __post_init__(self):
        if self.amplitude.shape != self.phase.shape:
            raise ValidationError("amplitude and phase shapes differ")
        if np.any(self.amplitude < 0):
            raise ValidationError("amplitude must be non-negative")


def dft2(img: np.ndarray) -> Spectrum:
    """Forward per-channel 2-D DFT, unnormalized, DC-centered.  Unused by the
    package: kept only for the benchmark under ``perfbench/``."""
    arr = check_image(img)
    spec = np.fft.fftshift(np.fft.fft2(arr, axes=(0, 1)), axes=(0, 1))
    return Spectrum(amplitude=np.abs(spec), phase=np.angle(spec))


def idft2(spec: Spectrum) -> np.ndarray:
    """Inverse 2-D DFT of a DC-centered spectrum; returns the real part.  Unused
    by the package: kept only for the benchmark under ``perfbench/``."""
    field = np.fft.ifftshift(spec.amplitude * np.exp(1j * spec.phase), axes=(0, 1))
    return np.fft.ifft2(field, axes=(0, 1)).real


def check_alpha(alpha: float) -> None:
    """Reject an alignment alpha outside [0, 1), NaN included."""
    if not (0 <= alpha < 1):
        raise ValidationError("alpha must lie in [0, 1)")


def _low_band(alpha: float, height: int, width: int) -> tuple[tuple[slice, slice], ...]:
    """The low-frequency rectangle of an H x W image's ``rfft2`` half-spectrum.

    Rows r with min(r, H - r) <= floor(alpha * H) and columns c <= floor(alpha * W),
    as (rows, cols) index pairs: the non-negative row frequencies, then the
    negative ones.  alpha == 0 gives empty pairs.
    """
    check_alpha(alpha)
    hh, hw = (math.floor(alpha * height), math.floor(alpha * width)) if alpha else (-1, -1)
    top = min(hh + 1, height)
    cols = slice(0, hw + 1)
    return (slice(0, top), cols), (slice(max(top, height - hh), height), cols)


def align(src: np.ndarray, tgt: np.ndarray, alpha: float, clip: bool = True) -> np.ndarray:
    """Push the source image toward the target's low-frequency style.

    Half-spectrum bins in ``_low_band`` become ``|F_tgt| * exp(1j * angle(F_src))``;
    all others keep the source's value.  The result is clipped to [0, 1] unless
    ``clip`` is False, which exists so spectral properties can be checked on
    the raw signal.
    """
    s = check_image(src, "source")
    t = check_image(tgt, "target")
    if s.shape != t.shape:
        raise ValidationError(f"source shape {s.shape} != target shape {t.shape}")
    h, w = s.shape[:2]
    band = _low_band(alpha, h, w)
    spec = np.fft.rfft2(s, axes=(0, 1))
    tgt_spec = np.fft.rfft2(t, axes=(0, 1))
    for rows, cols in band:
        spec[rows, cols] = np.abs(tgt_spec[rows, cols]) * np.exp(1j * np.angle(spec[rows, cols]))
    out = np.fft.irfft2(spec, s=(h, w), axes=(0, 1))
    if clip:
        np.clip(out, 0.0, 1.0, out=out)  # irfft2's output is fresh: clip it in place
    return out


def domain_gap(set_a: list[np.ndarray], set_b: list[np.ndarray],
               feature_alpha: float) -> float:
    """Mean pairwise cross-set distance between low-frequency log-amplitude features.

    An image's feature is ``log1p(|rfft2|)`` over ``_low_band(feature_alpha)``,
    the bins ``align`` rewrites, so a Hermitian-mirrored pair of full-spectrum
    bins counts once (twice only in columns 0 and W/2).  Zero iff every
    cross-set pair has identical features; symmetric in the two sets.  With
    ``feature_alpha == 0`` the feature is empty and the gap is 0 by convention.
    """
    if not set_a or not set_b:
        raise ValidationError("both image sets must be non-empty")
    imgs_a = [check_image(x, "set_a image") for x in set_a]
    imgs_b = [check_image(x, "set_b image") for x in set_b]
    shape = imgs_a[0].shape
    for arr in imgs_a + imgs_b:
        if arr.shape != shape:
            raise ValidationError("all images must share one shape")
    band = _low_band(feature_alpha, shape[0], shape[1])
    amps = [np.abs(np.fft.rfft2(x, axes=(0, 1))) for x in imgs_a + imgs_b]
    feats = [np.concatenate([np.log1p(amp[b]).ravel() for b in band]) for amp in amps]
    feats_a, feats_b = feats[:len(imgs_a)], feats[len(imgs_a):]
    total = sum(float(np.linalg.norm(fa - fb)) for fa, fb in product(feats_a, feats_b))
    return total / (len(feats_a) * len(feats_b))
