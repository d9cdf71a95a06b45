"""Image quality metrics for unit-range images.

PSNR uses peak 1.0, so ``psnr = 10 * log10(1 / mse)`` and identical inputs
return ``math.inf`` as the documented sentinel.  MS-SSIM follows the standard
5-scale construction: 11x11 Gaussian window (sigma 1.5, separable, so applied
as two 11-tap passes, each a BLAS matrix-vector product over windows that
slide along axis 1; the first writes its output transposed; the five moment
maps pass one at a time, so a call holds about six image-sized maps), stability
constants K1 = 0.01 and K2 = 0.03, canonical scale weights (0.0448, 0.2856,
0.3001, 0.2363, 0.1333).  The luminance term is computed only at the coarsest
scale, the only one that uses it.  Images smaller than 176 pixels on a side
get a reduced scale count (renormalized weight prefix) and a warning.  Each
metric takes two arrays of one shape, (H, W) or (H, W, 3); their values are
not checked.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError
from .fourier import check_layout

MS_SSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5


def _check_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both inputs as float64, of one shape, (H, W) or (H, W, 3).  Their
    values are not checked: ``check_image``'s [0, 1] scan would add two
    reductions per input to every score."""
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    check_layout(a)
    if a.shape != b.shape:
        raise ValidationError(f"image shapes differ: {a.shape} vs {b.shape}")
    return a, b


def mse(x: np.ndarray, y: np.ndarray) -> float:
    a, b = _check_pair(x, y)
    diff = a - b
    diff *= diff
    return float(np.mean(diff))


def psnr(x: np.ndarray, y: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB; inf when the images are identical."""
    return psnr_of_mse(mse(x, y))


def psnr_of_mse(err: float) -> float:
    """PSNR in dB of a mean squared error at peak 1.0; inf for 0."""
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / err)


def _gaussian_window(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    half = (size - 1) / 2.0
    coords = np.arange(size) - half
    g = np.exp(-(coords ** 2) / (2.0 * sigma ** 2))
    return g / g.sum()


def _local_stats(x: np.ndarray, y: np.ndarray,
                 g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Windowed means of x and y and the contrast-structure map, all transposed.

    Both passes slide the window along axis 1, so each stacked window matrix
    has unit stride down its columns and ``@ g`` runs as BLAS gemv.  The first
    pass writes its output transposed, so the second one filters along the
    image rows.  The maps come out transposed; only their means are used.
    The five moment maps are filtered one at a time through one column buffer,
    so a call holds about six image-sized maps.
    """
    h, w = x.shape[0] - g.size + 1, x.shape[1] - g.size + 1  # the valid region
    moments = np.empty((5,) + x.shape)  # C order whatever the inputs' layout
    moments[0], moments[1] = x, y
    np.multiply(x, x, out=moments[2])
    np.multiply(y, y, out=moments[3])
    np.multiply(x, y, out=moments[4])
    col = np.empty((x.shape[1], h))
    rows = sliding_window_view(moments, g.size, axis=1)
    windows = sliding_window_view(col, g.size, axis=0)
    # Map k fills flat [k w h, (k + 1) w h) of the stack, inside moments 0..k,
    # whose row passes are done; moments k + 1.. stay untouched.  Each gemv has
    # the shape and strides of the all-maps-at-once form, so the bytes match it.
    maps = moments.reshape(-1)[: 5 * w * h].reshape(5, w, h)
    for k in range(5):
        np.matmul(rows[k], g, out=col.T)
        np.matmul(windows, g, out=maps[k])
    mu_x, mu_y, sxx, syy, sxy = maps
    tmp = col.reshape(-1)[: w * h].reshape(w, h)  # the spent column buffer
    # cs = (2 (sxy - mu_x mu_y) + c2) / ((sxx - mu_x^2) + (syy - mu_y^2) + c2)
    sxy -= np.multiply(mu_x, mu_y, out=tmp)
    sxy *= 2.0
    sxy += SSIM_K2 ** 2
    sxx -= np.multiply(mu_x, mu_x, out=tmp)
    syy -= np.multiply(mu_y, mu_y, out=tmp)
    sxx += syy
    sxx += SSIM_K2 ** 2
    sxy /= sxx
    return mu_x, mu_y, sxy


def _downsample(img: np.ndarray) -> np.ndarray:
    """2x2 box mean, odd edges dropped; bit-equal to the reshape-mean."""
    h, w = img.shape
    a = img[: 2 * (h // 2), : 2 * (w // 2)]
    return ((a[0::2, 0::2] + a[0::2, 1::2]) + (a[1::2, 0::2] + a[1::2, 1::2])) / 4.0


def feasible_scales(height: int, width: int) -> int:
    """Largest scale count whose coarsest level still fits the window."""
    m = 0
    dim = min(height, width)
    while dim >= SSIM_WINDOW and m < len(MS_SSIM_WEIGHTS):
        m += 1
        dim //= 2
    return m


def _ms_ssim_single(x: np.ndarray, y: np.ndarray, scales: int) -> float:
    window = _gaussian_window()
    weights = np.asarray(MS_SSIM_WEIGHTS[:scales])
    weights = weights / weights.sum()
    value = 1.0
    for level in range(scales - 1):
        cs = float(_local_stats(x, y, window)[2].mean())  # frees this scale's maps
        value *= max(cs, 0.0) ** weights[level]  # clamp keeps powers real
        x = _downsample(x)
        y = _downsample(y)
    mu_x, mu_y, cs_map = _local_stats(x, y, window)
    c1 = SSIM_K1 ** 2
    ssim_map = (2.0 * mu_x * mu_y + c1) / (mu_x * mu_x + mu_y * mu_y + c1) * cs_map
    value *= max(float(ssim_map.mean()), 0.0) ** weights[-1]
    return value


def ms_ssim(x: np.ndarray, y: np.ndarray) -> float:
    """Multi-scale structural similarity in [0, 1]; 1.0 for identical inputs.

    Runs as many scales as the image supports, at most five.  Color images
    are scored per channel and averaged.
    """
    a, b = _check_pair(x, y)
    feasible = feasible_scales(a.shape[0], a.shape[1])
    if feasible < 1:
        raise ValidationError(
            f"images {a.shape[:2]} too small for one {SSIM_WINDOW}x{SSIM_WINDOW} window scale")
    scales = min(len(MS_SSIM_WEIGHTS), feasible)
    if scales < len(MS_SSIM_WEIGHTS):
        warnings.warn(
            f"image {a.shape[:2]} supports only {scales} of "
            f"{len(MS_SSIM_WEIGHTS)} scales; weights renormalized",
            stacklevel=2)
    if a.ndim == 2:
        return _ms_ssim_single(a, b, scales)
    vals = [_ms_ssim_single(a[:, :, c], b[:, :, c], scales) for c in range(a.shape[2])]
    return float(np.mean(vals))
