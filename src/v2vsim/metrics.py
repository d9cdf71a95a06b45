"""Image quality metrics for unit-range images.

PSNR uses peak 1.0, so ``psnr = 10 * log10(1 / mse)`` and identical inputs
return ``math.inf`` as the documented sentinel.  MS-SSIM follows the standard
5-scale construction: 11x11 Gaussian window (sigma 1.5, separable, so applied
as two 11-tap passes, each a BLAS matrix-vector product over windows that
slide along axis 1; the first writes its output transposed), stability
constants K1 = 0.01 and K2 = 0.03, canonical scale weights (0.0448, 0.2856,
0.3001, 0.2363, 0.1333).  The luminance term is computed only at the coarsest
scale, the only one that uses it.  Images smaller than 176 pixels on a side
get a reduced scale count (renormalized weight prefix) and a warning.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError

MS_SSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5


def _check_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.shape != b.shape:
        raise ValidationError(f"image shapes differ: {a.shape} vs {b.shape}")
    return a, b


def mse(x: np.ndarray, y: np.ndarray) -> float:
    a, b = _check_pair(x, y)
    return float(np.mean((a - b) ** 2))


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
    """
    h, w = x.shape[0] - g.size + 1, x.shape[1] - g.size + 1  # the valid region
    moments = np.array((x, y, x * x, y * y, x * y))  # C order whatever the inputs' layout
    cols = np.empty((5, x.shape[1], h))
    np.matmul(sliding_window_view(moments, g.size, axis=1), g, out=cols.transpose(0, 2, 1))
    # The maps go into the spent moments buffer and are updated in place: fresh
    # arrays doubled the page faults per call (926 against about 450 at 176²).
    maps = moments.reshape(-1)[: 5 * w * h].reshape(5, w, h)
    mu_x, mu_y, sxx, syy, sxy = np.matmul(sliding_window_view(cols, g.size, axis=1), g, out=maps)
    # cs = (2 (sxy - mu_x mu_y) + c2) / ((sxx - mu_x^2) + (syy - mu_y^2) + c2)
    sxy -= mu_x * mu_y
    sxy *= 2.0
    sxy += SSIM_K2 ** 2
    sxx -= mu_x * mu_x
    syy -= mu_y * mu_y
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
        cs_map = _local_stats(x, y, window)[2]
        value *= max(float(cs_map.mean()), 0.0) ** weights[level]  # clamp keeps powers real
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
