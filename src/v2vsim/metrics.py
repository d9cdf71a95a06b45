"""Image quality and segmentation-overlap metrics for unit-range images.

PSNR uses peak 1.0, so ``psnr = 10 * log10(1 / mse)`` and identical inputs
return ``math.inf`` as the documented sentinel.  MS-SSIM follows the standard
5-scale construction: 11x11 Gaussian window (sigma 1.5, separable, so applied
as two 11-tap NumPy passes), stability constants K1 = 0.01 and K2 = 0.03,
canonical scale weights (0.0448, 0.2856, 0.3001, 0.2363, 0.1333).  Images
smaller than 176 pixels on a side get a reduced scale count (renormalized
weight prefix) and a warning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

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
    err = mse(x, y)
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / err)


def _gaussian_window(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    half = (size - 1) / 2.0
    coords = np.arange(size) - half
    g = np.exp(-(coords ** 2) / (2.0 * sigma ** 2))
    return g / g.sum()


def _ssim_cs(x: np.ndarray, y: np.ndarray, g: np.ndarray) -> tuple[float, float]:
    """Mean SSIM and contrast-structure terms over the valid window region."""
    c1 = SSIM_K1 ** 2
    c2 = SSIM_K2 ** 2
    moments = np.stack((x, y, x * x, y * y, x * y))  # one 1-D pass per axis for all five
    rows = sliding_window_view(moments, g.size, axis=2) @ g
    mu_x, mu_y, sxx, syy, sxy = sliding_window_view(rows, g.size, axis=1) @ g
    xx, yy, xy = sxx - mu_x ** 2, syy - mu_y ** 2, sxy - mu_x * mu_y
    cs_map = (2.0 * xy + c2) / (xx + yy + c2)
    ssim_map = ((2.0 * mu_x * mu_y + c1) / (mu_x ** 2 + mu_y ** 2 + c1)) * cs_map
    return float(ssim_map.mean()), float(cs_map.mean())


def _downsample(img: np.ndarray) -> np.ndarray:
    h, w = img.shape
    img = img[: 2 * (h // 2), : 2 * (w // 2)]
    return img.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))


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
    for level in range(scales):
        ssim_mean, cs_mean = _ssim_cs(x, y, window)
        term = ssim_mean if level == scales - 1 else cs_mean
        value *= max(term, 0.0) ** weights[level]  # clamp keeps powers real
        if level != scales - 1:
            x = _downsample(x)
            y = _downsample(y)
    return value


def ms_ssim(x: np.ndarray, y: np.ndarray, scales: int | None = None) -> float:
    """Multi-scale structural similarity in [0, 1]; 1.0 for identical inputs.

    Color images are scored per channel and averaged.
    """
    a, b = _check_pair(x, y)
    feasible = feasible_scales(a.shape[0], a.shape[1])
    if feasible < 1:
        raise ValidationError(
            f"images {a.shape[:2]} too small for one {SSIM_WINDOW}x{SSIM_WINDOW} window scale")
    if scales is None:
        scales = min(len(MS_SSIM_WEIGHTS), feasible)
        if scales < len(MS_SSIM_WEIGHTS):
            warnings.warn(
                f"image {a.shape[:2]} supports only {scales} of "
                f"{len(MS_SSIM_WEIGHTS)} scales; weights renormalized",
                stacklevel=2)
    elif scales < 1 or scales > feasible:
        raise ValidationError(f"requested {scales} scales, feasible range is 1..{feasible}")
    if a.ndim == 2:
        return _ms_ssim_single(a, b, scales)
    vals = [_ms_ssim_single(a[:, :, c], b[:, :, c], scales) for c in range(a.shape[2])]
    return float(np.mean(vals))


def iou(pred: np.ndarray, truth: np.ndarray, num_classes: int) -> tuple[np.ndarray, float]:
    """Per-class and mean intersection-over-union for integer label maps.

    Classes absent from both maps are excluded from the mean (NaN in the
    per-class vector).  Labels outside [0, num_classes) raise.
    """
    p = np.asarray(pred)
    t = np.asarray(truth)
    if p.shape != t.shape:
        raise ValidationError(f"label map shapes differ: {p.shape} vs {t.shape}")
    if num_classes < 1:
        raise ValidationError("num_classes must be >= 1")
    for name, arr in (("pred", p), ("truth", t)):
        if arr.size and (arr.min() < 0 or arr.max() >= num_classes):
            raise ValidationError(
                f"{name} labels must lie in [0, {num_classes}); "
                f"found range [{arr.min()}, {arr.max()}]")
    per_class = np.full(num_classes, np.nan)
    for cls in range(num_classes):
        inter = np.count_nonzero((p == cls) & (t == cls))
        union = np.count_nonzero((p == cls) | (t == cls))
        if union:
            per_class[cls] = inter / union
    present = ~np.isnan(per_class)
    mean = float(per_class[present].mean()) if present.any() else math.nan
    return per_class, mean


REPORT_HEADER = ("avg_delay_s,n_links,total_bits,bitrate_bpp,"
                 "mean_psnr_db,mean_ms_ssim,mean_mse,mean_iou")


@dataclass
class QualityReport:
    """Per-run aggregates emitted as one CSV row under REPORT_HEADER."""

    avg_delay_s: float
    n_links: int
    total_bits: float
    bitrate_bpp: float
    mean_psnr_db: float
    mean_ms_ssim: float
    mean_mse: float
    mean_iou: float = math.nan
    iou_per_class: list[float] = field(default_factory=list)

    def to_csv_row(self) -> str:
        cells = [self.avg_delay_s, self.n_links, self.total_bits,
                 self.bitrate_bpp, self.mean_psnr_db, self.mean_ms_ssim,
                 self.mean_mse, self.mean_iou]
        return ",".join(_fmt(v) for v in cells)


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return format(value, ".12g")
