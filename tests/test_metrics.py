import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import v2vsim
from v2vsim.errors import ValidationError
from v2vsim.metrics import (MS_SSIM_WEIGHTS, SSIM_K1, SSIM_K2, _downsample, feasible_scales,
                            ms_ssim, psnr)
from v2vsim.simulate import REPORT_HEADER, QualityReport, csv_text

MS_SSIM_GOLDEN = 0.9651751635890322  # pinned once from the reference path below


def golden_pair():
    yy = np.arange(176)[:, None] / 176.0
    xx = np.arange(176)[None, :] / 176.0
    x = np.clip(0.5 + 0.3 * np.sin(2 * np.pi * 3 * yy) * np.cos(2 * np.pi * 4 * xx)
                + 0.15 * np.sin(2 * np.pi * 7 * (xx + yy)), 0, 1)
    y = np.clip(x + 0.08 * np.sin(2 * np.pi * 11 * xx) * np.cos(2 * np.pi * 9 * yy)
                + 0.02, 0, 1)
    return x, y


def reference_downsample(img):
    h, w = img.shape
    return img[:2 * (h // 2), :2 * (w // 2)].reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))


def reference_ms_ssim(x, y, scales=5):
    """Independent path: direct weighted sums over sliding windows."""
    coords = np.arange(11) - 5.0
    g = np.exp(-(coords ** 2) / (2 * 1.5 ** 2))
    window = np.outer(g, g)
    window /= window.sum()

    def ssim_cs(a, b):
        wa = sliding_window_view(a, (11, 11))
        wb = sliding_window_view(b, (11, 11))
        mu_a = np.einsum("ijkl,kl->ij", wa, window)
        mu_b = np.einsum("ijkl,kl->ij", wb, window)
        va = np.einsum("ijkl,kl->ij", wa * wa, window) - mu_a ** 2
        vb = np.einsum("ijkl,kl->ij", wb * wb, window) - mu_b ** 2
        cov = np.einsum("ijkl,kl->ij", wa * wb, window) - mu_a * mu_b
        c1, c2 = SSIM_K1 ** 2, SSIM_K2 ** 2
        cs = (2 * cov + c2) / (va + vb + c2)
        full = (2 * mu_a * mu_b + c1) / (mu_a ** 2 + mu_b ** 2 + c1) * cs
        return float(full.mean()), float(cs.mean())

    weights = np.asarray(MS_SSIM_WEIGHTS[:scales])
    weights = weights / weights.sum()
    value = 1.0
    for level in range(scales):
        s, cs = ssim_cs(x, y)
        value *= max(s if level == scales - 1 else cs, 0.0) ** weights[level]
        if level != scales - 1:
            x, y = reference_downsample(x), reference_downsample(y)
    return value


class TestPsnr:
    def test_identical_images_sentinel(self):
        img = np.random.default_rng(0).random((8, 8))
        assert psnr(img, img.copy()) == math.inf

    def test_uniform_error_point_one(self):
        x = np.full((10, 10), 0.6)
        y = np.full((10, 10), 0.5)
        assert psnr(x, y) == pytest.approx(20.0, rel=1e-12)

    @settings(max_examples=30)
    @given(seed=st.integers(0, 10_000))
    def test_matches_direct_formula(self, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.random((12, 12)), rng.random((12, 12))
        expected = 10 * math.log10(1.0 / np.mean((x - y) ** 2))
        assert psnr(x, y) == pytest.approx(expected, abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        x, y = rng.random((8, 8)), rng.random((8, 8))
        assert psnr(x, y) == psnr(y, x)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            psnr(np.ones((4, 4)), np.ones((4, 5)))


class TestMsSsim:
    def test_identical_is_one(self):
        img = np.random.default_rng(2).random((64, 64))
        with pytest.warns(UserWarning, match="scales"):
            assert ms_ssim(img, img.copy()) == pytest.approx(1.0, abs=1e-12)

    def test_constant_half_vs_complement(self):
        x = np.full((64, 64), 0.5)
        with pytest.warns(UserWarning):
            assert ms_ssim(x, 1.0 - x) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        x, y = rng.random((48, 48)), rng.random((48, 48))
        with pytest.warns(UserWarning):
            assert ms_ssim(x, y) == pytest.approx(ms_ssim(y, x), abs=1e-12)

    def test_golden_value(self):
        x, y = golden_pair()
        assert ms_ssim(x, y) == pytest.approx(MS_SSIM_GOLDEN, abs=1e-4)

    def test_reference_implementation_agreement(self):
        x, y = golden_pair()
        assert reference_ms_ssim(x, y) == pytest.approx(MS_SSIM_GOLDEN, abs=1e-4)
        assert ms_ssim(x, y) == pytest.approx(reference_ms_ssim(x, y), abs=1e-9)

    @pytest.mark.parametrize("shape,scales", [
        ((181, 197), 5),  # odd, non-square: valid-region edges differ per axis
        ((40, 40), 2),
        ((23, 64), 2),
        ((11, 11), 1),  # exactly one window position
        ((176, 176, 3), 5),
    ], ids=["181x197", "40x40", "23x64", "11x11", "176x176x3"])
    def test_reference_agreement_across_shapes(self, shape, scales):
        assert min(len(MS_SSIM_WEIGHTS), feasible_scales(*shape[:2])) == scales
        rng = np.random.default_rng(sum(shape))
        x = rng.random(shape)
        y = np.clip(x + 0.1 * rng.standard_normal(shape), 0, 1)
        if len(shape) == 2:
            expected = reference_ms_ssim(x, y, scales)
        else:
            expected = np.mean([reference_ms_ssim(x[:, :, c], y[:, :, c], scales)
                                for c in range(shape[2])])
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "image .* supports only", UserWarning)
            assert ms_ssim(x, y) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("shape", [(176, 176), (181, 197), (23, 64)])
    def test_downsample_bit_equal_to_reshape_mean(self, shape):
        img = np.random.default_rng(sum(shape)).random(shape)
        assert np.array_equal(_downsample(img), reference_downsample(img))

    def test_independent_of_memory_layout(self):
        x, y = golden_pair()
        expected = ms_ssim(x, y)
        wide_x, wide_y = np.repeat(x, 2, axis=1), np.repeat(y, 2, axis=1)
        layouts = [(np.asfortranarray(x), np.asfortranarray(y)),
                   (np.ascontiguousarray(x.T).T, np.ascontiguousarray(y.T).T),
                   (wide_x[:, ::2], wide_y[:, ::2])]
        for a, b in layouts:
            assert ms_ssim(a, b) == expected

    def test_channel_views_match_contiguous_copies(self):
        rng = np.random.default_rng(12)
        x = rng.random((176, 176, 3))
        y = np.clip(x + 0.1 * rng.standard_normal(x.shape), 0, 1)
        for c in range(3):
            assert (ms_ssim(x[:, :, c], y[:, :, c])
                    == ms_ssim(np.ascontiguousarray(x[:, :, c]), np.ascontiguousarray(y[:, :, c])))

    def test_independent_of_blas_threads(self):
        # both window passes run on BLAS, which reads its thread count at load time
        src = os.path.dirname(os.path.dirname(v2vsim.__file__))
        code = ("import numpy as np; from v2vsim.metrics import ms_ssim; "
                "rng = np.random.default_rng(13); x = rng.random((352, 352)); "
                "y = np.clip(x + 0.1 * rng.standard_normal(x.shape), 0, 1); "
                "print(repr(ms_ssim(x, y)))")
        outputs = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                           p for p in (src, os.environ.get("PYTHONPATH")) if p))
            proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                  capture_output=True, text=True, timeout=120)
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_five_scales_at_176(self):
        assert feasible_scales(176, 176) == 5
        assert feasible_scales(175, 400) == 4

    def test_reduced_scales_warn(self):
        rng = np.random.default_rng(4)
        x, y = rng.random((32, 32)), rng.random((32, 32))
        with pytest.warns(UserWarning, match="2 of 5"):
            ms_ssim(x, y)

    def test_too_small_rejected(self):
        with pytest.raises(ValidationError):
            ms_ssim(np.ones((8, 8)), np.ones((8, 8)))

    def test_color_averages_channels(self):
        rng = np.random.default_rng(5)
        x = rng.random((64, 64, 3))
        y = np.clip(x + 0.05 * rng.random((64, 64, 3)), 0, 1)
        with pytest.warns(UserWarning):
            combined = ms_ssim(x, y)
        with pytest.warns(UserWarning):
            per_chan = [ms_ssim(x[:, :, c], y[:, :, c]) for c in range(3)]
        assert combined == pytest.approx(np.mean(per_chan), abs=1e-12)


class TestQualityReport:
    def test_csv_row_matches_header(self):
        report = QualityReport(avg_delay_s=0.5, n_links=2, total_bits=1000.0,
                               bitrate_bpp=0.8, mean_psnr_db=40.0,
                               mean_ms_ssim=0.99, mean_mse=1e-4)
        header, row = csv_text(REPORT_HEADER, [report]).splitlines()
        assert header == REPORT_HEADER
        assert len(row.split(",")) == len(REPORT_HEADER.split(","))
        assert row == "0.5,2,1000,0.8,40,0.99,0.0001"  # seven fields, floats as %.12g

    def test_psnr_mse_relation_holds_per_pair(self):
        # the invariant ties the two fields for any single comparison
        rng = np.random.default_rng(8)
        x, y = rng.random((16, 16)), rng.random((16, 16))
        err = float(np.mean((x - y) ** 2))
        assert psnr(x, y) == pytest.approx(10 * math.log10(1 / err), abs=1e-12)
