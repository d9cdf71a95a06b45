import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from v2vsim.errors import ValidationError
from v2vsim.metrics import (MS_SSIM_WEIGHTS, SSIM_K1, SSIM_K2, QualityReport,
                            REPORT_HEADER, feasible_scales, iou, ms_ssim, psnr)

MS_SSIM_GOLDEN = 0.9651751635890322  # pinned once from the reference path below


def golden_pair():
    yy = np.arange(176)[:, None] / 176.0
    xx = np.arange(176)[None, :] / 176.0
    x = np.clip(0.5 + 0.3 * np.sin(2 * np.pi * 3 * yy) * np.cos(2 * np.pi * 4 * xx)
                + 0.15 * np.sin(2 * np.pi * 7 * (xx + yy)), 0, 1)
    y = np.clip(x + 0.08 * np.sin(2 * np.pi * 11 * xx) * np.cos(2 * np.pi * 9 * yy)
                + 0.02, 0, 1)
    return x, y


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

    def down(img):
        h, w = img.shape
        return img[:2 * (h // 2), :2 * (w // 2)].reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))

    weights = np.asarray(MS_SSIM_WEIGHTS[:scales])
    weights = weights / weights.sum()
    value = 1.0
    for level in range(scales):
        s, cs = ssim_cs(x, y)
        value *= max(s if level == scales - 1 else cs, 0.0) ** weights[level]
        if level != scales - 1:
            x, y = down(x), down(y)
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
        rng = np.random.default_rng(sum(shape))
        x = rng.random(shape)
        y = np.clip(x + 0.1 * rng.standard_normal(shape), 0, 1)
        if len(shape) == 2:
            expected = reference_ms_ssim(x, y, scales)
        else:
            expected = np.mean([reference_ms_ssim(x[:, :, c], y[:, :, c], scales)
                                for c in range(shape[2])])
        assert ms_ssim(x, y, scales) == pytest.approx(expected, abs=1e-9)

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


class TestIoU:
    def test_identical_maps(self):
        labels = np.array([[0, 1], [2, 0]])
        per_class, mean = iou(labels, labels.copy(), 3)
        assert np.allclose(per_class, 1.0)
        assert mean == 1.0

    def test_disjoint_masks(self):
        pred = np.array([[1, 1], [0, 0]])
        truth = np.array([[0, 0], [1, 1]])
        per_class, mean = iou(pred, truth, 2)
        assert per_class[0] == 0.0 and per_class[1] == 0.0
        assert mean == 0.0

    def test_hand_counted_three_class_grid(self):
        pred = np.array([[0, 0, 1, 1],
                         [0, 0, 1, 1],
                         [2, 2, 0, 0],
                         [2, 2, 0, 0]])
        truth = np.array([[0, 0, 1, 2],
                          [0, 1, 1, 2],
                          [2, 2, 0, 0],
                          [2, 0, 0, 0]])
        per_class, mean = iou(pred, truth, 3)
        # counted by hand: class 0 -> 7/9, class 1 -> 2/5, class 2 -> 3/6
        assert per_class[0] == pytest.approx(7 / 9)
        assert per_class[1] == pytest.approx(2 / 5)
        assert per_class[2] == pytest.approx(3 / 6)
        assert mean == pytest.approx((7 / 9 + 2 / 5 + 3 / 6) / 3)

    def test_absent_class_excluded_from_mean(self):
        pred = np.array([[0, 0], [1, 1]])
        truth = np.array([[0, 0], [1, 1]])
        per_class, mean = iou(pred, truth, 5)
        assert np.isnan(per_class[2]) and np.isnan(per_class[3]) and np.isnan(per_class[4])
        assert mean == 1.0

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValidationError):
            iou(np.array([[0, 3]]), np.array([[0, 1]]), 3)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        pred = rng.integers(0, 4, size=(6, 6))
        truth = rng.integers(0, 4, size=(6, 6))
        perm = rng.permutation(36)
        p2 = pred.ravel()[perm].reshape(6, 6)
        t2 = truth.ravel()[perm].reshape(6, 6)
        a_pc, a_mean = iou(pred, truth, 4)
        b_pc, b_mean = iou(p2, t2, 4)
        assert np.allclose(a_pc, b_pc, equal_nan=True)
        assert a_mean == b_mean

    def test_binary_symmetry(self):
        rng = np.random.default_rng(7)
        pred = rng.integers(0, 2, size=(5, 5))
        truth = rng.integers(0, 2, size=(5, 5))
        assert iou(pred, truth, 2)[1] == iou(truth, pred, 2)[1]


class TestQualityReport:
    def test_csv_row_matches_header(self):
        report = QualityReport(avg_delay_s=0.5, n_links=2, total_bits=1000.0,
                               bitrate_bpp=0.8, mean_psnr_db=40.0,
                               mean_ms_ssim=0.99, mean_mse=1e-4)
        row = report.to_csv_row()
        assert len(row.split(",")) == len(REPORT_HEADER.split(","))
        assert row.split(",")[0] == "0.5"
        assert row.split(",")[1] == "2"

    def test_psnr_mse_relation_holds_per_pair(self):
        # the invariant ties the two fields for any single comparison
        rng = np.random.default_rng(8)
        x, y = rng.random((16, 16)), rng.random((16, 16))
        err = float(np.mean((x - y) ** 2))
        assert psnr(x, y) == pytest.approx(10 * math.log10(1 / err), abs=1e-12)
