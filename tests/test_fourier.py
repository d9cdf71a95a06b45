import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from v2vsim.errors import ImageFormatError, ValidationError
from v2vsim.fourier import Spectrum, _low_band, align, dft2, domain_gap, idft2
from v2vsim.image_io import read_image, write_image

from images import shifted_domain_pair


def rms(a, b):
    return float(np.sqrt(np.mean((a - b) ** 2)))


def naive_dft2(img):
    """O(N^4) direct double-sum transform, DC-centered to match dft2."""
    h, w = img.shape
    out = np.zeros((h, w), dtype=complex)
    for u in range(h):
        for v in range(w):
            acc = 0.0 + 0.0j
            for r in range(h):
                for c in range(w):
                    acc += img[r, c] * np.exp(-2j * np.pi * (r * u / h + c * v / w))
            out[u, v] = acc
    return np.fft.fftshift(out)


class TestTransforms:
    def test_constant_image_is_dc_only(self):
        img = np.full((8, 10), 0.4)
        spec = dft2(img)
        dc = (4, 5)  # H//2, W//2 after the shift
        assert spec.amplitude[dc] == pytest.approx(0.4 * 80, rel=1e-12)
        assert spec.phase[dc] == pytest.approx(0.0, abs=1e-12)
        others = spec.amplitude.copy()
        others[dc] = 0.0
        assert np.all(others < 1e-9)

    def test_impulse_has_flat_amplitude(self):
        img = np.zeros((8, 8))
        img[0, 0] = 1.0
        spec = dft2(img)
        assert np.allclose(spec.amplitude, 1.0, atol=1e-12)

    def test_matches_naive_dft_on_8x8(self):
        rng = np.random.default_rng(5)
        img = rng.random((8, 8))
        spec = dft2(img)
        reference = naive_dft2(img)
        ours = spec.amplitude * np.exp(1j * spec.phase)
        assert np.max(np.abs(ours - reference)) < 1e-9

    @pytest.mark.parametrize("shape", [(8, 8), (7, 9), (8, 9), (16, 16), (9, 16)])
    def test_round_trip(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        img = rng.random(shape)
        assert rms(idft2(dft2(img)), img) < 1e-9

    def test_round_trip_color(self):
        rng = np.random.default_rng(17)
        img = rng.random((12, 10, 3))
        assert rms(idft2(dft2(img)), img) < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(23)
        img = rng.random((11, 13))
        spec = dft2(img)
        pixel_energy = float(np.sum(img ** 2))
        spectral_energy = float(np.sum(spec.amplitude ** 2)) / img.size
        assert spectral_energy == pytest.approx(pixel_energy, rel=1e-6)

    def test_spectrum_rejects_negative_amplitude(self):
        with pytest.raises(ValidationError):
            Spectrum(amplitude=-np.ones((4, 4)), phase=np.zeros((4, 4)))

    def test_rejects_tiny_images(self):
        with pytest.raises(ValidationError):
            dft2(np.ones((1, 5)))

    def test_rejects_bad_channel_count(self):
        with pytest.raises(ValidationError):
            dft2(np.ones((4, 4, 2)))


def band_mask(alpha, h, w):
    """``_low_band`` as a boolean mask over the H x (W//2 + 1) half spectrum."""
    mask = np.zeros((h, w // 2 + 1), dtype=bool)
    for rows, cols in _low_band(alpha, h, w):
        mask[rows, cols] = True
    return mask


def centred_rectangle_on_half(alpha, h, w):
    """The DC-centred full-spectrum rectangle, read at each half-spectrum bin.

    Half-spectrum bin (r, c) sits at ((r + H//2) % H, (c + W//2) % W) after
    fftshift; it is inside when both offsets from (H//2, W//2) are within
    floor(alpha * H) and floor(alpha * W).
    """
    hh, hw = math.floor(alpha * h), math.floor(alpha * w)
    expected = np.zeros((h, w // 2 + 1), dtype=bool)
    if alpha == 0:
        return expected
    for r in range(h):
        for c in range(w // 2 + 1):
            expected[r, c] = (abs((r + h // 2) % h - h // 2) <= hh
                              and abs((c + w // 2) % w - w // 2) <= hw)
    return expected


class TestMask:
    """The one low-frequency band, ``_low_band``, on the rfft2 half spectrum."""

    def test_alpha_zero_is_empty(self):
        assert not band_mask(0.0, 12, 34).any()

    def test_alpha_point_one_on_10x10(self):
        # half-widths 1: rows 0, 1 and 9 (frequency -1), columns 0 and 1
        mask = band_mask(0.1, 10, 10)
        assert mask.sum() == 6
        assert mask[0, 0] and mask[9, 1] and not mask[2, 0] and not mask[0, 2]

    def test_odd_dims_by_enumeration(self):
        assert np.array_equal(band_mask(0.45, 7, 9), centred_rectangle_on_half(0.45, 7, 9))

    @given(alpha=st.floats(0.0, 0.999), h=st.integers(2, 40), w=st.integers(2, 40))
    def test_count_formula(self, alpha, h, w):
        mask = band_mask(alpha, h, w)
        assert np.array_equal(mask, centred_rectangle_on_half(alpha, h, w))
        if alpha == 0:
            assert mask.sum() == 0
        else:
            hh, hw = math.floor(alpha * h), math.floor(alpha * w)
            assert mask.sum() == min(h, 2 * hh + 1) * min(w // 2 + 1, hw + 1)

    def test_alpha_one_rejected(self):
        with pytest.raises(ValidationError):
            _low_band(1.0, 8, 8)

    @pytest.mark.parametrize("alpha", [math.nan, -0.1])
    def test_alpha_nan_or_negative_rejected(self, alpha):
        with pytest.raises(ValidationError, match=r"alpha must lie in \[0, 1\)"):
            _low_band(alpha, 8, 8)


class TestMixAmplitude:
    """``align``'s amplitude mix, bin by bin on the half spectrum it writes."""

    def test_elementwise_selection(self):
        rng = np.random.default_rng(4)
        for shape in ((6, 6), (7, 9), (12, 10, 3)):
            src, tgt = rng.random(shape), rng.random(shape)
            out, src_spec, tgt_spec = (np.fft.rfft2(x, axes=(0, 1))
                                       for x in (align(src, tgt, 0.2, clip=False), src, tgt))
            inside = band_mask(0.2, shape[0], shape[1])
            if len(shape) == 3:
                inside = np.repeat(inside[:, :, None], shape[2], axis=2)
            assert inside.any() and not inside.all()
            amp = np.abs(out)
            assert np.allclose(amp[inside], np.abs(tgt_spec)[inside], rtol=1e-9, atol=1e-12)
            assert np.allclose(out[~inside], src_spec[~inside], rtol=1e-9, atol=1e-12)
            phase_gap = np.angle(out / src_spec)[amp > 1e-9]
            assert np.max(np.abs(phase_gap)) < 1e-9


class TestAlign:
    def test_alpha_zero_returns_source(self):
        rng = np.random.default_rng(6)
        src, tgt = rng.random((16, 16)), rng.random((16, 16))
        assert rms(align(src, tgt, 0.0), src) < 1e-9

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.3, 0.49])
    def test_self_alignment_identity(self, alpha):
        rng = np.random.default_rng(7)
        src = rng.random((15, 17))
        assert rms(align(src, src.copy(), alpha), src) < 1e-9

    def test_brightness_moves_toward_target(self):
        rng = np.random.default_rng(8)
        src = np.clip(0.3 + 0.2 * rng.random((24, 24)), 0, 1)
        tgt = np.clip(src + 0.3, 0, 1)
        out = align(src, tgt, 0.05)
        assert abs(out.mean() - tgt.mean()) < abs(src.mean() - tgt.mean())

    def test_phase_and_amplitude_contracts(self, fda_reference):
        rng = np.random.default_rng(9)
        src, tgt = rng.random((16, 16)), rng.random((16, 16))
        alpha = 0.2
        out = align(src, tgt, alpha, clip=False)
        out_spec = np.fft.fftshift(np.fft.fft2(out))
        src_spec = np.fft.fftshift(np.fft.fft2(src))
        mixed = fda_reference(src, tgt, alpha)[1]
        # amplitude obeys the mixing contract
        assert np.max(np.abs(np.abs(out_spec) - mixed) / (mixed + 1e-12)) < 1e-6
        # phase follows the source wherever amplitude is meaningful
        significant = np.abs(out_spec) > 1e-12
        dphi = np.angle(np.exp(1j * (np.angle(out_spec) - np.angle(src_spec))))
        assert np.max(np.abs(dphi[significant])) < 1e-6

    def test_influence_grows_with_alpha(self):
        rng = np.random.default_rng(10)
        src = rng.random((20, 20))
        tgt = rng.random((20, 20))
        prev = -1.0
        for alpha in (0.0, 0.05, 0.1, 0.2, 0.3, 0.45):
            d = rms(align(src, tgt, alpha, clip=False), src)
            assert d >= prev - 1e-12  # masks nest, so swapped energy only grows
            prev = d

    @pytest.mark.parametrize("alpha", [0.0, 0.05, 0.25, 0.5, 0.6, 0.99])
    @pytest.mark.parametrize("shape", [(2, 2), (8, 8), (7, 9), (8, 9), (176, 176),
                                       (12, 10, 3)])
    def test_matches_full_spectrum_mix(self, shape, alpha, fda_reference):
        # the full-plane formula: target amplitude inside the DC-centered
        # rectangle, source amplitude outside, source phase everywhere
        rng = np.random.default_rng(sum(shape) + int(alpha * 100))
        src, tgt = rng.random(shape), rng.random(shape)
        expected = fda_reference(src, tgt, alpha)[0]
        out = align(src, tgt, alpha, clip=False)
        assert out.shape == shape
        assert np.max(np.abs(out - expected)) < 1e-12

    @given(h=st.integers(2, 40), w=st.integers(2, 40), alpha=st.floats(0.0, 0.999),
           colour=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_full_spectrum_mix_on_any_shape(self, fda_reference, h, w, alpha,
                                                     colour, seed):
        rng = np.random.default_rng(seed)
        shape = (h, w, 3) if colour else (h, w)
        src, tgt = rng.random(shape), rng.random(shape)
        out = align(src, tgt, alpha, clip=False)
        assert np.max(np.abs(out - fda_reference(src, tgt, alpha)[0])) < 1e-12

    @pytest.mark.parametrize("alpha", [1.0, math.nan, -0.1])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValidationError, match=r"alpha must lie in \[0, 1\)"):
            align(np.ones((8, 8)), np.ones((8, 8)), alpha)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            align(np.ones((8, 8)), np.ones((8, 9)), 0.1)

    def test_output_clipped(self):
        rng = np.random.default_rng(12)
        src = np.clip(rng.random((12, 12)), 0, 1)
        tgt = np.clip(src * 0.2 + 0.8, 0, 1)
        out = align(src, tgt, 0.3)
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestDomainGap:
    def test_identical_singletons(self):
        img = np.full((8, 8), 0.5)
        assert domain_gap([img], [img.copy()], 0.2) == 0.0

    def test_constant_sets_dc_distance(self):
        h = w = 16
        a = [np.full((h, w), 0.2)]
        b = [np.full((h, w), 0.8)]
        expected = abs(math.log1p(0.2 * h * w) - math.log1p(0.8 * h * w))
        assert domain_gap(a, b, 0.1) == pytest.approx(expected, rel=1e-9)

    def test_symmetric(self):
        set_a, set_b = shifted_domain_pair(count=3)
        assert domain_gap(set_a, set_b, 0.1) == pytest.approx(
            domain_gap(set_b, set_a, 0.1), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.05, 0.1])
    def test_gap_shrinks_after_alignment(self, alpha):
        set_a, set_b = shifted_domain_pair()
        before = domain_gap(set_a, set_b, alpha)
        aligned = [align(b, a, alpha) for a, b in zip(set_a, set_b)]
        after = domain_gap(set_a, aligned, alpha)
        assert after < before

    def test_empty_set_rejected(self):
        with pytest.raises(ValidationError):
            domain_gap([], [np.ones((4, 4))], 0.1)

    @pytest.mark.parametrize("alpha", [1.0, math.nan, -0.1])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValidationError, match=r"alpha must lie in \[0, 1\)"):
            domain_gap([np.ones((8, 8))], [np.zeros((8, 8))], alpha)

    def test_alpha_zero_gap_is_zero(self):
        rng = np.random.default_rng(16)
        assert domain_gap([rng.random((9, 12))], [rng.random((9, 12))], 0.0) == 0.0

    @pytest.mark.parametrize("shape", [(16, 16), (9, 14), (12, 10, 3)])
    def test_feature_is_the_aligned_band(self, shape):
        # the log-amplitude distance over the half-spectrum bins of the
        # centred rectangle, each bin once
        rng = np.random.default_rng(sum(shape))
        a, b = rng.random(shape), rng.random(shape)
        inside = centred_rectangle_on_half(0.2, shape[0], shape[1])
        fa, fb = (np.log1p(np.abs(np.fft.rfft2(x, axes=(0, 1)))[inside]) for x in (a, b))
        assert domain_gap([a], [b], 0.2) == pytest.approx(np.linalg.norm(fa - fb), rel=1e-12)


class TestImageIO:
    def test_pgm_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(14)
        img = rng.random((9, 13))
        path = tmp_path / "t.pgm"
        write_image(path, img)
        again = read_image(path)
        write_image(tmp_path / "t2.pgm", again)
        assert (tmp_path / "t.pgm").read_bytes() == (tmp_path / "t2.pgm").read_bytes()

    def test_ppm_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(15)
        img = rng.random((6, 7, 3))
        path = tmp_path / "t.ppm"
        write_image(path, img)
        again = read_image(path)
        assert again.shape == (6, 7, 3)
        write_image(tmp_path / "t2.ppm", again)
        assert (tmp_path / "t.ppm").read_bytes() == (tmp_path / "t2.ppm").read_bytes()

    def test_one_channel_3d_image_not_written(self, tmp_path):
        # grayscale is (H, W) only; read_image never returns (H, W, 1)
        with pytest.raises(ImageFormatError, match="cannot map shape"):
            write_image(tmp_path / "t.pgm", np.zeros((4, 5, 1)))
        assert not (tmp_path / "t.pgm").exists()

    def test_comments_in_header(self, tmp_path):
        payload = bytes(range(6))
        data = b"P5\n# a comment\n3 2\n# another\n255\n" + payload
        path = tmp_path / "c.pgm"
        path.write_bytes(data)
        img = read_image(path)
        assert img.shape == (2, 3)
        assert img[0, 1] == pytest.approx(1.0 / 255.0)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ImageFormatError):
            read_image(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pbm"
        path.write_bytes(b"P1\n2 2\n0 1 1 0\n")
        with pytest.raises(ImageFormatError):
            read_image(path)

    def test_16bit_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
        with pytest.raises(ImageFormatError):
            read_image(path)

    def test_sample_above_maxval_rejected(self, tmp_path):
        # a sample of 200 under maxval 100 would read as 2.0, outside [0, 1]
        path = tmp_path / "over.pgm"
        path.write_bytes(b"P5\n2 1\n100\n\x64\xc8")
        with pytest.raises(ImageFormatError, match="exceeds maxval"):
            read_image(path)
