import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from v2vsim.errors import ImageFormatError, ValidationError
from v2vsim.fourier import (Spectrum, align, dft2, domain_gap, idft2,
                            low_freq_mask, mix_amplitude)
from v2vsim.image_io import read_image, write_image
from v2vsim.synth import shifted_domain_pair


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


class TestMask:
    def test_alpha_zero_is_empty(self):
        assert low_freq_mask(0.0, 12, 34).ones_count == 0

    def test_alpha_point_one_on_10x10(self):
        mask = low_freq_mask(0.1, 10, 10)
        assert mask.ones_count == 9
        assert mask.mask[5, 5]

    def test_odd_dims_by_enumeration(self):
        mask = low_freq_mask(0.45, 7, 9)
        hh, hw = math.floor(0.45 * 7), math.floor(0.45 * 9)
        expected = np.zeros((7, 9), dtype=bool)
        for r in range(7):
            for c in range(9):
                if abs(r - 3) <= hh and abs(c - 4) <= hw:
                    expected[r, c] = True
        assert np.array_equal(mask.mask, expected)
        assert mask.ones_count == int(expected.sum())

    @given(alpha=st.floats(0.0, 0.999), h=st.integers(2, 40), w=st.integers(2, 40))
    def test_count_formula(self, alpha, h, w):
        mask = low_freq_mask(alpha, h, w)
        if alpha == 0:
            assert mask.ones_count == 0
        else:
            hh, hw = math.floor(alpha * h), math.floor(alpha * w)
            rows = min(h - 1, h // 2 + hh) - max(0, h // 2 - hh) + 1
            cols = min(w - 1, w // 2 + hw) - max(0, w // 2 - hw) + 1
            assert mask.ones_count == rows * cols

    def test_alpha_one_rejected(self):
        with pytest.raises(ValidationError):
            low_freq_mask(1.0, 8, 8)

    @pytest.mark.parametrize("alpha", [math.nan, -0.1])
    def test_alpha_nan_or_negative_rejected(self, alpha):
        with pytest.raises(ValidationError, match=r"alpha must lie in \[0, 1\)"):
            low_freq_mask(alpha, 8, 8)


class TestMixAmplitude:
    def test_empty_mask_keeps_source(self):
        rng = np.random.default_rng(2)
        src, tgt = rng.random((6, 6)), rng.random((6, 6))
        out = mix_amplitude(src, tgt, low_freq_mask(0.0, 6, 6))
        assert np.array_equal(out, src)

    def test_self_mix_identity(self):
        rng = np.random.default_rng(3)
        src = rng.random((6, 6))
        out = mix_amplitude(src, src.copy(), low_freq_mask(0.2, 6, 6))
        assert np.array_equal(out, src)

    def test_elementwise_selection(self):
        rng = np.random.default_rng(4)
        src, tgt = rng.random((6, 6)), rng.random((6, 6))
        mask = low_freq_mask(0.2, 6, 6)
        out = mix_amplitude(src, tgt, mask)
        for r in range(6):
            for c in range(6):
                assert out[r, c] == (tgt[r, c] if mask.mask[r, c] else src[r, c])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            mix_amplitude(np.ones((6, 6)), np.ones((6, 7)), low_freq_mask(0.2, 6, 6))
        with pytest.raises(ValidationError):
            mix_amplitude(np.ones((8, 8)), np.ones((8, 8)), low_freq_mask(0.2, 6, 6))


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

    def test_phase_and_amplitude_contracts(self):
        rng = np.random.default_rng(9)
        src, tgt = rng.random((16, 16)), rng.random((16, 16))
        alpha = 0.2
        out = align(src, tgt, alpha, clip=False)
        out_spec = dft2(out)
        src_spec = dft2(src)
        tgt_spec = dft2(tgt)
        mask = low_freq_mask(alpha, 16, 16)
        mixed = mix_amplitude(src_spec.amplitude, tgt_spec.amplitude, mask)
        # amplitude obeys the mixing contract
        assert np.max(np.abs(out_spec.amplitude - mixed) / (mixed + 1e-12)) < 1e-6
        # phase follows the source wherever amplitude is meaningful
        significant = out_spec.amplitude > 1e-12
        dphi = np.angle(np.exp(1j * (out_spec.phase - src_spec.phase)))
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
    def test_matches_full_spectrum_mix(self, shape, alpha):
        # the full-plane formula: target amplitude inside the DC-centered
        # mask, source amplitude outside, source phase everywhere
        rng = np.random.default_rng(sum(shape) + int(alpha * 100))
        src, tgt = rng.random(shape), rng.random(shape)
        src_spec, tgt_spec = dft2(src), dft2(tgt)
        mask = low_freq_mask(alpha, shape[0], shape[1])
        mixed = mix_amplitude(src_spec.amplitude, tgt_spec.amplitude, mask)
        expected = idft2(Spectrum(mixed, src_spec.phase))
        out = align(src, tgt, alpha, clip=False)
        assert out.shape == shape
        assert np.max(np.abs(out - expected)) < 1e-12

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
