import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2vsim.codec import (QUANT_STEP_GRID, CodecConfig, EntropyModel,
                          decode, deserialize_frame,
                          distortion_weight, encode, rate_control, rd_cost,
                          refine_model, serialize_frame)
from v2vsim.errors import BudgetError, ValidationError
from v2vsim.synth import (codec_fixture_images, rich_image, shifting_sequence,
                          sine_image)


@pytest.fixture(scope="module")
def generic():
    return EntropyModel.generic()


def dct_matrix(n: int) -> np.ndarray:
    m = np.zeros((n, n))
    for k in range(n):
        for i in range(n):
            scale = math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)
            m[k, i] = scale * math.cos(math.pi * (2 * i + 1) * k / (2 * n))
    return m


class TestEncodeDecode:
    def test_constant_image_dc_only(self, generic):
        img = np.full((16, 16), 0.5)
        frame = encode(img, CodecConfig(quant_step=1.0), generic)
        blocks = frame.qcoeffs.reshape(2, 8, 2, 8)
        ac = blocks.copy()
        ac[:, 0, :, 0] = 0
        assert np.all(ac == 0)
        # bit count decomposes into 4 DC symbols plus 252 zeros
        logp = np.log2(generic.probabilities())
        dc_symbol = blocks[0, 0, 0, 0]
        expected = -4 * logp[dc_symbol + generic.radius] - 252 * logp[generic.radius]
        assert frame.bit_count == pytest.approx(expected, rel=1e-12)

    def test_golden_bit_count_16x16(self, generic):
        # pinned once from an independent transform + per-symbol log sum
        frame = encode(sine_image(16, 16), CodecConfig(quant_step=4.0), generic)
        assert frame.bit_count == pytest.approx(137.3528650696062, abs=1e-9)

    def test_independent_log_sum_oracle(self, generic):
        img = sine_image(16, 16)
        frame = encode(img, CodecConfig(quant_step=4.0), generic)
        basis = dct_matrix(8)
        logp = np.log2(generic.probabilities())
        bits = 0.0
        for by in range(2):
            for bx in range(2):
                block = img[by * 8:(by + 1) * 8, bx * 8:(bx + 1) * 8]
                coeffs = basis @ block @ basis.T
                q = np.round(coeffs / 4.0).astype(int)
                for s in q.ravel():
                    bits -= logp[int(np.clip(s, -generic.radius, generic.radius))
                                 + generic.radius]
        assert frame.bit_count == pytest.approx(bits, abs=1e-9)

    @pytest.mark.parametrize("step", [0.02, 0.2, 1.0, 4.0])
    def test_round_trip_bound_on_fixtures(self, generic, step):
        for img in codec_fixture_images():
            rec = decode(encode(img, CodecConfig(quant_step=step), generic))
            assert np.mean((img - rec) ** 2) <= step ** 2 / 12 + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), step=st.floats(0.01, 4.0),
           h=st.sampled_from([8, 16, 24]), w=st.sampled_from([8, 16, 32]))
    def test_worst_case_round_trip_bound(self, generic, seed, step, h, w):
        # any image: per-coefficient error is at most step/2
        img = np.random.default_rng(seed).random((h, w))
        rec = decode(encode(img, CodecConfig(quant_step=step), generic))
        assert np.mean((img - rec) ** 2) <= step ** 2 / 4 + 1e-12

    def test_near_lossless_at_tiny_step(self, generic):
        img = sine_image(16, 16)
        rec = decode(encode(img, CodecConfig(quant_step=1e-9), generic))
        assert np.max(np.abs(img - rec)) < 1e-8

    def test_color_round_trip(self, generic):
        rng = np.random.default_rng(3)
        img = rng.random((16, 16, 3))
        frame = encode(img, CodecConfig(quant_step=0.05), generic)
        rec = decode(frame)
        assert rec.shape == img.shape
        assert np.mean((img - rec) ** 2) <= 0.05 ** 2 / 4

    def test_nonmultiple_dims_cropped_back(self, generic):
        rng = np.random.default_rng(4)
        img = rng.random((13, 21))
        rec = decode(encode(img, CodecConfig(quant_step=0.02), generic))
        assert rec.shape == img.shape

    def test_zero_sized_rejected(self, generic):
        with pytest.raises(ValidationError):
            encode(np.zeros((0, 4)), CodecConfig(), generic)

    def test_deterministic(self, generic):
        img = sine_image()
        a = encode(img, CodecConfig(quant_step=0.1), generic)
        b = encode(img, CodecConfig(quant_step=0.1), generic)
        assert np.array_equal(a.qcoeffs, b.qcoeffs)
        assert a.bit_count == b.bit_count


class TestDistortionWeight:
    def test_unit_ratio_gives_max(self):
        assert distortion_weight(1.0, CodecConfig()) == 100.0

    def test_vanishes_with_ratio(self):
        assert distortion_weight(1e-9, CodecConfig()) == pytest.approx(0.0, abs=1e-12)

    def test_square_law_midpoint(self):
        cfg = CodecConfig(rd_weight_max=100.0, rd_weight_power=2.0)
        assert distortion_weight(0.5, cfg) == pytest.approx(25.0, rel=1e-12)

    @given(r1=st.floats(0.01, 1.0), r2=st.floats(0.01, 1.0))
    def test_monotone(self, r1, r2):
        cfg = CodecConfig()
        lo, hi = sorted((r1, r2))
        assert distortion_weight(lo, cfg) <= distortion_weight(hi, cfg)


class TestRdCost:
    def test_lossless_cost_is_bits(self, generic):
        img = sine_image(16, 16)
        cfg = CodecConfig(quant_step=1e-12)
        frame = encode(img, cfg, generic)
        cost = rd_cost(img, frame, 0.5, cfg, generic)
        assert cost == pytest.approx(frame.bit_count, rel=1e-9)

    def test_compositional_grid(self, generic):
        img = codec_fixture_images()[1]
        cfg = CodecConfig(quant_step=0.2)
        frame = encode(img, cfg, generic)
        rec = decode(frame)
        err = float(np.mean((img - rec) ** 2))
        for ratio in (0.1, 0.4, 0.7, 1.0):
            expected = frame.bit_count + distortion_weight(ratio, cfg) * err
            assert rd_cost(img, frame, ratio, cfg, generic) == pytest.approx(
                expected, rel=1e-12)

    def test_monotone_in_weight(self, generic):
        img = codec_fixture_images()[0]
        cfg = CodecConfig(quant_step=0.5)
        frame = encode(img, cfg, generic)
        costs = [rd_cost(img, frame, r, cfg, generic) for r in (0.2, 0.5, 1.0)]
        assert costs == sorted(costs)


class TestRateControl:
    def test_slack_budget_chooses_finest_step(self, generic):
        rng = np.random.default_rng(42)
        noise = np.clip(0.5 + 0.015 * rng.standard_normal((16, 16)), 0, 1)
        step, frame = rate_control(noise, 1.0, generic, CodecConfig())
        assert step == QUANT_STEP_GRID[0]
        assert frame.bit_count <= 1.05 * 16 * 16 * 8

    def test_budgets_met_across_ratio_grid(self, generic):
        cfg = CodecConfig()
        for img in codec_fixture_images():
            raw = img.size * 8
            prev_bits = math.inf
            for ratio in [round(0.1 * k, 1) for k in range(10, 0, -1)]:
                step, frame = rate_control(img, ratio, generic, cfg)
                assert frame.bit_count <= (1 + cfg.rate_tolerance) * ratio * raw
                assert frame.bit_count <= prev_bits + 1e-9
                prev_bits = frame.bit_count

    def test_matches_exhaustive_scan(self, generic):
        img = codec_fixture_images()[1]
        cfg = CodecConfig()
        ratio = 0.25
        allowed = (1 + cfg.rate_tolerance) * ratio * img.size * 8
        chosen = None
        for step in QUANT_STEP_GRID:
            frame = encode(img, CodecConfig(quant_step=float(step)), generic)
            if frame.bit_count <= allowed:
                chosen = float(step)
                break
        step, _ = rate_control(img, ratio, generic, cfg)
        assert step == chosen

    def test_unreachable_budget(self, generic):
        img = codec_fixture_images()[2]
        with pytest.raises(BudgetError):
            rate_control(img, 0.001, generic, CodecConfig())

    def test_psnr_degrades_as_ratio_drops(self, generic):
        from v2vsim.metrics import psnr
        cfg = CodecConfig()
        img = codec_fixture_images()[1]
        values = []
        for ratio in (1.0, 0.7, 0.4, 0.2, 0.1):
            _, frame = rate_control(img, ratio, generic, cfg)
            values.append(psnr(img, decode(frame)))
        for better, worse in zip(values, values[1:]):
            assert worse <= better + 1e-9

    def test_deterministic(self, generic):
        img = codec_fixture_images()[0]
        a = rate_control(img, 0.3, generic, CodecConfig())
        b = rate_control(img, 0.3, generic, CodecConfig())
        assert a[0] == b[0]
        assert a[1].bit_count == b[1].bit_count

    @pytest.mark.parametrize("ratio", [1.0, 0.3, 0.1])
    def test_encodes_each_step_once(self, generic, monkeypatch, ratio):
        steps = []

        def counting_encode(img, cfg, em):
            steps.append(cfg.quant_step)
            return encode(img, cfg, em)

        monkeypatch.setattr("v2vsim.codec.encode", counting_encode)
        img = codec_fixture_images()[1]
        step, frame = rate_control(img, ratio, generic, CodecConfig())
        assert len(steps) == len(set(steps))
        assert step in steps
        direct = encode(img, CodecConfig(quant_step=step), generic)
        assert frame.bit_count == direct.bit_count
        assert np.array_equal(frame.qcoeffs, direct.qcoeffs)


class TestEntropyModel:
    def test_probabilities_normalized(self, generic):
        p = generic.probabilities()
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p > 0)

    def test_frequencies_respect_smoothing_floor(self, generic):
        assert np.all(generic.freq >= 1.0)
        trained = EntropyModel.from_counts(
            np.zeros(2 * generic.radius + 1), generic.radius, "empty", 0)
        assert np.all(trained.freq >= 1.0)

    def test_bad_tables_rejected(self):
        with pytest.raises(ValidationError):
            EntropyModel(np.full(11, 0.5), 5, "sub-smoothing")
        with pytest.raises(ValidationError):
            EntropyModel(np.ones(10), 5, "wrong-size")


class TestRefinement:
    def test_refined_on_exact_frame_beats_generic(self, generic):
        cfg = CodecConfig(quant_step=0.01)
        target = rich_image()
        trained = refine_model(generic, [target], cfg)
        assert (encode(target, cfg, trained).bit_count
                <= encode(target, cfg, generic).bit_count)

    def test_noise_training_makes_no_promise(self, generic):
        # documented negative case: training on noise then coding structure
        rng = np.random.default_rng(6)
        cfg = CodecConfig(quant_step=0.05)
        noise_frames = [rng.random((32, 32)) for _ in range(3)]
        trained = refine_model(generic, noise_frames, cfg)
        bits = encode(rich_image(32, 32), cfg, trained).bit_count
        assert math.isfinite(bits) and bits > 0

    def test_sequence_refinement_saves_bits(self, generic):
        frames = shifting_sequence()
        cfg = CodecConfig(quant_step=0.01)
        refined = refine_model(generic, frames[:5], cfg)
        generic_bits = np.mean([encode(f, cfg, generic).bit_count for f in frames[5:]])
        refined_bits = np.mean([encode(f, cfg, refined).bit_count for f in frames[5:]])
        assert refined_bits <= 0.95 * generic_bits

    def test_cross_entropy_optimality_with_slack(self, generic):
        # a model trained on a frame set prices it within the smoothing slack
        # of any other model: n * log2(1 + alphabet / n) extra bits at most
        frames = shifting_sequence()[:5]
        cfg = CodecConfig(quant_step=0.02)
        trained = refine_model(generic, frames, cfg)
        n_symbols = sum(encode(f, cfg, generic).qcoeffs.size for f in frames)
        alphabet = 2 * generic.radius + 1
        slack = n_symbols * math.log2(1 + alphabet / n_symbols)
        bits_trained = sum(encode(f, cfg, trained).bit_count for f in frames)
        for other in (generic, refine_model(generic, [rich_image()], cfg)):
            bits_other = sum(encode(f, cfg, other).bit_count for f in frames)
            assert bits_trained <= bits_other + slack

    def test_returns_new_model(self, generic):
        frames = [rich_image()]
        before = generic.freq.copy()
        refined = refine_model(generic, frames, CodecConfig(quant_step=0.05))
        assert refined is not generic
        assert np.array_equal(generic.freq, before)
        assert refined.trained_on == 1

    def test_empty_frame_list_rejected(self, generic):
        with pytest.raises(ValidationError):
            refine_model(generic, [], CodecConfig())


class TestSerialization:
    def test_round_trip(self, generic):
        img = sine_image(20, 24)
        frame = encode(img, CodecConfig(quant_step=0.1), generic)
        blob = serialize_frame(frame)
        back = deserialize_frame(blob, generic)
        assert np.array_equal(back.qcoeffs, frame.qcoeffs)
        assert back.quant_step == frame.quant_step
        assert back.model_id == frame.model_id
        assert (back.height, back.width, back.channels) == (20, 24, 1)
        assert back.bit_count == pytest.approx(frame.bit_count, abs=1e-9)
        assert np.array_equal(decode(back), decode(frame))

    def test_round_trip_color(self, generic):
        rng = np.random.default_rng(8)
        img = rng.random((16, 16, 3))
        frame = encode(img, CodecConfig(quant_step=0.1), generic)
        back = deserialize_frame(serialize_frame(frame), generic)
        assert np.array_equal(back.qcoeffs, frame.qcoeffs)

    def test_bit_count_nan_without_model(self, generic):
        frame = encode(sine_image(16, 16), CodecConfig(quant_step=0.1), generic)
        back = deserialize_frame(serialize_frame(frame))
        assert math.isnan(back.bit_count)

    def test_model_mismatch_rejected(self, generic):
        frame = encode(sine_image(16, 16), CodecConfig(quant_step=0.1), generic)
        other = EntropyModel.generic(radius=64)
        with pytest.raises(ValidationError):
            deserialize_frame(serialize_frame(frame), other)

    def test_bad_magic_rejected(self, generic):
        frame = encode(sine_image(16, 16), CodecConfig(quant_step=0.1), generic)
        blob = bytearray(serialize_frame(frame))
        blob[0] = 0x58
        with pytest.raises(ValidationError):
            deserialize_frame(bytes(blob))

    def test_truncated_payload_rejected(self, generic):
        frame = encode(sine_image(16, 16), CodecConfig(quant_step=0.1), generic)
        blob = serialize_frame(frame)
        with pytest.raises(ValidationError):
            deserialize_frame(blob[:-3])

    def test_wire_range_enforced(self, generic):
        img = sine_image(16, 16)
        frame = encode(img, CodecConfig(quant_step=1e-7), generic)
        with pytest.raises(ValidationError):
            serialize_frame(frame)
