import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2vsim import codec
from v2vsim.codec import (QUANT_STEP_GRID, CodecConfig, EncodedFrame,
                          EntropyModel, decode, deserialize_frame, encode,
                          rate_control, refine_model, serialize_frame)
from v2vsim.errors import BudgetError, ValidationError
from v2vsim.fourier import align, domain_gap
from v2vsim.synth import shifting_sequence, sine_image

from images import codec_fixture_images, rich_image


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


def assert_same_frame(a: EncodedFrame, b: EncodedFrame) -> None:
    for field in dataclasses.fields(EncodedFrame):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert type(x) is type(y), field.name
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


def rgb_fixture() -> np.ndarray:
    return np.stack(codec_fixture_images(), axis=-1)


def reference_blockwise(x: np.ndarray, block: int, forward: bool) -> np.ndarray:
    """The block transform as one batched per-tile matmul: every tile of every
    channel moved to the end, ``(c @ tile) @ c.T``, then transposed back."""
    h, w = x.shape[:2]
    c = codec._dct_basis(block) if forward else codec._dct_basis(block).T
    # (rows, i, cols, j, channel) -> (channel, rows, cols, i, j)
    tiles = x.reshape(h // block, block, w // block, block, -1).transpose(4, 0, 2, 1, 3)
    return (c @ tiles @ c.T).transpose(1, 3, 2, 4, 0).reshape(x.shape)


def blockwise(x: np.ndarray, block: int, forward: bool) -> np.ndarray:
    """``codec._blockwise`` into a fresh output array."""
    return codec._blockwise(x, block, forward, np.empty(x.shape))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and equal float64 bit patterns (so -0.0 differs from 0.0)."""
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64))


class TestEncodeDecode:
    def test_constant_image_dc_only(self, generic):
        img = np.full((16, 16), 0.5)
        frame = encode(img, CodecConfig(quant_step=1.0), generic)
        blocks = frame.qcoeffs.reshape(2, 8, 2, 8)
        ac = blocks.copy()
        ac[:, 0, :, 0] = 0
        assert np.all(ac == 0)
        # bit count decomposes into 4 DC symbols plus 252 zeros
        logp = np.log2(generic.freq / generic.freq.sum())
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
        logp = np.log2(generic.freq / generic.freq.sum())
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

    def test_block_transform_matches_scipy(self, generic):
        from scipy.fft import dctn, idctn
        rng = np.random.default_rng(11)
        for block in (1, 2, 3, 8, 16):
            for shape in ((3 * block, 2 * block), (3 * block, 2 * block, 3)):
                x = rng.random(shape)
                tiles = x.reshape(3, block, 2, block, -1)
                for forward, ref in ((True, dctn), (False, idctn)):
                    expected = ref(tiles, axes=(1, 3), norm="ortho").reshape(shape)
                    got = blockwise(x, block, forward)
                    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        # quantized coefficients and bits equal those of a SciPy transform
        for block in (8, 16):
            for img in codec_fixture_images():
                h, w = img.shape
                tiles = img.reshape(h // block, block, w // block, block)
                coeffs = dctn(tiles, axes=(1, 3), norm="ortho").reshape(h, w)
                for step in QUANT_STEP_GRID[::3]:
                    cfg = CodecConfig(block_size=block, quant_step=float(step))
                    frame = encode(img, cfg, generic)
                    q = np.round(coeffs / float(step)).astype(np.int64)
                    assert np.array_equal(frame.qcoeffs, q)
                    assert frame.bit_count == generic.bits_for_symbols(q)

    def test_zero_sized_rejected(self, generic):
        with pytest.raises(ValidationError):
            encode(np.zeros((0, 4)), CodecConfig(), generic)

    @pytest.mark.parametrize("field, value", [
        ("quant_step", math.nan), ("quant_step", math.inf),
        ("rate_tolerance", math.nan), ("rate_tolerance", math.inf),
        ("rate_tolerance", -0.5)])
    def test_non_finite_or_negative_config_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            CodecConfig(**{field: value})

    @pytest.mark.parametrize("shape", [(16, 16), (16, 16, 3), (13, 21), (256, 256)])
    @pytest.mark.parametrize("value", [1e308, -1e308, 1e300, math.nan, -1e-300, 1 + 2 ** -52])
    def test_transform_overflow_rejected(self, generic, shape, value):
        # one value outside [0, 1] in a zero image is rejected at entry, by
        # every image entry point; 1e300 on (256, 256) used to make
        # rate_control wrap its int64 coefficients, and +-1e308 to overflow
        # the transform
        img = np.zeros(shape)
        img[0, 0] = value
        calls = [lambda: encode(img, CodecConfig(), generic),
                 lambda: rate_control(img, 1.0, generic, CodecConfig()),
                 lambda: refine_model(generic, [img], CodecConfig()),
                 lambda: align(img, np.zeros(shape), 0.1),
                 lambda: align(np.zeros(shape), img, 0.1),
                 lambda: domain_gap([img], [np.zeros(shape)], 0.1),
                 lambda: domain_gap([np.zeros(shape)], [img], 0.1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ValidationError, match=r"values must lie in \[0, 1\]"):
                    call()

    def test_one_channel_3d_image_rejected(self, generic):
        # the container stores 1 channel for (H, W) and (H, W, 1) alike, so a
        # (16, 16, 1) frame came back (16, 16): grayscale is (H, W) only
        img = np.full((16, 16, 1), 0.5)
        calls = [lambda: encode(img, CodecConfig(), generic),
                 lambda: rate_control(img, 1.0, generic, CodecConfig()),
                 lambda: refine_model(generic, [img], CodecConfig()),
                 lambda: align(img, img[:, :, 0], 0.1),
                 lambda: domain_gap([img[:, :, 0]], [img], 0.1)]
        for call in calls:
            with pytest.raises(ValidationError, match=r"\(H, W\) or \(H, W, 3\) array, "
                                                      r"got shape \(16, 16, 1\)"):
                call()

    @pytest.mark.parametrize("value", [0.0, -0.0, 1.0])
    @pytest.mark.parametrize("shape", [(16, 16), (13, 21, 3)])
    def test_unit_range_ends_accepted(self, generic, shape, value):
        img = np.full(shape, value)
        frame = encode(img, CodecConfig(), generic)
        assert np.array_equal(decode(frame), np.full(shape, abs(value)))
        rate_control(img, 1.0, generic, CodecConfig())
        refine_model(generic, [img], CodecConfig())
        assert np.array_equal(align(img, img, 0.1), np.full(shape, abs(value)))
        assert domain_gap([img], [img], 0.1) == 0.0

    def test_step_too_fine_for_int64_rejected(self, generic):
        # |coeff| <= block_size, so block_size / quant_step must stay below
        # 2**62 for coeffs / step to fit int64; it is a configuration error
        for step in (1e-300, 2.0 ** -59):
            with pytest.raises(ValidationError, match="too fine"):
                CodecConfig(block_size=8, quant_step=step)
        step = float(np.nextafter(2.0 ** -59, 1.0))
        frame = encode(np.ones((16, 16)), CodecConfig(block_size=8, quant_step=step), generic)
        dc = frame.qcoeffs[::8, ::8]
        assert np.all(np.abs(dc - 2 ** 62) <= 2 ** 12), dc  # positive, not wrapped
        refine_model(generic, [np.ones((16, 16))], CodecConfig(block_size=8, quant_step=step))

    def test_deterministic(self, generic):
        img = sine_image()
        a = encode(img, CodecConfig(quant_step=0.1), generic)
        b = encode(img, CodecConfig(quant_step=0.1), generic)
        assert np.array_equal(a.qcoeffs, b.qcoeffs)
        assert a.bit_count == b.bit_count


class TestBlockwise:
    @pytest.mark.parametrize("block", [1, 2, 3, 5, 8, 16])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_bit_identical_to_per_tile_reference(self, block, channels):
        rng = np.random.default_rng(block * 10 + channels)
        shapes = [(6 * block, 5 * block), (192 // block * block, 192 // block * block)]
        for shape in shapes:
            shape = shape if channels == 1 else (*shape, channels)
            image = rng.random(shape)
            # inverse inputs as decode makes them: integer symbols times a step
            coeffs = np.round(rng.normal(scale=40.0, size=shape)) * 0.0371
            for forward, x in ((True, image), (False, coeffs)):
                for view in (x, x[::-1], np.asfortranarray(x)):
                    got = blockwise(view, block, forward)
                    assert same_bits(got, reference_blockwise(view, block, forward)), (
                        shape, forward, view.flags.c_contiguous)

    @settings(max_examples=60, deadline=None)
    @given(block=st.integers(1, 255), h=st.integers(2, 40), w=st.integers(2, 40),
           channels=st.sampled_from([1, 3]),
           kind=st.sampled_from(["ones", "random", "binary", "checker"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_coefficients_bounded_by_block_size(self, block, h, w, channels, kind, seed):
        # an orthonormal transform of values in [0, 1] has |c| <= block_size,
        # the bound CodecConfig's step limit rests on
        rng = np.random.default_rng(seed)
        shape = (h, w) if channels == 1 else (h, w, channels)
        img = {"ones": lambda: np.ones(shape),
               "random": lambda: rng.random(shape),
               "binary": lambda: rng.integers(0, 2, shape).astype(float),
               "checker": lambda: np.indices(shape).sum(axis=0) % 2.0}[kind]()
        _, coeffs = codec._transform(img, block)
        assert np.abs(coeffs).max() <= block * (1 + 1e-12)

    def test_column_factor_built_once_and_read_only(self, monkeypatch):
        x = np.random.default_rng(7).random((16, 24, 3))
        first = blockwise(x, 8, True), blockwise(x, 8, False)

        def no_kron(*args, **kwargs):
            raise AssertionError("np.kron called again for a cached factor")

        monkeypatch.setattr(np, "kron", no_kron)
        for forward, before in zip((True, False), first):
            assert same_bits(blockwise(x, 8, forward), before)
            assert same_bits(before, reference_blockwise(x, 8, forward))
            for ch in (1, 3):
                assert not codec._right_factor(8, ch, forward).flags.writeable

    @pytest.mark.parametrize("block", [1, 3, 8, 16])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_output_may_be_the_input(self, block, channels):
        # decode writes the column pass into its dequantized array, which the
        # row pass has already read
        shape = (4 * block, 3 * block) if channels == 1 else (4 * block, 3 * block, channels)
        x = np.random.default_rng(block + channels).random(shape)
        for forward in (True, False):
            fresh = blockwise(x, block, forward)
            inout = x.copy()
            assert codec._blockwise(inout, block, forward, inout) is inout
            assert same_bits(inout, fresh)

    def test_divisible_sides_skip_padding_with_same_coefficients(self, monkeypatch):
        rng = np.random.default_rng(5)
        cases = []  # (image, coefficients of its zero-width edge-padded copy)
        for shape in ((16, 24), (16, 24, 3), (24, 8)):
            img = rng.random(shape)
            pad = ((0, 0),) * img.ndim
            for x in (img, np.asfortranarray(img), img[::-1]):
                cases.append((x, reference_blockwise(np.pad(x, pad, mode="edge"), 8, True)))

        def no_pad(*args, **kwargs):
            raise AssertionError("np.pad called although the sides divide the block")

        monkeypatch.setattr(np, "pad", no_pad)
        for x, padded in cases:
            arr, coeffs = codec._transform(x, 8)
            assert same_bits(coeffs, padded)
            assert np.array_equal(arr, x)

    @pytest.mark.parametrize("shape", [(13, 21), (190, 190, 3), (45, 47, 3)])
    def test_padded_sides_same_coefficients_and_bits_in_any_layout(self, generic, shape):
        # the column pass writes into the padded copy when np.pad made it
        # C-ordered, else into a fresh array: the coefficients, symbols and
        # bits are those of a fresh output array either way
        img = np.random.default_rng(9).random(shape)
        pad = ((0, (-shape[0]) % 8), (0, (-shape[1]) % 8)) + ((0, 0),) * (img.ndim - 2)
        for x in (img, np.asfortranarray(img), img[::-1]):
            padded = np.pad(x, pad, mode="edge")
            expected = codec._blockwise(padded, 8, True, np.empty(padded.shape))
            assert same_bits(codec._transform(x, 8)[1], expected)
            frame = encode(x, CodecConfig(quant_step=0.05), generic)
            step, chosen = rate_control(x, 0.3, generic, CodecConfig())
            for f, s in ((frame, 0.05), (chosen, step)):
                q = np.rint(expected / s).astype(np.int64)
                assert np.array_equal(f.qcoeffs, q)
                assert f.bit_count == generic.bits_for_symbols(q)

    @pytest.mark.parametrize("shape", [(16, 24), (16, 24, 3), (13, 21, 3)])
    def test_caller_array_untouched_and_not_aliased(self, generic, shape):
        img = np.random.default_rng(6).random(shape)
        before = img.copy()
        frame = encode(img, CodecConfig(quant_step=0.05), generic)
        _, chosen = rate_control(img, 0.3, generic, CodecConfig())
        _, coeffs = codec._transform(img, 8)
        assert same_bits(img, before)
        for out in (frame.qcoeffs, chosen.qcoeffs, coeffs):
            assert not np.shares_memory(out, img)


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
    def test_transforms_once(self, generic, monkeypatch, ratio):
        real = codec._blockwise
        calls = []

        def counting_blockwise(x, block, forward, out):
            calls.append(forward)
            return real(x, block, forward, out)

        for img in (codec_fixture_images()[1], rgb_fixture()):
            calls.clear()
            monkeypatch.setattr(codec, "_blockwise", counting_blockwise)
            step, frame = rate_control(img, ratio, generic, CodecConfig())
            monkeypatch.undo()
            assert calls == [True]
            assert_same_frame(frame, encode(img, CodecConfig(quant_step=step), generic))

    def test_finer_neighbour_of_chosen_step_is_over_budget(self, generic):
        # what the binary search guarantees even for a trained model: the
        # chosen step fits and the next finer grid step does not
        cfg = CodecConfig()
        frames = shifting_sequence()
        trained = refine_model(generic, frames[:5], cfg)
        interior = 0
        for img in frames[5::5] + codec_fixture_images() + [rgb_fixture()]:
            for ratio in (0.1, 0.15, 0.2, 0.3, 0.4, 0.6):
                allowed = (1 + cfg.rate_tolerance) * ratio * img.size * 8
                step, frame = rate_control(img, ratio, trained, cfg)
                assert frame.bit_count <= allowed
                k = int(np.flatnonzero(QUANT_STEP_GRID == step)[0])
                if k > 0:
                    interior += 1
                    finer = CodecConfig(quant_step=float(QUANT_STEP_GRID[k - 1]))
                    assert encode(img, finer, trained).bit_count > allowed
        assert interior >= 20


def quantized_frame(arr, coeffs, step, block, em):
    """encode's frame of ``coeffs`` at ``step``, priced from its symbols;
    ``coeffs`` is kept, since the quantizer rounds a copy."""
    q = codec._quantize(coeffs.copy(), step)
    return codec._frame(arr, q, step, block, em, em.bits_for_symbols(q))


def reference_rate_control(img, ratio, em, cfg):
    """The same binary search, with every step it tries quantized and priced
    in full by encode's path."""
    arr, coeffs = codec._transform(img, cfg.block_size)
    allowed = (1.0 + cfg.rate_tolerance) * ratio * (arr.size * 8)
    grid = QUANT_STEP_GRID

    def attempt(idx):
        return quantized_frame(arr, coeffs, float(grid[idx]), cfg.block_size, em)

    best = attempt(len(grid) - 1)
    if best.bit_count > allowed:
        raise BudgetError(
            f"budget {allowed:.1f} bits unreachable: coarsest step "
            f"{grid[-1]:.4g} still needs {best.bit_count:.1f} bits")
    lo, hi = 0, len(grid) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        frame = attempt(mid)
        if frame.bit_count <= allowed:
            hi, best = mid, frame
        else:
            lo = mid + 1
    return float(grid[hi]), best


def assert_same_rate_control(img, ratio, em, cfg):
    try:
        expected = reference_rate_control(img, ratio, em, cfg)
    except BudgetError as exc:
        with pytest.raises(BudgetError) as got:
            rate_control(img, ratio, em, cfg)
        assert str(got.value) == str(exc)
        return None
    step, frame = rate_control(img, ratio, em, cfg)
    assert type(step) is float and step == expected[0]
    assert_same_frame(frame, expected[1])
    return step


class TestCountedRateControl:
    """rate_control prices the steps it tries from symbol counts; it must
    return what exact pricing at every step returns."""

    FIRST_MID = (len(QUANT_STEP_GRID) - 1) // 2  # tried right after the coarsest

    @pytest.mark.parametrize("block", [8, 16])
    @pytest.mark.parametrize("trained", [False, True])
    def test_equals_reference(self, generic, block, trained):
        cfg = CodecConfig(block_size=block)
        frames = shifting_sequence()
        em = refine_model(generic, frames[:5], cfg) if trained else generic
        outcomes = set()
        for img in codec_fixture_images() + [rgb_fixture()] + frames[::3]:
            for ratio in np.linspace(0.05, 1.0, 20):
                outcomes.add(assert_same_rate_control(img, float(ratio), em, cfg))
        assert None in outcomes and len(outcomes) > 10  # budget errors and many steps

    def test_exact_pricing_once_per_call(self, generic, monkeypatch):
        # the returned frame carries the bits the search priced from counts:
        # no frame's symbols are priced again
        real = EntropyModel.bits_for_symbols
        calls = []

        def counting(self, symbols):
            calls.append(symbols.shape)
            return real(self, symbols)

        for img in codec_fixture_images() + [rgb_fixture()]:
            for ratio in (0.1, 0.3, 0.6, 1.0):
                expected = reference_rate_control(img, ratio, generic, CodecConfig())
                calls.clear()
                monkeypatch.setattr(EntropyModel, "bits_for_symbols", counting)
                step, frame = rate_control(img, ratio, generic, CodecConfig())
                monkeypatch.undo()
                assert len(calls) == 0
                assert step == expected[0]
                assert_same_frame(frame, expected[1])

    @pytest.mark.parametrize("offset", [0.0, -1e-11, 1e-11])
    @pytest.mark.parametrize("trained", [False, True])
    def test_budget_on_a_steps_exact_bits_is_priced_exactly(self, generic, trained,
                                                            offset):
        # a budget on a step's bits, or a hair either side, falls on the
        # side encode's bit count puts it
        cfg = CodecConfig(rate_tolerance=0.0)
        img = rgb_fixture()
        em = refine_model(generic, shifting_sequence()[:5], cfg) if trained else generic
        step = float(QUANT_STEP_GRID[self.FIRST_MID])
        bits = encode(img, dataclasses.replace(cfg, quant_step=step), em).bit_count
        budget = bits * (1.0 + offset)  # on those bits, or just off
        ratio = budget / (8 * img.size)
        for _ in range(4):  # land the budget exactly there
            if ratio * (img.size * 8) == budget:
                break
            ratio = float(np.nextafter(ratio, 1.0 if ratio * (img.size * 8) < budget else 0.0))
        assert ratio * (img.size * 8) == budget
        expected = reference_rate_control(img, ratio, em, cfg)
        got_step, frame = rate_control(img, ratio, em, cfg)
        assert got_step == expected[0]
        assert_same_frame(frame, expected[1])
        assert (got_step <= step) == (offset >= 0)

    @pytest.mark.parametrize("channels", [1, 3])
    def test_flat_frames_equal_reference(self, generic, channels):
        # black: every coefficient is 0 and none is sorted; mid-grey: only
        # the DC coefficients are
        shape = (24, 40) if channels == 1 else (24, 40, 3)
        for value in (0.0, 0.5):
            img = np.full(shape, value)
            for ratio in (0.001, 0.01, 0.1, 0.5, 1.0):
                for em in (generic, EntropyModel.generic(radius=64)):
                    assert_same_rate_control(img, ratio, em, CodecConfig())

    HALF = float(QUANT_STEP_GRID[0]) / 2  # the largest |c| left out of the sort

    @pytest.mark.parametrize("value, symbol", [
        (HALF, 0), (-HALF, 0),  # c / step = +-1/2 exactly: rint ties to 0
        (math.nextafter(HALF, 0.0), 0), (math.nextafter(-HALF, 0.0), 0),
        (math.nextafter(HALF, math.inf), 1), (math.nextafter(-HALF, -math.inf), -1)])
    def test_coefficients_at_the_sort_threshold(self, generic, monkeypatch, value, symbol):
        # coefficients planted at the finest step's rounding threshold, where
        # leaving out a value that is not symbol 0 changes the chosen step
        cfg = CodecConfig(rate_tolerance=0.0)
        img = np.zeros((16, 32))
        coeffs = np.zeros(img.shape)
        coeffs[::4, ::4] = value
        coeffs[1, 1] = 0.9  # one large coefficient, so the window is not all 0
        monkeypatch.setattr(codec, "_transform", lambda x, block: (img, coeffs.copy()))
        finest = quantized_frame(img, coeffs, float(QUANT_STEP_GRID[0]), 8, generic)
        assert np.count_nonzero(finest.qcoeffs == symbol) == (32 if symbol else img.size - 1)
        planted_as_zero = coeffs.copy()
        planted_as_zero[::4, ::4] = 0.0
        as_zero = quantized_frame(img, planted_as_zero, float(QUANT_STEP_GRID[0]), 8, generic)
        assert (finest.bit_count > as_zero.bit_count) == (symbol != 0)
        # between the two prices: the finest step fits only if the planted
        # values are all symbol 0
        budget = (finest.bit_count + as_zero.bit_count) / 2 if symbol else 1.5 * finest.bit_count
        ratio = budget / (img.size * 8)
        step = assert_same_rate_control(img, ratio, generic, cfg)
        assert (step == QUANT_STEP_GRID[0]) == (symbol == 0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), channels=st.sampled_from([1, 3]),
           h=st.integers(2, 40), w=st.integers(2, 40), scale=st.floats(1e-4, 1.0),
           ratio=st.floats(0.01, 1.0), block=st.sampled_from([4, 8, 16]))
    def test_small_scaled_images_equal_reference(self, generic, seed, channels, h, w,
                                                 scale, ratio, block):
        # dim images put most coefficients, or all of them, inside the band
        # that is never sorted
        shape = (h, w) if channels == 1 else (h, w, 3)
        img = np.random.default_rng(seed).random(shape) * scale
        assert_same_rate_control(img, ratio, generic, CodecConfig(block_size=block))


class TestEntropyModel:
    def test_probabilities_normalized(self, generic):
        # the code lengths of the whole alphabet meet Kraft's inequality with equality
        r = generic.radius
        p = np.exp2([-generic.bits_for_symbols(np.array([s])) for s in range(-r, r + 1)])
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p > 0)

    def test_frequencies_respect_smoothing_floor(self, generic):
        assert np.all(generic.freq >= 1.0)
        # a flat frame gives every symbol but 0 a count of zero
        trained = refine_model(generic, [np.zeros((8, 8))], CodecConfig())
        assert np.all(trained.freq >= 1.0)

    def test_bits_equal_clipped_index_sum(self, generic):
        # the pricing counts the clipped symbols and prices the counts; that
        # agrees with gathering their log-probabilities and summing them
        # pairwise up to rounding, and leaves the symbols as they were
        r = generic.radius
        rng = np.random.default_rng(8)
        cases = [rng.integers(-10**6, 10**6, size=(40, 24, 3)),
                 rng.integers(-2 * r, 2 * r, size=(64, 48)),
                 np.array([-32768, -r - 1, -r, 0, r, r + 1, 32767], dtype=np.int16),
                 encode(rgb_fixture(), CodecConfig(quant_step=0.02), generic).qcoeffs]
        cases += [np.asfortranarray(cases[0]), cases[1][::-1, ::2]]
        for q in cases:
            before = q.copy()
            idx = np.clip(q, -r, r).astype(np.int64) + r
            counts = np.bincount(idx.ravel(), minlength=2 * r + 1)
            got = generic.bits_for_symbols(q)
            assert got == generic.bits_for_counts(counts)
            assert got == pytest.approx(float(-generic._log2_prob[idx.ravel()].sum()),
                                        rel=1e-12, abs=0)
            assert q.dtype == before.dtype and np.array_equal(q, before)

    def test_bad_tables_rejected(self):
        with pytest.raises(ValidationError):
            EntropyModel(np.full(11, 0.5), 5, "sub-smoothing")
        with pytest.raises(ValidationError):
            EntropyModel(np.ones(10), 5, "wrong-size")


class TestRefinement:
    def test_counts_quantized_fixtures_without_pricing(self, generic, monkeypatch):
        frames = codec_fixture_images()
        cfg = CodecConfig(quant_step=0.02)
        counts = np.zeros(2 * generic.radius + 1)
        for frame in frames:
            symbols = np.clip(encode(frame, cfg, generic).qcoeffs,
                              -generic.radius, generic.radius)
            counts += np.bincount(symbols.ravel() + generic.radius,
                                  minlength=counts.size)

        def no_pricing(self, symbols):
            raise AssertionError("refine_model priced a training frame")

        monkeypatch.setattr(EntropyModel, "bits_for_symbols", no_pricing)
        refined = refine_model(generic, frames, cfg)
        assert np.array_equal(refined.freq, counts + 1.0)
        assert refined.model_id == "refined-n3-q0.02"

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
        assert refined.model_id == "refined-n1-q0.05"

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

    def test_overflowing_dequantization_rejected(self):
        q = np.zeros((8, 8), dtype=np.int64)
        q[0, 0] = 100
        frame = EncodedFrame(q, 1e308, "generic-r2048", math.nan, 8, 8, 1, 8)
        with pytest.raises(ValidationError, match="overflows"):
            deserialize_frame(serialize_frame(frame))
        with pytest.raises(ValidationError, match="not finite"):
            decode(frame)
        # each coefficient dequantizes to a finite 1.5e308, their inverse
        # transform does not
        frame = EncodedFrame(np.full((8, 8), 30000, dtype=np.int64), 5e303,
                             "generic-r2048", math.nan, 8, 8, 1, 8)
        back = deserialize_frame(serialize_frame(frame))
        with pytest.raises(ValidationError, match="not finite"):
            decode(back)

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
        # np.abs(-2**63) wraps to -2**63, so an |q| check let it through
        for value in (-2 ** 63, -32768, 32768, 2 ** 63 - 1):
            q = np.zeros((8, 8), dtype=np.int64)
            q[0, 0] = value
            with pytest.raises(ValidationError, match="int16 wire range"):
                serialize_frame(EncodedFrame(q, 0.1, "generic-r2048", math.nan, 8, 8, 1, 8))
        for value in (-32767, 32767):
            q = np.zeros((8, 8), dtype=np.int64)
            q[3, 5] = value
            back = deserialize_frame(serialize_frame(
                EncodedFrame(q, 0.1, "generic-r2048", math.nan, 8, 8, 1, 8)))
            assert np.array_equal(back.qcoeffs, q)

    @pytest.mark.parametrize("shape", [(8, 16), (16, 8, 3)])
    def test_container_bytes_independent_of_layout(self, generic, shape):
        frame = encode(np.random.default_rng(9).random(shape), CodecConfig(quant_step=0.01),
                       generic)
        blob = serialize_frame(frame)
        for q in (np.asfortranarray(frame.qcoeffs), frame.qcoeffs.astype(np.int32)):
            assert serialize_frame(dataclasses.replace(frame, qcoeffs=q)) == blob
        assert len(blob) == 24 + len(frame.model_id) + 2 * frame.qcoeffs.size


def reference_decode(frame: EncodedFrame) -> np.ndarray:
    """``decode`` with a fresh array at each step: the dequantized copy, both
    gemms' products, and the clipped crop (no finiteness check)."""
    q, block = frame.qcoeffs, frame.block_size
    x = q * frame.quant_step
    h, w = x.shape[:2]
    ch = 1 if x.ndim == 2 else x.shape[2]
    rows = codec._dct_basis(block).T @ x.reshape(h // block, block, w * ch)
    rec = (rows.reshape(-1, block * ch) @ codec._right_factor(block, ch, False)).reshape(x.shape)
    return np.clip(rec[:frame.height, :frame.width], 0.0, 1.0)


def reference_refine_model(em: EntropyModel, raw_frames, cfg: CodecConfig) -> EntropyModel:
    """``refine_model`` with a fresh array for the quotient, the rounding,
    the int64 symbols, the clipped ones and the shifted ones."""
    counts = np.zeros(2 * em.radius + 1)
    for raw in raw_frames:
        _, coeffs = codec._transform(raw, cfg.block_size)
        q = np.round(coeffs / cfg.quant_step).astype(np.int64)
        symbols = np.clip(q, -em.radius, em.radius) + em.radius
        counts += np.bincount(symbols.ravel(), minlength=2 * em.radius + 1)
    return EntropyModel(counts + codec.SMOOTHING, em.radius,
                        model_id=f"refined-n{len(raw_frames)}-q{cfg.quant_step:g}")


def in_place_cases():
    """Gray and RGB fixtures, whole and cropped to sides no block divides."""
    images = codec_fixture_images() + [rgb_fixture()]
    return images + [img[:27, :21] for img in images] + [img[3:, 5:] for img in images]


class TestInPlaceStages:
    """decode and the quantizer reuse their buffers; every element goes
    through the same operations as in the fresh-array references."""

    def test_quantizer_equals_a_fresh_quotient(self):
        # ties at half-integers round to even, as rint of a fresh quotient does
        ties = np.array([[0.5, 1.5, 2.5, -0.5], [-1.5, -2.5, 0.0, -0.0]]) * 0.25
        for coeffs in [ties] + [codec._transform(img, 8)[1] for img in in_place_cases()]:
            for step in (0.004, 0.02, 0.25, 4.0):
                buffer = coeffs.copy()
                q = codec._quantize(buffer, step)
                assert q.dtype == np.int64
                assert np.array_equal(q, np.rint(coeffs / step).astype(np.int64))
                assert same_bits(buffer, np.rint(coeffs / step))

    @pytest.mark.parametrize("block", [8, 16])
    def test_decode_equals_the_fresh_array_reference(self, generic, block):
        for img in in_place_cases():
            for step in (0.004, 0.02, 0.3, 4.0):
                frame = encode(img, CodecConfig(block_size=block, quant_step=step), generic)
                back = deserialize_frame(serialize_frame(frame))
                for q in (frame.qcoeffs, np.asfortranarray(frame.qcoeffs),
                          frame.qcoeffs.astype(np.int32)):
                    f = dataclasses.replace(back, qcoeffs=q)
                    got, want = decode(f), reference_decode(f)
                    assert got.dtype == want.dtype == np.float64
                    assert same_bits(got, want), (img.shape, step, q.dtype)

    @pytest.mark.parametrize("block", [8, 16])
    def test_refine_model_equals_the_fresh_array_reference(self, generic, block):
        # at step 0.004 and block 16 symbols reach 4000, past the radius
        cases = in_place_cases()
        for step in (0.004, 0.02, 0.3):
            cfg = CodecConfig(block_size=block, quant_step=step)
            for frames in [[img] for img in cases] + [[img for img in cases if img.ndim == 3]]:
                got = refine_model(generic, frames, cfg)
                want = reference_refine_model(generic, frames, cfg)
                assert got.freq.dtype == want.freq.dtype
                assert got.freq.tobytes() == want.freq.tobytes(), (frames[0].shape, step)
                assert got.model_id == want.model_id


def stream_frames() -> list[np.ndarray]:
    """Four 192x192 RGB frames of a drifting scene, one exposure per channel."""
    gains, offsets = np.array([0.9, 1.0, 1.1]), np.array([0.05, 0.0, -0.05])
    return [np.clip(g[:, :, None] * gains + offsets, 0.0, 1.0)
            for g in shifting_sequence(4, 192, 192)]


def traced_peak(call) -> float:
    """tracemalloc's peak over a second call, in 192x192x3 float64 arrays."""
    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (192 * 192 * 3 * 8)


class TestWorkingSets:
    """Each stage drops every frame-sized array it no longer needs before
    it allocates the next one (peaks over a 192x192x3 frame)."""

    @pytest.fixture(scope="class")
    def stream(self):
        frames = stream_frames()
        model = EntropyModel.generic()
        _, frame = rate_control(frames[0], 0.3, model, CodecConfig())
        return frames, model, frame

    def test_rate_control(self, stream):
        # the transform's two; then the coefficients and the sorted copy;
        # then the coefficients, rounded in place, and their int64 symbols:
        # the sorted copy is gone by then and nothing is priced
        frames, model, _ = stream
        assert traced_peak(lambda: rate_control(frames[0], 0.3, model, CodecConfig())) <= 2.2

    def test_encode(self, stream):
        # the transform's two; then the coefficients, rounded in place, and
        # their int64 symbols; then the symbols and the clipped copy that is
        # counted, the coefficients gone
        frames, model, _ = stream
        assert traced_peak(lambda: encode(frames[0], CodecConfig(), model)) <= 2.2

    # 190 is no multiple of the block: the column pass overwrites the padded
    # copy, so padding adds no third array (2.00 and 2.04 measured)
    def test_rate_control_padded(self, stream):
        frames, model, _ = stream
        img = frames[0][:190, :190]
        assert traced_peak(lambda: rate_control(img, 0.3, model, CodecConfig())) <= 2.2

    def test_encode_padded(self, stream):
        frames, model, _ = stream
        img = frames[0][:190, :190]
        assert traced_peak(lambda: encode(img, CodecConfig(), model)) <= 2.2

    def test_deserialize_frame(self, stream):
        # the symbols and the clipped copy that is counted; the payload is
        # not copied
        _, model, frame = stream
        data = serialize_frame(frame)
        assert traced_peak(lambda: deserialize_frame(data, model)) <= 2.2

    def test_decode(self, stream):
        # the dequantized array, which the column pass overwrites, and the
        # row pass's product
        _, _, frame = stream
        assert traced_peak(lambda: decode(frame)) <= 2.2

    def test_refine_model_over_four_frames(self, stream):
        # as encode: one frame's transform, its coefficients and their int64
        # symbols, or the symbols and the clipped copy that is counted; none
        # is held into the next frame's
        frames, model, _ = stream
        assert traced_peak(lambda: refine_model(model, frames, CodecConfig())) <= 2.2
