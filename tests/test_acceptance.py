"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here, not configurable.
"""

import math
import time
import warnings

import numpy as np

from v2vsim.channel import ChannelParams, Scenario, VehicleNode
from v2vsim.codec import (CodecConfig, EntropyModel, decode,
                          encode, rate_control, refine_model)
from v2vsim.fourier import align, dft2, domain_gap, idft2, low_freq_mask, mix_amplitude
from v2vsim.metrics import iou, ms_ssim, psnr
from v2vsim.planner import exhaustive_optimum, optimize, validate_plan
from v2vsim.scenario_io import format_scenario
from v2vsim.simulate import manifest_for, simulate, write_outputs
from v2vsim.synth import (codec_fixture_images, gradient_image, random_scenario,
                          shifted_domain_pair, shifting_sequence, sine_image)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_solver_tracks_oracle():
    t0 = time.perf_counter()
    exact = 0
    violations = 0
    for seed in range(100):
        scenario = random_scenario(seed, max_nodes=4, max_subchannels=4)
        plan = optimize(scenario)
        oracle = exhaustive_optimum(scenario)
        if validate_plan(plan, scenario):
            violations += 1
        exact += plan.avg_delay_s == oracle.avg_delay_s
    elapsed = time.perf_counter() - t0
    ok = exact == 100 and violations == 0 and elapsed < 60.0
    report("criterion 1 (oracle equivalence)", ok,
           f"{exact}/100 equal to the oracle, {violations} constraint violations, "
           f"{elapsed:.1f}s")


def test_criterion_2_constraint_suite():
    checked = 0
    bad = []
    for seed in range(40):
        scenario = random_scenario(seed)
        for plan in (optimize(scenario),
                     exhaustive_optimum(scenario)):
            issues = validate_plan(plan, scenario)
            checked += 1
            if issues:
                bad.append((seed, issues))
    report("criterion 2 (constraint suite)", not bad,
           f"{checked} plans validated independently, {len(bad)} with violations")


def test_criterion_3_spectral_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    notes = []

    for shape in ((8, 8), (7, 9), (16, 16), (15, 17)):
        img = rng.random(shape)
        rt = float(np.sqrt(np.mean((idft2(dft2(img)) - img) ** 2)))
        ok &= rt <= 1e-9
    notes.append("round trip<=1e-9")

    img8 = rng.random((8, 8))
    spec = dft2(img8)
    naive = np.zeros((8, 8), dtype=complex)
    for u in range(8):
        for v in range(8):
            for r in range(8):
                for c in range(8):
                    naive[u, v] += img8[r, c] * np.exp(-2j * np.pi * (r * u + c * v) / 8)
    naive = np.fft.fftshift(naive)
    ok &= float(np.max(np.abs(spec.amplitude * np.exp(1j * spec.phase) - naive))) <= 1e-9
    notes.append("naive-DFT<=1e-9")

    imgp = rng.random((11, 13))
    parseval_lhs = float(np.sum(imgp ** 2))
    parseval_rhs = float(np.sum(dft2(imgp).amplitude ** 2)) / imgp.size
    ok &= abs(parseval_lhs - parseval_rhs) / parseval_lhs <= 1e-6
    notes.append("parseval<=1e-6")

    src, tgt = rng.random((16, 16)), rng.random((16, 16))
    for alpha in (0.0, 0.1, 0.3):
        self_rms = float(np.sqrt(np.mean((align(src, src.copy(), alpha) - src) ** 2)))
        ok &= self_rms <= 1e-9
    zero_rms = float(np.sqrt(np.mean((align(src, tgt, 0.0) - src) ** 2)))
    ok &= zero_rms <= 1e-9
    notes.append("identities<=1e-9")

    alpha = 0.2
    out = align(src, tgt, alpha, clip=False)
    mask = low_freq_mask(alpha, 16, 16)
    mixed = mix_amplitude(dft2(src).amplitude, dft2(tgt).amplitude, mask)
    rel = np.abs(dft2(out).amplitude - mixed) / (mixed + 1e-12)
    ok &= float(rel.max()) <= 1e-6
    notes.append("mask mix<=1e-6")

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report("criterion 3 (spectral suite)", ok,
           ", ".join(notes) + f", {elapsed:.1f}s")


def test_criterion_4_codec_suite():
    em = EntropyModel.generic()
    cfg = CodecConfig()
    budgets_ok = True
    for img in codec_fixture_images():
        raw = img.size * 8
        for ratio in [round(0.1 * k, 1) for k in range(1, 11)]:
            _, frame = rate_control(img, ratio, em, cfg)
            budgets_ok &= frame.bit_count <= 1.05 * ratio * raw

    bound_ok = True
    for img in codec_fixture_images():
        for step in (0.02, 0.2, 1.0, 4.0):
            rec = decode(encode(img, CodecConfig(quant_step=step), em))
            bound_ok &= float(np.mean((img - rec) ** 2)) <= step ** 2 / 12 + 1e-9

    train_cfg = CodecConfig(quant_step=0.01)
    training = shifting_sequence()[:5]
    trained = refine_model(em, training, train_cfg)
    bits_trained = sum(encode(f, train_cfg, trained).bit_count for f in training)
    bits_generic = sum(encode(f, train_cfg, em).bit_count for f in training)
    xent_ok = bits_trained <= bits_generic

    ok = budgets_ok and bound_ok and xent_ok
    report("criterion 4 (codec suite)", ok,
           f"budgets within 5%: {budgets_ok}, mse<=step^2/12: {bound_ok}, "
           f"training cross-entropy: {xent_ok}")


def test_criterion_5_refinement_reduces_bits():
    em = EntropyModel.generic()
    cfg = CodecConfig(quant_step=0.01)
    frames = shifting_sequence(num_frames=30)
    refined = refine_model(em, frames[:5], cfg)
    held_out = frames[5:]
    generic_bits = float(np.mean([encode(f, cfg, em).bit_count for f in held_out]))
    refined_bits = float(np.mean([encode(f, cfg, refined).bit_count for f in held_out]))
    reduction = 1.0 - refined_bits / generic_bits
    report("criterion 5 (refinement property)", reduction >= 0.05,
           f"mean bits {generic_bits:.0f} -> {refined_bits:.0f}, "
           f"reduction {reduction:.1%} (need >=5%)")


def test_criterion_6_alignment_concentrates_domains():
    set_a, set_b = shifted_domain_pair()
    ok = True
    details = []
    for alpha in (0.05, 0.1):
        before = domain_gap(set_a, set_b, alpha)
        aligned = [align(b, a, alpha) for a, b in zip(set_a, set_b)]
        after = domain_gap(set_a, aligned, alpha)
        ok &= after < before
        details.append(f"alpha={alpha}: {before:.3f}->{after:.3f}")
    report("criterion 6 (concentration property)", ok, ", ".join(details))


def test_criterion_7_metrics():
    pred = np.array([[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 0, 0], [2, 2, 0, 0]])
    truth = np.array([[0, 0, 1, 2], [0, 1, 1, 2], [2, 2, 0, 0], [2, 0, 0, 0]])
    per_class, mean = iou(pred, truth, 3)
    iou_ok = (per_class[0] == 7 / 9 and per_class[1] == 2 / 5
              and per_class[2] == 3 / 6
              and mean == (7 / 9 + 2 / 5 + 3 / 6) / 3)

    rng = np.random.default_rng(99)
    x, y = rng.random((24, 24)), rng.random((24, 24))
    expected = 10 * math.log10(1.0 / float(np.mean((x - y) ** 2)))
    psnr_ok = abs(psnr(x, y) - expected) <= 1e-9

    yy = np.arange(176)[:, None] / 176.0
    xx = np.arange(176)[None, :] / 176.0
    gx = np.clip(0.5 + 0.3 * np.sin(2 * np.pi * 3 * yy) * np.cos(2 * np.pi * 4 * xx)
                 + 0.15 * np.sin(2 * np.pi * 7 * (xx + yy)), 0, 1)
    gy = np.clip(gx + 0.08 * np.sin(2 * np.pi * 11 * xx) * np.cos(2 * np.pi * 9 * yy)
                 + 0.02, 0, 1)
    ssim_ok = abs(ms_ssim(gx, gy) - 0.9651751635890322) <= 1e-4

    ok = iou_ok and psnr_ok and ssim_ok
    report("criterion 7 (metrics)", ok,
           f"iou exact: {iou_ok}, psnr<=1e-9: {psnr_ok}, ms-ssim golden<=1e-4: {ssim_ok}")


def test_criterion_8_simulation_determinism(tmp_path):
    img = sine_image()
    params = ChannelParams(total_bandwidth_hz=20e6, num_subchannels=2,
                           transmit_power_w=0.2, noise_level=1e-9,
                           pathloss_exponent=2.7, reference_distance_m=10.0)
    scenario = Scenario(nodes=[VehicleNode(0, 0.0, 0.0),
                               VehicleNode(1, 45.0, 20.0),
                               VehicleNode(2, -30.0, 55.0)],
                        ego_id=0,
                        data_volumes_bits=np.array([[0.0, 0.0, 0.0],
                                                    [img.size * 8.0, 0.0, 0.0],
                                                    [img.size * 8.0, 0.0, 0.0]]),
                        channel=params, beta=0.8, min_ego_links=2)
    images = {0: gradient_image(), 1: img, 2: np.clip(img + 0.1, 0, 1)}
    dirs = []
    for run in ("one", "two"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = simulate(scenario, images, CodecConfig(), align_alpha=0.05)
        manifest = manifest_for(format_scenario(scenario), 31, CodecConfig(), 0.05)
        outdir = tmp_path / run
        write_outputs(result, scenario, outdir, manifest)
        dirs.append(outdir)
    identical = all((dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
                    for name in ("report.csv", "links.csv", "plan.csv",
                                 "plan.txt", "manifest.json"))
    report("criterion 8 (determinism)", identical,
           "two runs, one manifest, byte-identical CSV and manifest outputs")
