import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import v2vsim
from v2vsim.channel import ChannelParams, Scenario, VehicleNode
from v2vsim.cli import main
from v2vsim.codec import CodecConfig, EntropyModel, decode, rate_control
from v2vsim.errors import ValidationError
from v2vsim.fourier import align
from v2vsim.image_io import read_image, write_image
from v2vsim.metrics import REPORT_HEADER, mse, psnr
from v2vsim.planner import SolverConfig, validate_plan
from v2vsim.scenario_io import format_scenario
from v2vsim.simulate import (LINKS_HEADER, manifest_for, simulate,
                             write_outputs)
from v2vsim.synth import gradient_image, sine_image


def quiet_simulate(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return simulate(*args, **kwargs)


def two_node(raw_bits: float) -> Scenario:
    params = ChannelParams(total_bandwidth_hz=20e6, num_subchannels=1,
                           transmit_power_w=0.2, noise_level=1e-9,
                           pathloss_exponent=2.7, reference_distance_m=10.0)
    return Scenario(nodes=[VehicleNode(0, 0.0, 0.0), VehicleNode(1, 30.0, 40.0)],
                    ego_id=0,
                    data_volumes_bits=np.array([[0.0, 0.0], [raw_bits, 0.0]]),
                    channel=params, beta=0.9, min_ego_links=1)


def three_node_symmetric(raw_bits: float) -> Scenario:
    params = ChannelParams(total_bandwidth_hz=20e6, num_subchannels=2,
                           transmit_power_w=0.2, noise_level=1e-9,
                           pathloss_exponent=2.7, reference_distance_m=10.0)
    return Scenario(nodes=[VehicleNode(0, 0.0, 0.0),
                           VehicleNode(1, 60.0, 0.0),
                           VehicleNode(2, -60.0, 0.0)],
                    ego_id=0,
                    data_volumes_bits=np.array([[0.0, 0.0, 0.0],
                                                [raw_bits, 0.0, 0.0],
                                                [raw_bits, 0.0, 0.0]]),
                    channel=params, beta=0.8, min_ego_links=2)


class TestSimulate:
    def test_lossless_path_high_psnr(self):
        img = gradient_image()
        s = two_node(float(img.size * 8))
        result = quiet_simulate(s, {0: gradient_image(), 1: sine_image()},
                                SolverConfig(), CodecConfig(),
                                align_alpha=0.0, seed=3, ratio_override=1.0)
        assert result.report.n_links == 1
        assert result.report.mean_psnr_db > 50.0
        assert validate_plan(result.plan, s) == []

    def test_codec_ratio_equals_plan_entry(self):
        img = sine_image()
        s = two_node(float(img.size * 8))
        result = quiet_simulate(s, {0: gradient_image(), 1: img},
                                SolverConfig(), CodecConfig(),
                                align_alpha=0.1, seed=3)
        (record,) = result.links
        i = s.index_of(record.src)
        j = s.index_of(record.dst)
        assert record.ratio == result.plan.compression[i, j]

    def test_symmetric_links_equal_reports(self):
        img = sine_image()
        s = three_node_symmetric(float(img.size * 8))
        result = quiet_simulate(s, {0: gradient_image(), 1: img, 2: img.copy()},
                                SolverConfig(), CodecConfig(),
                                align_alpha=0.05, seed=11)
        assert result.report.n_links == 2
        a, b = result.links
        assert a.delay_s == pytest.approx(b.delay_s, rel=1e-12)
        assert a.bits == b.bits
        assert a.psnr_db == pytest.approx(b.psnr_db, abs=1e-12)
        assert a.ms_ssim == pytest.approx(b.ms_ssim, abs=1e-12)

    def test_composition_matches_module_calls(self):
        img = sine_image()
        ego_img = gradient_image()
        s = two_node(float(img.size * 8))
        solver = SolverConfig()
        codec = CodecConfig()
        alpha = 0.1
        result = quiet_simulate(s, {0: ego_img, 1: img}, solver, codec,
                                align_alpha=alpha, seed=9)
        (record,) = result.links
        em = EntropyModel.generic()
        step, frame = rate_control(img, record.ratio, em, codec)
        recon = align(decode(frame), ego_img, alpha)
        assert record.quant_step == step
        assert record.bits == frame.bit_count
        assert record.psnr_db == pytest.approx(psnr(img, recon), abs=1e-12)
        assert record.mse == pytest.approx(mse(img, recon), abs=1e-15)
        assert result.report.bitrate_bpp == pytest.approx(
            frame.bit_count / img.size, rel=1e-12)

    def test_transmitted_bits_fit_ratio_budgets(self):
        img = sine_image()
        s = three_node_symmetric(float(img.size * 8))
        codec = CodecConfig()
        result = quiet_simulate(s, {0: gradient_image(), 1: img, 2: img.copy()},
                                SolverConfig(), codec, align_alpha=0.0, seed=2)
        total_budget = sum(r.ratio * img.size * 8 for r in result.links)
        total_bits = sum(r.bits for r in result.links)
        assert total_bits <= (1 + codec.rate_tolerance) * total_budget

    def test_missing_source_image_names_link(self):
        s = two_node(1e6)
        with pytest.raises(ValidationError, match="1->0"):
            quiet_simulate(s, {0: gradient_image()}, SolverConfig(),
                           CodecConfig(), align_alpha=0.0, seed=1)

    def test_missing_ego_image_for_alignment(self):
        s = two_node(1e6)
        with pytest.raises(ValidationError, match="ego"):
            quiet_simulate(s, {1: sine_image()}, SolverConfig(), CodecConfig(),
                           align_alpha=0.1, seed=1)

    def test_byte_identical_reruns(self, tmp_path):
        img = sine_image()
        s = three_node_symmetric(float(img.size * 8))
        images = {0: gradient_image(), 1: img, 2: img.copy()}
        outputs = []
        for run in ("a", "b"):
            result = quiet_simulate(s, images, SolverConfig(), CodecConfig(),
                                    align_alpha=0.05, seed=21)
            result.manifest = manifest_for(format_scenario(s), 21,
                                           SolverConfig(seed=21), CodecConfig(),
                                           0.05)
            outdir = tmp_path / run
            write_outputs(result, s, outdir)
            outputs.append(outdir)
        for name in ("report.csv", "links.csv", "plan.csv", "plan.txt",
                     "manifest.json"):
            assert ((outputs[0] / name).read_bytes()
                    == (outputs[1] / name).read_bytes()), name

    def test_csv_headers(self, tmp_path):
        img = sine_image()
        s = two_node(float(img.size * 8))
        result = quiet_simulate(s, {0: gradient_image(), 1: img},
                                SolverConfig(), CodecConfig(),
                                align_alpha=0.0, seed=5)
        result.manifest = manifest_for(format_scenario(s), 5,
                                       SolverConfig(seed=5), CodecConfig(), 0.0)
        write_outputs(result, s, tmp_path)
        assert (tmp_path / "report.csv").read_text().splitlines()[0] == REPORT_HEADER
        assert (tmp_path / "links.csv").read_text().splitlines()[0] == LINKS_HEADER


@pytest.fixture
def scenario_dir(tmp_path):
    img1 = gradient_image()
    img2 = sine_image()
    write_image(tmp_path / "ego.pgm", img1)
    write_image(tmp_path / "n1.pgm", img2)
    s = two_node(float(img2.size * 8))
    text = format_scenario(s, {0: "ego.pgm", 1: "n1.pgm"})
    (tmp_path / "scene.scn").write_text(text)
    return tmp_path


class TestCli:
    def test_plan_command(self, scenario_dir, capsys):
        rc = main(["plan", "--scenario", str(scenario_dir / "scene.scn"),
                   "--seed", "7", "--outdir", str(scenario_dir / "out")])
        assert rc == 0
        assert (scenario_dir / "out" / "plan.txt").exists()
        assert (scenario_dir / "out" / "plan.csv").exists()
        assert "average delay" in capsys.readouterr().out

    def test_oracle_command(self, scenario_dir):
        rc = main(["oracle", "--scenario", str(scenario_dir / "scene.scn"),
                   "--outdir", str(scenario_dir / "oracle")])
        assert rc == 0
        assert (scenario_dir / "oracle" / "plan.csv").exists()

    def test_plan_requires_seed(self, scenario_dir, capsys):
        rc = main(["plan", "--scenario", str(scenario_dir / "scene.scn")])
        capsys.readouterr()
        assert rc == 2

    def test_validation_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("version 1\nbandwidth_hz -4\n")
        rc = main(["plan", "--scenario", str(bad), "--seed", "1",
                   "--outdir", str(tmp_path / "o")])
        assert rc == 2

    def test_infeasible_exits_3(self, tmp_path):
        params = ChannelParams(total_bandwidth_hz=20e6, num_subchannels=1,
                               transmit_power_w=0.2, noise_level=1e-9)
        s = Scenario(nodes=[VehicleNode(0, 0.0, 0.0), VehicleNode(1, 9.0, 0.0),
                            VehicleNode(2, 0.0, 9.0)],
                     ego_id=0, data_volumes_bits=np.zeros((3, 3)),
                     channel=params, beta=0.5, min_ego_links=2)
        path = tmp_path / "infeasible.scn"
        path.write_text(format_scenario(s))
        rc = main(["plan", "--scenario", str(path), "--seed", "1",
                   "--outdir", str(tmp_path / "o")])
        assert rc == 3

    def test_missing_file_exits_4(self, tmp_path):
        rc = main(["plan", "--scenario", str(tmp_path / "nope.scn"),
                   "--seed", "1", "--outdir", str(tmp_path / "o")])
        assert rc == 4

    def test_codec_encode_decode_round_trip(self, scenario_dir):
        frame_path = scenario_dir / "frame.bin"
        rc = main(["codec", "encode", "--image", str(scenario_dir / "n1.pgm"),
                   "--out", str(frame_path), "--gamma", "0.5"])
        assert rc == 0
        out_img = scenario_dir / "recon.pgm"
        rc = main(["codec", "decode", "--frame", str(frame_path),
                   "--out", str(out_img)])
        assert rc == 0
        original = read_image(scenario_dir / "n1.pgm")
        recon = read_image(out_img)
        assert psnr(original, recon) > 25.0

    def test_codec_encode_needs_image(self, tmp_path, capsys):
        rc = main(["codec", "encode", "--out", str(tmp_path / "f.bin")])
        capsys.readouterr()
        assert rc == 2

    def test_codec_refinement_from_directory(self, tmp_path):
        from v2vsim.synth import shifting_sequence
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        for k, frame in enumerate(shifting_sequence(num_frames=12)):
            write_image(frames_dir / f"f{k:03d}.pgm", frame)
        target = frames_dir / "f011.pgm"
        out_plain = tmp_path / "plain.bin"
        out_refined = tmp_path / "refined.bin"
        assert main(["codec", "encode", "--image", str(target),
                     "--out", str(out_plain), "--quant-step", "0.01"]) == 0
        assert main(["codec", "encode", "--image", str(target),
                     "--out", str(out_refined), "--quant-step", "0.01",
                     "--refine-dir", str(frames_dir),
                     "--refine-fraction", "1/6"]) == 0
        assert out_refined.exists() and out_plain.exists()

    def test_align_command(self, scenario_dir):
        out = scenario_dir / "aligned.pgm"
        rc = main(["align", "--source", str(scenario_dir / "n1.pgm"),
                   "--target", str(scenario_dir / "ego.pgm"),
                   "--alpha", "0.1", "--out", str(out)])
        assert rc == 0
        src = read_image(scenario_dir / "n1.pgm")
        tgt = read_image(scenario_dir / "ego.pgm")
        aligned = read_image(out)
        assert abs(aligned.mean() - tgt.mean()) < abs(src.mean() - tgt.mean())

    def test_simulate_command_outputs(self, scenario_dir):
        outdir = scenario_dir / "sim"
        rc = main(["simulate", "--scenario", str(scenario_dir / "scene.scn"),
                   "--seed", "13", "--outdir", str(outdir), "--alpha", "0.05"])
        assert rc == 0
        for name in ("report.csv", "links.csv", "plan.txt", "plan.csv",
                     "manifest.json"):
            assert (outdir / name).exists()

    def test_simulate_reruns_byte_identical(self, scenario_dir):
        args = ["simulate", "--scenario", str(scenario_dir / "scene.scn"),
                "--seed", "17", "--alpha", "0.05"]
        assert main(args + ["--outdir", str(scenario_dir / "r1")]) == 0
        assert main(args + ["--outdir", str(scenario_dir / "r2")]) == 0
        for name in ("report.csv", "links.csv", "manifest.json"):
            a = (scenario_dir / "r1" / name).read_bytes()
            b = (scenario_dir / "r2" / name).read_bytes()
            assert a == b, name


def test_cli_import_skips_scipy_signal():
    # scipy.signal took 0.8-1.0 s of a 1.2-1.5 s `import v2vsim.cli` on a 2-vCPU Xeon
    src = os.path.dirname(os.path.dirname(v2vsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, v2vsim.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"
