import importlib.util
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import types
import warnings
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

import v2vsim
from v2vsim.channel import ChannelParams, Scenario, VehicleNode
from v2vsim.cli import _codec_config, build_parser, cmd_plan, main
from v2vsim.codec import (CodecConfig, EntropyModel, decode, deserialize_frame,
                           rate_control)
from v2vsim.errors import ImageFormatError, ValidationError
from v2vsim.fourier import align
from v2vsim.image_io import ImageSet, read_image, write_image
from v2vsim.metrics import mse, psnr
from v2vsim.planner import CommPlan, optimize, validate_plan
from v2vsim.scenario_io import format_scenario
from v2vsim.simulate import (LINKS_HEADER, PLAN_CSV_HEADER, REPORT_HEADER, _fmt,
                             manifest_for, plan_matrix_report, simulate, write_outputs,
                             write_plan)
from v2vsim.synth import shifting_sequence, sine_image

from images import gradient_image


def frame_container(channels=1, block=8, height=16, width=16, pad_h=16,
                    pad_w=16, step=0.1, model_id=b"generic-r2048", first=0) -> bytes:
    """A container laid out as in docs/formats.md; every coefficient is zero
    except the first, which is ``first``."""
    header = struct.pack("<4sBBBBHHHHd", b"VCQ1", 1, channels, block,
                         len(model_id), height, width, pad_h, pad_w, step)
    coeffs = np.zeros(pad_h * pad_w * channels, dtype="<i2")
    coeffs[:1] = first
    return header + model_id + coeffs.tobytes()


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
        result = simulate(s, {0: gradient_image(), 1: sine_image()},
                          CodecConfig(), align_alpha=0.0, ratio_override=1.0)
        assert result.report.n_links == 1
        assert result.report.mean_psnr_db > 50.0
        assert validate_plan(result.plan, s) == []

    def test_codec_ratio_equals_plan_entry(self):
        img = sine_image()
        s = two_node(float(img.size * 8))
        result = simulate(s, {0: gradient_image(), 1: img},
                          CodecConfig(), align_alpha=0.1)
        (record,) = result.links
        ids = [node.id for node in s.nodes]
        i, j = ids.index(record.src), ids.index(record.dst)
        assert record.ratio == result.plan.compression[i, j]

    def test_symmetric_links_equal_reports(self):
        img = sine_image()
        s = three_node_symmetric(float(img.size * 8))
        result = simulate(s, {0: gradient_image(), 1: img, 2: img.copy()},
                          CodecConfig(), align_alpha=0.05)
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
        codec = CodecConfig()
        alpha = 0.1
        result = simulate(s, {0: ego_img, 1: img}, codec, align_alpha=alpha)
        (record,) = result.links
        em = EntropyModel.generic()
        step, frame = rate_control(img, record.ratio, em, codec)
        recon = align(decode(frame), ego_img, alpha)
        assert record.quant_step == step
        assert record.bits == frame.bit_count
        # one mse per link, with psnr_db derived from it as psnr() does
        assert record.psnr_db == psnr(img, recon)
        assert record.mse == mse(img, recon)
        assert result.report.bitrate_bpp == pytest.approx(
            frame.bit_count / img.size, rel=1e-12)

    def test_transmitted_bits_fit_ratio_budgets(self):
        img = sine_image()
        s = three_node_symmetric(float(img.size * 8))
        codec = CodecConfig()
        result = simulate(s, {0: gradient_image(), 1: img, 2: img.copy()},
                          codec, align_alpha=0.0)
        total_budget = sum(r.ratio * img.size * 8 for r in result.links)
        total_bits = sum(r.bits for r in result.links)
        assert total_bits <= (1 + codec.rate_tolerance) * total_budget

    def test_working_set_over_two_links_at_176(self):
        # one link's MS-SSIM (about six maps) and its reconstruction; the
        # frame is dropped after decoding and nothing of the first link is
        # held through the second
        frames = shifting_sequence(3, 176, 176)
        s = three_node_symmetric(float(frames[1].size * 8))
        images = dict(enumerate(frames))
        assert simulate(s, images, CodecConfig(), align_alpha=0.05).report.n_links == 2
        tracemalloc.start()
        try:
            simulate(s, images, CodecConfig(), align_alpha=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7.6 * 176 * 176 * 8

    @pytest.mark.parametrize("alpha, lookups", [(0.05, [1, 0, 2, 0]), (0.0, [1, 2])])
    def test_frames_looked_up_per_link(self, alpha, lookups):
        # each link's source when it starts, the ego frame only to align
        class Recorder(Mapping):
            def __init__(self, frames):
                self.frames, self.lookups = frames, []

            def __getitem__(self, key):
                self.lookups.append(key)
                return self.frames[key]

            def __iter__(self):
                return iter(self.frames)

            def __len__(self):
                return len(self.frames)

            def __contains__(self, key):
                return key in self.frames

        img = sine_image()
        images = Recorder({0: gradient_image(), 1: img, 2: img.copy()})
        result = simulate(three_node_symmetric(float(img.size * 8)), images,
                          CodecConfig(), align_alpha=alpha)
        assert [(r.src, r.dst) for r in result.links] == [(1, 0), (2, 0)]
        assert images.lookups == lookups

    def test_missing_source_image_names_link(self):
        s = two_node(1e6)
        with pytest.raises(ValidationError, match="1->0"):
            simulate(s, {0: gradient_image()}, CodecConfig(), align_alpha=0.0)

    def test_missing_ego_image_for_alignment(self):
        s = two_node(1e6)
        with pytest.raises(ValidationError, match="ego"):
            simulate(s, {1: sine_image()}, CodecConfig(), align_alpha=0.1)

    @pytest.mark.parametrize("alpha", [math.nan, -0.5, 1.0, math.inf])
    def test_alpha_outside_unit_interval_rejected(self, alpha, monkeypatch):
        def no_planning(scenario):
            raise AssertionError("planned before the alpha check")

        monkeypatch.setattr("v2vsim.simulate.optimize", no_planning)
        with pytest.raises(ValidationError, match="alpha"):
            simulate(two_node(1e6), {0: gradient_image(), 1: sine_image()},
                     CodecConfig(), align_alpha=alpha)

    def test_numeric_warnings_from_scoring_reach_the_caller(self, monkeypatch):
        # simulate silences MS-SSIM's reduced-scale notice, not a numeric warning
        def noisy_ms_ssim(x, y):
            warnings.warn("image (64, 64) supports only 3 of 5 scales", UserWarning)
            warnings.warn("overflow encountered in multiply", RuntimeWarning)
            return 1.0

        monkeypatch.setattr("v2vsim.simulate.ms_ssim", noisy_ms_ssim)
        img = sine_image()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            simulate(two_node(float(img.size * 8)), {0: gradient_image(), 1: img},
                     CodecConfig(), align_alpha=0.0)
        assert [(w.category, str(w.message)) for w in caught] == [
            (RuntimeWarning, "overflow encountered in multiply")]

    def test_byte_identical_reruns(self, tmp_path):
        img = sine_image()
        s = three_node_symmetric(float(img.size * 8))
        images = {0: gradient_image(), 1: img, 2: img.copy()}
        outputs = []
        for run in ("a", "b"):
            result = simulate(s, images, CodecConfig(), align_alpha=0.05)
            manifest = manifest_for(format_scenario(s), CodecConfig(), 0.05)
            outdir = tmp_path / run
            write_outputs(result, s, outdir, manifest)
            outputs.append(outdir)
        for name in ("report.csv", "links.csv", "plan.csv", "plan.txt",
                     "manifest.json"):
            assert ((outputs[0] / name).read_bytes()
                    == (outputs[1] / name).read_bytes()), name

    def test_csv_headers(self, tmp_path):
        img = sine_image()
        s = two_node(float(img.size * 8))
        result = simulate(s, {0: gradient_image(), 1: img},
                          CodecConfig(), align_alpha=0.0)
        manifest = manifest_for(format_scenario(s), CodecConfig(), 0.0)
        write_outputs(result, s, tmp_path, manifest)
        documented = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
        for name, header in (("report.csv", REPORT_HEADER), ("links.csv", LINKS_HEADER),
                             ("plan.csv", PLAN_CSV_HEADER)):
            assert (tmp_path / name).read_text().splitlines()[0] == header
            assert f"\n    {header}\n" in documented, name


def test_plan_matrix_report_formats_each_element():
    rng = np.random.default_rng(6)
    n = 9
    link = (rng.random((n, n)) < 0.3).astype(int)
    plan = CommPlan(link, rng.random((n, n)), 10 ** rng.uniform(-3, 9, (n, n)),
                    link * 10 ** rng.uniform(-12, 3, (n, n)), 0.5)
    lines = plan_matrix_report(plan).splitlines()
    assert lines[1:n + 1] == [" ".join(format(v, "d") for v in row) for row in link]
    assert lines[n + 1:] == ["", "average delay (s): 0.5"]
    # links only in the last row and the last column, corners included: only
    # their rows are formatted, the others share the all-0 row
    link = np.zeros((n, n), dtype=int)
    for i, j in ((n - 1, 0), (n - 1, 4), (0, n - 1), (5, n - 1), (n - 1, n - 1)):
        link[i, j] = 1
    edges = CommPlan(link, np.ones((n, n)), link * 1e6, link * 0.25, 0.25)
    assert plan_matrix_report(edges) == reference_matrix_report(edges)


def reference_matrix_report(plan: CommPlan) -> str:
    """plan.txt with one ``format`` call per element of the link matrix."""
    rows = [" ".join(format(v, "d") for v in row) for row in plan.link_matrix.tolist()]
    return "\n".join(["link matrix", *rows, "",
                      f"average delay (s): {_fmt(plan.avg_delay_s)}"]) + "\n"


def assert_same_plan(plan: CommPlan, want: CommPlan) -> None:
    """The four matrices equal byte for byte, in the same dtype and shape,
    and the averages have the same ``repr``."""
    for name in ("link_matrix", "compression", "rates", "delays"):
        a, b = getattr(plan, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert repr(plan.avg_delay_s) == repr(want.avg_delay_s)


def random_fleet(n: int, subchannels: int, seed: int) -> Scenario:
    """Like the ``fleet_40`` fixture, with ``n`` nodes over 1 km x 1 km and no
    idle pairs, so that the plan does not stop at one zero-delay link."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-500.0, 500.0, size=(n, 2))
    volumes = rng.uniform(1e5, 2e7, size=(n, n))
    np.fill_diagonal(volumes, 0.0)
    params = ChannelParams(total_bandwidth_hz=20e6, num_subchannels=subchannels,
                           transmit_power_w=0.2, noise_level=1e-9,
                           pathloss_exponent=2.7, reference_distance_m=10.0)
    return Scenario(nodes=[VehicleNode(k, float(x), float(y)) for k, (x, y) in enumerate(xy)],
                    ego_id=0, data_volumes_bits=volumes, channel=params, beta=0.8)


class TestPlanMatrixReportBytes:
    """plan.txt equals the per-element ``format`` reference byte for byte."""

    def test_optimized_fleet_40(self, fleet_40):
        plan = optimize(fleet_40)
        assert plan_matrix_report(plan) == reference_matrix_report(plan)

    def test_optimized_150_node_fleet(self):
        plan = optimize(random_fleet(150, 16, seed=150))
        assert plan.num_links > 1
        assert plan_matrix_report(plan) == reference_matrix_report(plan)

    def test_ratio_override_plan(self):
        # the override's ratios and delays are in plan.csv only: the plan
        # equals the optimum with each selected ratio 0.3 and its delay
        # recomputed link by link
        img = sine_image()
        s = three_node_symmetric(float(img.size * 8))
        result = simulate(s, {0: gradient_image(), 1: img, 2: img},
                          CodecConfig(), align_alpha=0.0, ratio_override=0.3)
        base = optimize(s)
        assert base.num_links == result.plan.num_links == 2
        links = base.selected_links()
        ratio, delays = base.compression.copy(), np.zeros_like(base.delays)
        for i, j in links:
            ratio[i, j] = 0.3
            delays[i, j] = 0.3 * s.data_volumes_bits[i, j] / base.rates[i, j]
        want = CommPlan(base.link_matrix, ratio, base.rates, delays,
                        float(sum(delays[i, j] for i, j in links)) / len(links))
        assert_same_plan(result.plan, want)
        assert plan_matrix_report(result.plan) == reference_matrix_report(result.plan)

    @pytest.mark.parametrize("link_dtype", [bool, np.int32])
    def test_special_values(self, link_dtype):
        neg_nan = np.float64(-math.nan)
        payload_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
        values = np.array([[-0.0, 0.0, math.nan, neg_nan],
                           [payload_nan, math.inf, -math.inf, 1e-300],
                           [-1e-300, 0.5, 0.0, -0.0]])
        link = np.array([[0, 1, 0, 1], [1, 0, 0, 0], [0, 0, 0, 1]], dtype=link_dtype)
        plan = CommPlan(link, values, values * 3.0, values[::-1], -0.0)
        assert plan_matrix_report(plan) == reference_matrix_report(plan)
        assert plan_matrix_report(plan).splitlines() == [
            "link matrix", "0 1 0 1", "1 0 0 0", "0 0 0 1", "", "average delay (s): -0"]

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 3)])
    def test_empty_matrices(self, shape):
        plan = CommPlan(np.zeros(shape, dtype=int), np.ones(shape), np.zeros(shape),
                        np.zeros(shape), math.nan)
        assert plan_matrix_report(plan) == reference_matrix_report(plan)


class TestWritePlan:
    """plan.txt is plan_matrix_report's text; plan.csv lists the links."""

    def test_150_node_plan(self, tmp_path):
        s = random_fleet(150, 16, seed=150)
        plan = optimize(s)
        write_plan(plan, s, tmp_path)
        data = (tmp_path / "plan.txt").read_bytes()
        assert data == plan_matrix_report(plan).encode() == reference_matrix_report(plan).encode()
        assert len(data.splitlines()) == 150 + 3
        assert len((tmp_path / "plan.csv").read_text().splitlines()) == 1 + plan.num_links

    def test_two_node_plan(self, tmp_path):
        s = two_node(1e6)
        plan = optimize(s)
        write_plan(plan, s, tmp_path)
        data = (tmp_path / "plan.txt").read_bytes()
        assert data == plan_matrix_report(plan).encode() == reference_matrix_report(plan).encode()
        assert data.endswith(b"\n") and not data.endswith(b"\n\n")

    def test_plan_command_working_set_at_150_nodes(self, tmp_path, capsys):
        # the scenario's volumes plus about 6 n x n arrays while planning;
        # the text of the scenario is dropped before planning
        s = random_fleet(150, 16, seed=150)
        path = tmp_path / "fleet.scn"
        path.write_text(format_scenario(s))
        argv = ["plan", "--scenario", str(path), "--outdir", str(tmp_path / "out")]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 150 * 150 * 8


def camera_fleet(outdir: Path, n: int) -> list[str]:
    """``main`` arguments of ``simulate`` on an n-node fleet of 176x176 gray
    cameras in ``outdir``, whose plan sends two links into the ego node."""
    frames = shifting_sequence(n, 176, 176)
    volumes = np.zeros((n, n))
    volumes[1:, 0] = frames[0].size * 8
    params = ChannelParams(total_bandwidth_hz=20e6, num_subchannels=2,
                           transmit_power_w=0.2, noise_level=1e-9,
                           pathloss_exponent=2.7, reference_distance_m=10.0)
    s = Scenario(nodes=[VehicleNode(k, 5.0 * k, 3.0 * (k % 3)) for k in range(n)],
                 ego_id=0, data_volumes_bits=volumes, channel=params, beta=0.8,
                 min_ego_links=2)
    for k, frame in enumerate(frames):
        write_image(outdir / f"n{k}.pgm", frame)
    (outdir / "scene.scn").write_text(format_scenario(s, {k: f"n{k}.pgm" for k in range(n)}))
    return ["simulate", "--scenario", str(outdir / "scene.scn"),
            "--outdir", str(outdir / "out"), "--alpha", "0.05"]


class TestImageSet:
    @pytest.mark.parametrize("magic, shape, maxval", [
        (b"P5", (7, 9), 255), (b"P6", (7, 9, 3), 255),
        (b"P5", (7, 9), 100), (b"P6", (7, 9, 3), 7)])
    def test_lookup_equals_read_image(self, tmp_path, magic, shape, maxval):
        # bit for bit, and both are the samples as float64 over maxval
        samples = np.random.default_rng(maxval).integers(0, maxval + 1, shape, dtype=np.uint8)
        path = tmp_path / "img"
        path.write_bytes(b"%s\n%d %d\n%d\n" % (magic, shape[1], shape[0], maxval)
                         + samples.tobytes())
        images = ImageSet({"a": path})
        expected = samples.astype(float) / maxval
        for got in (images["a"], read_image(path)):
            assert got.dtype == np.float64 and got.shape == shape
            assert got.tobytes() == expected.tobytes()
        assert images["a"] is not images["a"]  # a new frame per lookup

    def test_reads_every_file_up_front_in_order(self, tmp_path):
        for name, data in (("good.pgm", b"P5\n2 1\n255\n\x00\x01"),
                           ("short.pgm", b"P5\n2 2\n255\n\x00"),
                           ("deep.pgm", b"P5\n2 2\n65535\n" + b"\x00" * 8)):
            (tmp_path / name).write_bytes(data)
        with pytest.raises(ImageFormatError, match="payload has 1 bytes"):
            ImageSet({k: tmp_path / name for k, name in
                      enumerate(("good.pgm", "short.pgm", "deep.pgm"))})
        images = ImageSet({3: tmp_path / "good.pgm", 1: tmp_path / "good.pgm"})
        assert (list(images), len(images), 3 in images, 0 in images) == ([3, 1], 2, True, False)
        with pytest.raises(KeyError):
            images[0]

    def test_cli_working_set_grows_by_samples_per_node(self, tmp_path, capsys):
        # one link's working set plus each node's 8-bit samples, 1/8 of a
        # float64 frame (in 176x176 float64 arrays: 8.77 at 4 nodes, 9.28 at
        # 8; a float64 frame held per node read 11.26 and 15.27)
        peaks = {}
        for n in (4, 8):
            (tmp_path / str(n)).mkdir()
            argv = camera_fleet(tmp_path / str(n), n)
            assert main(argv) == 0
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1] / (176 * 176 * 8)
            finally:
                tracemalloc.stop()
            assert "simulated 2 links" in capsys.readouterr().out
        assert peaks[4] <= 8.95
        assert peaks[8] <= 9.45
        assert peaks[8] - peaks[4] <= 0.75


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

    @pytest.mark.parametrize("command", ["plan", "simulate"])
    @pytest.mark.parametrize("key,value", [("noise", "1e-320"), ("tx_power_w", "1e308"),
                                           ("bandwidth_hz", "1e308")])
    def test_overflowing_channel_exits_2(self, scenario_dir, capsys, command, key, value):
        # every capacity would be inf, every delay 0
        path = scenario_dir / "scene.scn"
        lines = [f"{key} {value}" if line.split()[:1] == [key] else line
                 for line in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        rc = main([command, "--scenario", str(path), "--outdir", str(scenario_dir / "out")])
        assert rc == 2
        assert "peak SNR (P * g_ref / N) and capacity must be finite" in capsys.readouterr().err
        assert not (scenario_dir / "out").exists()

    def test_oracle_command(self, scenario_dir):
        rc = main(["oracle", "--scenario", str(scenario_dir / "scene.scn"),
                   "--outdir", str(scenario_dir / "oracle")])
        assert rc == 0
        assert (scenario_dir / "oracle" / "plan.csv").exists()

    def test_oracle_refuses_more_than_20_candidates(self, basic_params, tmp_path,
                                                    capsys):
        s = Scenario(nodes=[VehicleNode(k, 30.0 * k, 0.0) for k in range(6)],
                     ego_id=0, data_volumes_bits=np.zeros((6, 6)),
                     channel=basic_params, beta=0.8)
        (tmp_path / "big.scn").write_text(format_scenario(s))
        rc = main(["oracle", "--scenario", str(tmp_path / "big.scn"),
                   "--outdir", str(tmp_path / "oracle")])
        assert rc == 2
        assert "30 candidate links exceed the enumeration cap of 20" in capsys.readouterr().err
        assert not (tmp_path / "oracle").exists()

    def test_simulate_has_no_quant_step_flag(self, scenario_dir, capsys):
        # rate control picks the step; the flag could only change the manifest
        rc = main(["simulate", "--scenario", str(scenario_dir / "scene.scn"),
                   "--seed", "1", "--outdir", str(scenario_dir / "o"),
                   "--quant-step", "0.3"])
        assert rc == 2
        assert "--quant-step" in capsys.readouterr().err
        assert not (scenario_dir / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["codec", "encode", "--image", "i.pgm", "--out", "f.vcq"],
        ["simulate", "--scenario", "s.scn", "--outdir", "o"],
    ])
    def test_codec_flag_defaults_are_the_dataclass_defaults(self, argv):
        assert _codec_config(build_parser().parse_args(argv)) == CodecConfig()

    @pytest.mark.parametrize("command", ["plan", "simulate"])
    def test_seed_changes_no_byte(self, scenario_dir, command):
        # the planner is exact; --seed still parses so older command lines run
        scene = str(scenario_dir / "scene.scn")
        assert main([command, "--scenario", scene, "--outdir", str(scenario_dir / "a")]) == 0
        assert main([command, "--scenario", scene, "--seed", "7",
                     "--outdir", str(scenario_dir / "b")]) == 0
        names = sorted(p.name for p in (scenario_dir / "a").iterdir())
        assert names == sorted(p.name for p in (scenario_dir / "b").iterdir())
        for name in names:
            assert ((scenario_dir / "a" / name).read_bytes()
                    == (scenario_dir / "b" / name).read_bytes()), name
        if command == "simulate":
            assert "seed" not in json.loads((scenario_dir / "a" / "manifest.json").read_text())

    def test_codec_decode_takes_no_codec_flags(self, tmp_path, capsys):
        # the container decides block size, step and model
        (tmp_path / "f.bin").write_bytes(frame_container())
        rc = main(["codec", "decode", "--frame", str(tmp_path / "f.bin"),
                   "--out", str(tmp_path / "r.pgm"), "--block-size", "16"])
        assert rc == 2
        assert "--block-size" in capsys.readouterr().err
        assert not (tmp_path / "r.pgm").exists()

    def test_validation_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("version 1\nbandwidth_hz -4\n")
        rc = main(["plan", "--scenario", str(bad), "--seed", "1",
                   "--outdir", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("prefix,line", [
        ("bandwidth_hz", "bandwidth_hz nan"),
        ("tx_power_w", "tx_power_w inf"),
        ("beta", "beta nan"),
        ("distance_scale_m", "distance_scale_m inf"),
        ("node 1", "node 1 inf 40"),
        ("8000000 0", "nan 0"),
    ])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, prefix, line):
        lines = format_scenario(two_node(8e6)).splitlines()
        edited = [line if old.startswith(prefix) else old for old in lines]
        assert edited != lines
        path = tmp_path / "scene.scn"
        path.write_text("\n".join(edited) + "\n")
        rc = main(["plan", "--scenario", str(path), "--seed", "1",
                   "--outdir", str(tmp_path / "o")])
        assert rc == 2
        assert f"line {edited.index(line) + 1}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["plan", "simulate"])
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_invalid_utf8_exits_2_naming_its_line(self, tmp_path, capsys, command, newline):
        lines = format_scenario(two_node(8e6)).encode().splitlines()
        lines[2:2] = [b"# caf\xe9", b"# \xff"]
        path = tmp_path / "scene.scn"
        path.write_bytes(newline.join(lines) + newline)
        rc = main([command, "--scenario", str(path), "--seed", "1",
                   "--outdir", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == "error: line 3: not valid UTF-8\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("where", ["first", "last", "after_mark", "last_after_mark"])
    def test_invalid_utf8_at_either_end_and_after_a_byte_order_mark(self, tmp_path, capsys,
                                                                    where):
        text = format_scenario(two_node(8e6)).encode()
        last = text.count(b"\n") + 1  # a line with no newline after the text
        data, line = {"first": (b"\xff" + text, 1),
                      "last": (text + b"# caf\xe9", last),
                      "after_mark": (b"\xef\xbb\xbf\xe9" + text, 1),
                      "last_after_mark": (b"\xef\xbb\xbf" + text + b"\xff", last)}[where]
        path = tmp_path / "scene.scn"
        path.write_bytes(data)
        rc = main(["plan", "--scenario", str(path), "--outdir", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: line {line}: not valid UTF-8\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["plan", "simulate"])
    def test_byte_order_mark_changes_no_output(self, scenario_dir, command):
        scene = scenario_dir / "scene.scn"
        args = [command, "--scenario", str(scene), "--seed", "1"]
        assert main(args + ["--outdir", str(scenario_dir / "plain")]) == 0
        scene.write_bytes(b"\xef\xbb\xbf" + scene.read_bytes())
        assert main(args + ["--outdir", str(scenario_dir / "bom")]) == 0
        names = sorted(p.name for p in (scenario_dir / "plain").iterdir())
        assert names == sorted(p.name for p in (scenario_dir / "bom").iterdir())
        assert "plan.txt" in names and (command == "plan") != ("manifest.json" in names)
        for name in names:
            assert ((scenario_dir / "plain" / name).read_bytes()
                    == (scenario_dir / "bom" / name).read_bytes()), name

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

    def test_overflowing_delays_exit_3_without_warnings(self, tmp_path):
        # every delay overflows to inf: plan and oracle both refuse the fleet,
        # and neither prints a numeric warning
        params = ChannelParams(total_bandwidth_hz=1e-318, num_subchannels=3,
                               transmit_power_w=0.2, noise_level=1e-9)
        s = Scenario(nodes=[VehicleNode(0, 0.0, 0.0), VehicleNode(1, 30.0, 0.0),
                            VehicleNode(2, 0.0, 40.0)],
                     ego_id=0, data_volumes_bits=1e6 * (1 - np.eye(3)),
                     channel=params, beta=0.5, min_ego_links=1)
        path = tmp_path / "overflow.scn"
        path.write_text(format_scenario(s))
        src = os.path.dirname(os.path.dirname(v2vsim.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
        for command in (["plan", "--seed", "1"], ["oracle"]):
            out = subprocess.run(
                [sys.executable, "-m", "v2vsim.cli", *command, "--scenario", str(path),
                 "--outdir", str(tmp_path / command[0])],
                env=env, capture_output=True, text=True, timeout=60)
            assert out.returncode == 3, out.stderr
            assert out.stderr == "infeasible: no feasible link selection exists\n"

    def test_link_past_the_exponent_range_is_planned(self, tmp_path):
        # 80 km at a 100 m distance scale: the floor bound's exp overflows
        params = ChannelParams(total_bandwidth_hz=20e6, num_subchannels=1,
                               transmit_power_w=0.2, noise_level=1e-9,
                               pathloss_exponent=2.7, reference_distance_m=10.0)
        s = Scenario(nodes=[VehicleNode(0, 0.0, 0.0), VehicleNode(1, 80e3, 0.0)],
                     ego_id=0, data_volumes_bits=np.array([[0.0, 0.0], [1e5, 0.0]]),
                     channel=params, beta=0.8, min_ego_links=1)
        path = tmp_path / "far.scn"
        path.write_text(format_scenario(s))
        rc = main(["plan", "--scenario", str(path), "--outdir", str(tmp_path / "o")])
        assert rc == 0
        rows = (tmp_path / "o" / "plan.csv").read_text().splitlines()
        assert rows[0] == PLAN_CSV_HEADER and len(rows) == 2
        assert rows[1].startswith("1,0,")

    def test_nodes_beyond_the_float_range_apart_exit_3_without_warnings(self, tmp_path, capsys):
        # the ego and node 1 are 2e308 m apart: their distance is inf, not a warning
        params = ChannelParams(total_bandwidth_hz=20e6, num_subchannels=1,
                               transmit_power_w=0.2, noise_level=1e-9)
        s = Scenario(nodes=[VehicleNode(0, -1e308, 0.0), VehicleNode(1, 1e308, 0.0),
                            VehicleNode(2, 0.0, 5.0)],
                     ego_id=0, data_volumes_bits=1e6 * (1 - np.eye(3)),
                     channel=params, beta=0.5, min_ego_links=1)
        path = tmp_path / "wide.scn"
        path.write_text(format_scenario(s))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["plan", "--scenario", str(path), "--outdir", str(tmp_path / "o")])
        assert rc == 3
        assert "ego connectivity" in capsys.readouterr().err

    def test_truncated_image_of_an_unused_node_exits_4(self, tmp_path, capsys):
        # every file is read and checked before planning, even one no link sends
        s = two_node(float(gradient_image().size * 8))
        volumes = np.full((3, 3), 1e9)  # one sub-channel: only 1->0 is sent
        volumes[:2, :2], volumes[2, 2] = s.data_volumes_bits, 0.0
        s = Scenario(nodes=[*s.nodes, VehicleNode(2, 0.0, 60.0)], ego_id=0,
                     data_volumes_bits=volumes, channel=s.channel, beta=s.beta,
                     min_ego_links=1)
        for k, img in enumerate((gradient_image(), sine_image(), gradient_image())):
            write_image(tmp_path / f"n{k}.pgm", img)
        (tmp_path / "scene.scn").write_text(
            format_scenario(s, {k: f"n{k}.pgm" for k in range(3)}))
        argv = ["simulate", "--scenario", str(tmp_path / "scene.scn"), "--alpha", "0.05"]
        assert main(argv + ["--outdir", str(tmp_path / "good")]) == 0
        links = (tmp_path / "good" / "links.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in links] == [["1", "0"]]
        data = (tmp_path / "n2.pgm").read_bytes()
        (tmp_path / "n2.pgm").write_bytes(data[:100])
        capsys.readouterr()
        assert main(argv + ["--outdir", str(tmp_path / "bad")]) == 4
        header = len(b"P5\n32 32\n255\n")
        assert data[:header] == b"P5\n32 32\n255\n"
        assert capsys.readouterr().err == (
            f"i/o error: payload has {100 - header} bytes, expected {32 * 32}\n")
        assert not (tmp_path / "bad").exists()

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

    def test_codec_decode_accepts_well_formed_header(self, tmp_path):
        (tmp_path / "f.bin").write_bytes(frame_container(channels=3, height=13, pad_h=16))
        rc = main(["codec", "decode", "--frame", str(tmp_path / "f.bin"),
                   "--out", str(tmp_path / "r.ppm")])
        assert rc == 0
        assert read_image(tmp_path / "r.ppm").shape == (13, 16, 3)

    # each container is well formed except for the one field named
    @pytest.mark.parametrize("fields", [
        {"block": 0},
        {"step": math.nan},
        {"step": -0.1},
        {"step": 0.0},
        {"step": math.inf},
        {"model_id": b"\xffgeneric"},
        {"channels": 0},
        {"channels": 2},
        {"channels": 4},
        {"height": 0, "pad_h": 0},
        {"width": 0, "pad_w": 0},
        {"pad_h": 24},
        {"height": 20, "pad_h": 16},
        {"height": 20, "pad_h": 20},
        {"step": 1e308, "first": 100},
    ], ids=["block-0", "step-nan", "step-negative", "step-0", "step-inf",
            "model-id-not-utf8", "channels-0", "channels-2", "channels-4",
            "height-0", "width-0", "pad-too-large", "pad-below-height",
            "pad-not-block-multiple", "step-overflows"])
    def test_codec_decode_bad_header_exits_2(self, tmp_path, capsys, fields):
        (tmp_path / "f.bin").write_bytes(frame_container(**fields))
        rc = main(["codec", "decode", "--frame", str(tmp_path / "f.bin"),
                   "--out", str(tmp_path / "r.pgm")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "r.pgm").exists()

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

    @pytest.mark.parametrize("fraction, count", [
        ("0.7", 7), ("1/6", 2), ("0.4", 4), ("1", 10), ("0.01", 1)])
    def test_refine_fraction_is_the_share_of_frames(self, tmp_path, fraction, count):
        from v2vsim.synth import shifting_sequence
        for k, frame in enumerate(shifting_sequence(num_frames=10)):
            write_image(tmp_path / f"f{k:03d}.pgm", frame)
        out = tmp_path / "refined.bin"
        assert main(["codec", "encode", "--image", str(tmp_path / "f009.pgm"),
                     "--out", str(out), "--quant-step", "0.01",
                     "--refine-dir", str(tmp_path),
                     "--refine-fraction", fraction]) == 0
        model_id = deserialize_frame(out.read_bytes()).model_id
        assert model_id == f"refined-n{count}-q0.01"

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

    @pytest.mark.parametrize("flag, value", [
        ("--alpha", "nan"), ("--alpha", "-0.5"),
        ("--rate-tolerance", "nan"), ("--rate-tolerance", "inf"),
        ("--block-size", "1000000")])
    def test_simulate_rejects_bad_parameter_before_writing(self, scenario_dir,
                                                           capsys, flag, value):
        outdir = scenario_dir / "bad"
        rc = main(["simulate", "--scenario", str(scenario_dir / "scene.scn"),
                   "--seed", "1", "--outdir", str(outdir), flag, value])
        assert rc == 2
        assert flag.lstrip("-").replace("-", "_") in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("flag", ["--quant-step", "--rate-tolerance"])
    def test_codec_encode_rejects_nan(self, scenario_dir, capsys, flag):
        out = scenario_dir / "f.vcq"
        rc = main(["codec", "encode", "--image", str(scenario_dir / "n1.pgm"),
                   "--out", str(out), flag, "nan"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("shape, flags", [
        ((16, 16), ["--block-size", "300"]),  # block size is a u8 in the container
        ((2, 70000), []),  # padded sides are u16
        ((16, 16), ["--refine-fraction", "abc"]),
        ((16, 16), ["--refine-fraction", "1/0"]),
        ((16, 16), ["--block-size", "1000000"])])  # rejected before any padding
    def test_codec_encode_bad_input_exits_2(self, tmp_path, capsys, shape, flags):
        write_image(tmp_path / "in.pgm", np.zeros(shape))
        out = tmp_path / "f.vcq"
        rc = main(["codec", "encode", "--image", str(tmp_path / "in.pgm"),
                   "--out", str(out), "--refine-dir", str(tmp_path), *flags])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_simulate_reruns_byte_identical(self, scenario_dir):
        args = ["simulate", "--scenario", str(scenario_dir / "scene.scn"),
                "--seed", "17", "--alpha", "0.05"]
        assert main(args + ["--outdir", str(scenario_dir / "r1")]) == 0
        assert main(args + ["--outdir", str(scenario_dir / "r2")]) == 0
        for name in ("report.csv", "links.csv", "manifest.json"):
            a = (scenario_dir / "r1" / name).read_bytes()
            b = (scenario_dir / "r2" / name).read_bytes()
            assert a == b, name

    def test_one_parser_serves_simulate_then_plan(self, scenario_dir):
        scene = str(scenario_dir / "scene.scn")
        sim = ["simulate", "--scenario", scene, "--seed", "13"]
        assert main(sim + ["--alpha", "0.05", "--block-size", "16",
                           "--outdir", str(scenario_dir / "tuned")]) == 0
        assert main(["plan", "--scenario", scene, "--seed", "13",
                     "--outdir", str(scenario_dir / "plan")]) == 0
        assert main(sim + ["--outdir", str(scenario_dir / "defaults")]) == 0
        assert build_parser() is build_parser()

        def manifest(name):
            return json.loads((scenario_dir / name / "manifest.json").read_text())

        tuned, defaults = manifest("tuned"), manifest("defaults")
        assert (tuned["align_alpha"], tuned["codec"]["block_size"]) == (0.05, 16)
        assert (defaults["align_alpha"], defaults["codec"]["block_size"]) == (0.0, 8)
        assert defaults["ratio_override"] is None
        for name in ("plan.txt", "plan.csv"):
            assert ((scenario_dir / "plan" / name).read_bytes()
                    == (scenario_dir / "defaults" / name).read_bytes())
        args = build_parser().parse_args(["plan", "--scenario", scene])
        assert vars(args) == {"command": "plan", "scenario": scene, "seed": None,
                              "outdir": "plan_out", "func": cmd_plan}


def modules_loaded_by(statement: str) -> set[str]:
    """Names in sys.modules after ``statement`` runs in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(v2vsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = f"import sys; {statement}; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return set(out.stdout.split())


def test_cli_import_skips_scipy_signal():
    # no SciPy module at all: scipy.signal took 0.8-1.0 s of a 1.2-1.5 s
    # `import v2vsim.cli` on a 2-vCPU Xeon, and scipy.fft about 0.3-0.4 s more
    loaded = modules_loaded_by("import v2vsim.cli")
    assert not any(m.split(".")[0] == "scipy" for m in loaded)


def test_planner_import_loads_no_codec_alignment_or_driver():
    # the package re-exports nothing, so a submodule pulls in only its imports
    loaded = modules_loaded_by("import v2vsim.planner")
    assert "v2vsim.planner" in loaded
    assert not loaded & {"v2vsim.codec", "v2vsim.fourier", "v2vsim.simulate"}


def test_submodule_import_binds_the_module():
    import v2vsim.simulate as m
    assert isinstance(m, types.ModuleType)
    assert m.simulate is simulate


def test_pipeline_demo_reruns_byte_identical_through_cli(tmp_path, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_pipeline_demo.py"
    spec = importlib.util.spec_from_file_location("run_pipeline_demo", script)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    outdir = tmp_path / "demo"
    assert demo.main(["--outdir", str(outdir)]) == 0
    printed = capsys.readouterr().out
    assert "1->0: ratio" in printed and "2->0: ratio" in printed
    # the rerun command exactly as the demo's docstring documents it
    (command,) = [line.strip() for line in demo.__doc__.splitlines()
                  if line.strip().startswith("v2vsim simulate")]
    argv = command.replace("<outdir>", str(outdir)).split()[1:]
    assert main(argv) == 0
    for name in ("plan.txt", "plan.csv", "links.csv", "report.csv",
                 "manifest.json"):
        assert (outdir / name).read_bytes() == (outdir / "rerun" / name).read_bytes(), name
