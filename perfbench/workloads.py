"""Inputs, operations and output checks of the four benchmark workloads.

Each workload draws a fixed pool of distinct inputs from its seed and runs
one operation ("op") per pool item.  The benchmark cycles through the pool
in a closed loop with one client.  Ops call the program through module
attributes (``cli.main``, ``codec.rate_control``), so that the traced run's
wrappers see them.  Checks run between ops, when no wrapper is
installed, so they call the program's own, unwrapped functions.

A check returns a list of problems; an empty list means the op's output is
correct.  Every op's output is also compared byte for byte with the output
of the untimed warm-up pass over the same pool item: the warm-up output is
checked in full, and only its sha256 fingerprint is kept as the reference.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import importlib
import io
import math
import re
import shutil
from pathlib import Path

import env  # noqa: F401  (pins threads and finds src/ before NumPy loads)
import numpy as np

# `import v2vsim.simulate` would yield the function that the package
# re-exports over the submodule's name, so fetch modules by name.
channel = importlib.import_module("v2vsim.channel")
cli = importlib.import_module("v2vsim.cli")
codec = importlib.import_module("v2vsim.codec")
metrics = importlib.import_module("v2vsim.metrics")
planner = importlib.import_module("v2vsim.planner")
scenario_io = importlib.import_module("v2vsim.scenario_io")
simulate = importlib.import_module("v2vsim.simulate")
synth = importlib.import_module("v2vsim.synth")
image_io = importlib.import_module("v2vsim.image_io")

RATE_TOLERANCE = 0.05  # the CLI's default --rate-tolerance
ORACLE_REL_TOL = 1e-9
# links.csv prints bits and ratios with 12 significant digits
PRINT_REL_TOL = 1e-9


def _digest_part(data: bytes) -> bytes:
    return len(data).to_bytes(8, "little") + data


def fingerprint(out) -> bytes:
    """sha256 of an output's canonical bytes: the reference later ops must match."""
    return hashlib.sha256(out.canonical()).digest()


def _random_fleet(rng: np.random.Generator, n: int, subchannels: int,
                  half_width_m: float, ego_always_busy: bool) -> "channel.Scenario":
    """A fleet drawn the way ``synth.random_scenario`` draws one.

    The node count, sub-channel count and spread are fixed by the caller.
    ``ego_always_busy`` keeps every link into the ego vehicle carrying data,
    so that idle pairs (20%) fall only on links between other vehicles.
    """
    nodes = [channel.VehicleNode(id=0, x=0.0, y=0.0)]
    for node_id in range(1, n):
        nodes.append(channel.VehicleNode(
            id=node_id,
            x=float(rng.uniform(-half_width_m, half_width_m)),
            y=float(rng.uniform(-half_width_m, half_width_m))))
    volumes = rng.uniform(1e5, 2e7, size=(n, n))
    idle = rng.random((n, n)) < 0.2
    if ego_always_busy:
        idle[:, 0] = False
    volumes[idle] = 0.0
    np.fill_diagonal(volumes, 0.0)
    params = channel.ChannelParams(
        total_bandwidth_hz=float(rng.uniform(10e6, 40e6)),
        num_subchannels=subchannels,
        transmit_power_w=float(rng.uniform(0.1, 1.0)),
        noise_level=float(rng.uniform(1e-10, 1e-8)),
        noise_mode="literal-power",
        pathloss_exponent=float(rng.uniform(2.0, 3.5)),
        reference_distance_m=float(rng.uniform(5.0, 15.0)),
        reference_gain=1.0,
    )
    return channel.Scenario(
        nodes=nodes, ego_id=0, data_volumes_bits=volumes, channel=params,
        beta=float(rng.uniform(0.5, 0.95)), distance_scale_m=100.0,
        min_ego_links=int(min(rng.integers(1, 3), subchannels, n - 1)))


def _textured_scene(rng: np.random.Generator, side: int) -> np.ndarray:
    """Sinusoid mixture plus mild noise: one scene that every camera sees."""
    yy = np.arange(side)[:, None] / side
    xx = np.arange(side)[None, :] / side
    img = np.full((side, side), 0.5)
    for _ in range(6):
        fy, fx = rng.uniform(1.0, 20.0, size=2)
        img += rng.uniform(0.03, 0.12) * np.sin(
            2 * np.pi * (fy * yy + fx * xx) + rng.uniform(0, 2 * np.pi))
    img += 0.03 * rng.standard_normal((side, side))
    return np.clip(img, 0.0, 1.0)


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@dataclasses.dataclass
class CliOutcome:
    """Exit code, console text and output files of one CLI invocation."""

    code: int
    stdout: str
    stderr: str
    files: dict[str, bytes]

    def canonical(self) -> bytes:
        parts = [str(self.code).encode(), self.stdout.encode(), self.stderr.encode()]
        for name in sorted(self.files):
            parts += [name.encode(), self.files[name]]
        return b"".join(_digest_part(p) for p in parts)


def _csv_rows(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _link_matrix_from_report(text: str, n: int) -> np.ndarray:
    """The exact 0/1 link matrix printed at the top of plan.txt."""
    lines = text.splitlines()
    if not lines or lines[0] != "link matrix":
        raise ValueError("plan.txt does not start with the link matrix")
    return np.array([[int(tok) for tok in line.split()] for line in lines[1:1 + n]])


def _report_average(text: str) -> float:
    last = text.rstrip("\n").splitlines()[-1]
    prefix = "average delay (s): "
    if not last.startswith(prefix):
        raise ValueError("plan.txt does not end with the average delay")
    return float(last[len(prefix):])


def _same_average(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=ORACLE_REL_TOL, abs_tol=0.0)


def _budget_and_floor(link_matrix: np.ndarray, scenario) -> list[str]:
    """The sub-channel budget and ego inbound floor, checked independently."""
    problems = []
    links = int(link_matrix.sum())
    budget = scenario.channel.num_subchannels
    if links > budget:
        problems.append(f"{links} links exceed the {budget} sub-channels")
    inbound = int(link_matrix[:, scenario.ego_index].sum())
    if inbound < scenario.min_ego_links:
        problems.append(f"{inbound} ego inbound links < floor {scenario.min_ego_links}")
    return problems


def check_plan(plan, scenario) -> list[str]:
    return planner.validate_plan(plan, scenario) + _budget_and_floor(plan.link_matrix, scenario)


def plan_from_selection(scenario, link_matrix: np.ndarray):
    """The closed-form plan for a link selection (floor ratio, full capacity).

    The planner's module docstring states this pointwise optimum; rebuilding
    it from the exact link matrix in plan.txt yields a plan whose floats can
    be validated and re-rendered to compare with the files.
    """
    caps = channel.capacity_matrix(scenario)
    dists = scenario.distance_matrix()
    vols = scenario.data_volumes_bits
    n = len(scenario.nodes)
    link = np.asarray(link_matrix, dtype=int)
    ratio = np.ones((n, n))
    rates = np.zeros((n, n))
    delays = np.zeros((n, n))
    for i, j in zip(*np.nonzero(link)):
        ratio[i, j] = planner.compression_lower_bound(
            dists[i, j], scenario.beta, scenario.distance_scale_m)
        rates[i, j] = caps[i, j]
        delays[i, j] = ratio[i, j] * vols[i, j] / rates[i, j]
    avg = float((link * delays).sum() / link.sum()) if link.sum() else math.nan
    return planner.CommPlan(link, ratio, rates, delays, avg)


def check_plan_files(out: CliOutcome, scenario) -> list[str]:
    """plan.txt/plan.csv describe a valid plan and render it exactly."""
    try:
        report = out.files["plan.txt"].decode("utf-8")
        link = _link_matrix_from_report(report, len(scenario.nodes))
        table = out.files["plan.csv"].decode("utf-8")
    except (KeyError, ValueError) as exc:
        return [f"unreadable plan files: {exc!r}"]
    plan = plan_from_selection(scenario, link)
    problems = check_plan(plan, scenario)
    if simulate.plan_matrix_report(plan) != report:
        problems.append("plan.txt is not the closed-form plan of its link matrix")
    if simulate.plan_csv(plan, scenario) != table:
        problems.append("plan.csv is not the closed-form plan of its link matrix")
    return problems


# how `v2vsim simulate` reports a link whose budget the codec cannot reach
BUDGET_MESSAGE = re.compile(
    r"^infeasible: link (\d+)->(\d+): budget ([0-9.]+) bits unreachable: "
    r"coarsest step \S+ still needs ([0-9.]+) bits$")


def check_budget_error(stderr: str, scenario, image_dir: Path) -> list[str]:
    """An exit-3 run names a link that truly cannot meet its budget.

    The link's ratio is the plan's closed form (the proximity floor), and
    its source image encoded at the coarsest grid step under the generic
    model (what `simulate` uses) must still need more than the allowed bits;
    the figures in the message must be those bits and that allowance.
    """
    match = BUDGET_MESSAGE.match(stderr.strip())
    if match is None:
        return [f"exit code 3 without a budget message: {stderr.strip()}"]
    src, dst = int(match[1]), int(match[2])
    ids = [node.id for node in scenario.nodes]
    if src not in ids or dst not in ids or src == dst:
        return [f"exit code 3 names no link of the fleet: {stderr.strip()}"]
    i, j = ids.index(src), ids.index(dst)
    ratio = planner.compression_lower_bound(
        scenario.distance_matrix()[i, j], scenario.beta, scenario.distance_scale_m)
    img = image_io.read_image(image_dir / f"node{src}.pgm")
    cfg = codec.CodecConfig(quant_step=float(codec.QUANT_STEP_GRID[-1]),
                            rate_tolerance=RATE_TOLERANCE)
    bits = codec.encode(img, cfg, codec.EntropyModel.generic()).bit_count
    allowed = (1.0 + RATE_TOLERANCE) * ratio * 8 * img.size
    problems = []
    if bits <= allowed:
        problems.append(f"link {src}->{dst} reported unreachable, but the coarsest "
                        f"step needs {bits} <= {allowed} bits")
    if (match[3], match[4]) != (f"{allowed:.1f}", f"{bits:.1f}"):
        problems.append(f"budget message figures {match[3]}/{match[4]} != "
                        f"{allowed:.1f}/{bits:.1f} recomputed")
    return problems


def check_fleet_outputs(out: CliOutcome, ref: bytes | None,
                        pixels: int) -> list[str]:
    """Checks of one `v2vsim simulate` run (exit 0, or 3 for an unreachable budget).

    An exit-3 run is confirmed by ``check_budget_error`` in the warm-up pass.
    """
    problems = []
    if out.code not in (0, 3):
        return [f"exit code {out.code}: {out.stderr.strip()}"]
    if ref is not None and fingerprint(out) != ref:
        problems.append("outputs differ from the warm-up run of the same fleet")
    if out.code != 0:
        return problems
    try:
        plan_rows = _csv_rows(out.files["plan.csv"])
        link_rows = _csv_rows(out.files["links.csv"])
    except KeyError as exc:
        return problems + [f"missing output file {exc}"]
    plan_ratio = {(r["src"], r["dst"]): r["ratio"] for r in plan_rows}
    if {(r["src"], r["dst"]) for r in link_rows} != set(plan_ratio):
        problems.append("links.csv and plan.csv list different links")
    for row in link_rows:
        key = (row["src"], row["dst"])
        if key in plan_ratio and row["ratio"] != plan_ratio[key]:
            problems.append(f"link {key}: ratio {row['ratio']} != plan {plan_ratio[key]}")
        allowed = (1.0 + RATE_TOLERANCE) * float(row["ratio"]) * 8 * pixels
        if float(row["bits"]) > allowed * (1.0 + PRINT_REL_TOL):
            problems.append(f"link {key}: {row['bits']} bits > budget {allowed:.12g}")
    return problems


@dataclasses.dataclass
class CodecOutcome:
    step: float
    frame: object
    data: bytes
    back: object
    recon: np.ndarray
    psnr: float

    def canonical(self) -> bytes:
        parts = [repr(self.step).encode(), repr(self.frame.bit_count).encode(),
                 self.data, repr(self.back.bit_count).encode(),
                 self.recon.tobytes(), repr(self.psnr).encode()]
        return b"".join(_digest_part(p) for p in parts)


def check_codec(img: np.ndarray, ratio: float, model, cfg,
                out: CodecOutcome, ref: bytes | None) -> list[str]:
    """Budget fit, finest-feasible step, container round trip, identity.

    The two checks that encode or decode again run on the warm-up output;
    a later op's output must equal that one byte for byte.
    """
    problems = []
    allowed = (1.0 + cfg.rate_tolerance) * ratio * img.size * 8
    if not out.frame.bit_count <= allowed:
        problems.append(f"{out.frame.bit_count} bits > budget {allowed}")
    if out.back.bit_count != out.frame.bit_count:
        problems.append(f"deserialized bits {out.back.bit_count} != encoded {out.frame.bit_count}")
    if ref is not None:
        if fingerprint(out) != ref:
            problems.append("outputs differ from the warm-up run of the same frame")
        return problems
    index = np.flatnonzero(codec.QUANT_STEP_GRID == out.step)
    if index.size != 1:
        problems.append(f"step {out.step!r} is not on the grid")
    elif index[0] > 0:
        finer_cfg = dataclasses.replace(cfg, quant_step=float(codec.QUANT_STEP_GRID[index[0] - 1]))
        finer = codec.encode(img, finer_cfg, model)
        if finer.bit_count <= allowed:
            problems.append(f"finer step {finer_cfg.quant_step!r} also fits "
                            f"({finer.bit_count} <= {allowed} bits)")
    if codec.decode(out.frame).tobytes() != out.recon.tobytes():
        problems.append("decode of the deserialized frame differs from the original's")
    return problems


class Workload:
    """A pool of inputs, the op run on each, and the op's output check.

    ``expected`` names the wrapped layers every run of the workload reaches;
    the traced run flags any of them that sees no call.
    """

    name = ""
    why = ""
    expected: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.pool: list = []

    def setup(self) -> None:
        """Program-side one-time work before op 1 (part of setup_s)."""

    def prepare(self, item) -> None:
        """Untimed per-op preparation."""

    def run(self, item):
        raise NotImplementedError

    def collect(self, item, raw):
        """Untimed conversion of the op's return value into its output."""
        return raw

    def check(self, item, out, ref) -> list[str]:
        raise NotImplementedError

    def documented_failure(self, out) -> bool:
        """The op ended in a documented error outcome (not a check failure)."""
        return False

    def oracle_match(self, item, out) -> bool | None:
        """Whether the op's plan equals the oracle; None when not known."""
        return None


@dataclasses.dataclass
class ScenarioItem:
    """A scenario file, the CLI's output directory and its --seed."""

    scenario_path: Path
    outdir: Path
    seed: int
    scenario: object  # as parsed from the file, which is what the program sees
    oracle_avg: float | None = None


class CliWorkload(Workload):
    """Ops that run the CLI on a scenario file into a fresh output directory."""

    def prepare(self, item: ScenarioItem) -> None:
        shutil.rmtree(item.outdir, ignore_errors=True)

    def collect(self, item: ScenarioItem, raw) -> CliOutcome:
        files = {}
        if item.outdir.is_dir():
            files = {p.name: p.read_bytes() for p in sorted(item.outdir.iterdir())}
        return CliOutcome(*raw, files)


class FleetSim(CliWorkload):
    """`v2vsim simulate` on 5-node fleets with 176x176 grayscale cameras."""

    name = "fleet_sim"
    why = ("the command users run; the only workload reaching metrics, "
           "fourier.align, image_io and simulate.write_outputs")
    expected = ("cli.main", "scenario_io.parse_scenario_document",
                "image_io.read_image", "simulate.simulate", "planner.optimize",
                "planner._candidates", "channel.capacity_matrix",
                "channel.distance_matrix", "codec.rate_control", "codec.encode",
                "codec.decode", "fourier.align", "fourier.dft2", "fourier.idft2",
                "metrics.ms_ssim", "metrics.psnr", "metrics.mse",
                "simulate.write_outputs", "simulate.plan_matrix_report")
    POOL = 24
    NODES = 5
    # Two sub-channels with busy ego links make nearly every fleet send two
    # images, so the latency percentiles do not jump between link counts
    # from one seed's pool to the next.
    SUBCHANNELS = 2
    SIDE = 176  # smallest side on which MS-SSIM runs all five scales
    ALPHA = "0.05"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 1])
        for k in range(self.POOL):
            scenario = _random_fleet(rng, self.NODES, self.SUBCHANNELS, 150.0,
                                     ego_always_busy=True)
            scene = _textured_scene(rng, self.SIDE)
            fleet_dir = workdir / f"fleet{k:02d}"
            fleet_dir.mkdir(parents=True)
            image_paths = {}
            for node in scenario.nodes:
                gain, offset = rng.uniform(0.7, 1.3), rng.uniform(-0.1, 0.1)
                name = f"node{node.id}.pgm"
                image_io.write_image(fleet_dir / name, np.clip(scene * gain + offset, 0, 1))
                image_paths[node.id] = name
            text = scenario_io.format_scenario(scenario, image_paths)
            path = fleet_dir / "scene.scn"
            path.write_text(text)
            self.pool.append(ScenarioItem(path, fleet_dir / "out", int(rng.integers(0, 2**31)),
                                       scenario_io.parse_scenario(text)))

    def run(self, item: ScenarioItem):
        return _run_cli(["simulate", "--scenario", str(item.scenario_path),
                         "--seed", str(item.seed), "--outdir", str(item.outdir),
                         "--alpha", self.ALPHA])

    def check(self, item: ScenarioItem, out: CliOutcome, ref) -> list[str]:
        problems = check_fleet_outputs(out, ref, self.SIDE * self.SIDE)
        if ref is None:
            item.oracle_avg = planner.exhaustive_optimum(item.scenario).avg_delay_s
            if out.code == 0:
                problems += check_plan_files(out, item.scenario)
            elif out.code == 3:
                problems += check_budget_error(out.stderr, item.scenario,
                                               item.scenario_path.parent)
        return problems

    def documented_failure(self, out: CliOutcome) -> bool:
        return out.code == 3

    def oracle_match(self, item: ScenarioItem, out: CliOutcome) -> bool | None:
        if out.code != 0:
            return None
        return _same_average(_report_average(out.files["plan.txt"].decode("utf-8")),
                             item.oracle_avg)


class PlanLarge(CliWorkload):
    """`v2vsim plan` on 150-node fleets: 22,350 candidate links."""

    name = "plan_large"
    why = ("planning far beyond the oracle's reach: channel and planner do the "
           "work, the codec, alignment and scoring do none")
    expected = ("cli.main", "scenario_io.parse_scenario_document",
                "planner.optimize", "planner._candidates",
                "channel.capacity_matrix", "channel.distance_matrix",
                "planner.validate_plan", "simulate.plan_matrix_report")
    POOL = 3
    NODES = 150
    SUBCHANNELS = 16

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 2])
        for k in range(self.POOL):
            scenario = _random_fleet(rng, self.NODES, self.SUBCHANNELS, 500.0,
                                     ego_always_busy=False)
            fleet_dir = workdir / f"fleet{k:02d}"
            fleet_dir.mkdir(parents=True)
            text = scenario_io.format_scenario(scenario)
            path = fleet_dir / "scene.scn"
            path.write_text(text)
            self.pool.append(ScenarioItem(path, fleet_dir / "out", int(rng.integers(0, 2**31)),
                                      scenario_io.parse_scenario(text)))

    def run(self, item: ScenarioItem):
        return _run_cli(["plan", "--scenario", str(item.scenario_path),
                         "--seed", str(item.seed), "--outdir", str(item.outdir)])

    def check(self, item: ScenarioItem, out: CliOutcome, ref) -> list[str]:
        if out.code != 0:
            return [f"exit code {out.code}: {out.stderr.strip()}"]
        if ref is not None:
            # the reference passed the full check below in the warm-up pass
            if fingerprint(out) != ref:
                return ["outputs differ from the warm-up run of the same fleet"]
            return []
        return check_plan_files(out, item.scenario)


@dataclasses.dataclass
class OracleOutcome:
    plan: object
    oracle: object
    issues: list[str]

    def canonical(self) -> bytes:
        parts = []
        for p in (self.plan, self.oracle):
            parts += [p.link_matrix.tobytes(), p.compression.tobytes(),
                      p.rates.tobytes(), p.delays.tobytes(), repr(p.avg_delay_s).encode()]
        parts.append("\n".join(self.issues).encode())
        return b"".join(_digest_part(p) for p in parts)


def check_oracle(out: OracleOutcome, scenario, ref: bytes | None) -> list[str]:
    problems = out.issues + _budget_and_floor(out.plan.link_matrix, scenario)
    if not _same_average(out.plan.avg_delay_s, out.oracle.avg_delay_s):
        problems.append(f"average {out.plan.avg_delay_s!r} != oracle {out.oracle.avg_delay_s!r}")
    if ref is not None and fingerprint(out) != ref:
        problems.append("outputs differ from the warm-up run of the same fleet")
    return problems


class PlanOracle(Workload):
    """optimize + exhaustive_optimum + validate_plan on small random fleets.

    The fleets are the fixed set ``random_scenario(k, 5, 4)``, k < POOL, for
    every seed; the workload seed sets the solver seed of each optimize call.
    Op time spans 1-40 ms depending on when the descent converges, and the
    median falls where few ops lie, so a pool drawn afresh per seed moved
    op_p50_ms by 44% (quartile spread over five seeds).
    """

    name = "plan_oracle"
    why = ("the only workload reaching exhaustive_optimum; with at most 20 "
           "candidates the descent's fixed per-call cost dominates")
    expected = ("planner.optimize", "planner.exhaustive_optimum",
                "planner.validate_plan", "planner._candidates",
                "channel.capacity_matrix", "channel.distance_matrix")
    POOL = 160

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        solver_seeds = np.random.default_rng([seed, 3]).integers(0, 2**31, size=self.POOL)
        self.pool = [(int(s), synth.random_scenario(k, max_nodes=5, max_subchannels=4))
                     for k, s in enumerate(solver_seeds)]

    def run(self, item) -> OracleOutcome:
        seed, scenario = item
        plan = planner.optimize(scenario, planner.SolverConfig(seed=seed))
        oracle = planner.exhaustive_optimum(scenario)
        issues = planner.validate_plan(plan, scenario)
        return OracleOutcome(plan, oracle, issues)

    def check(self, item, out: OracleOutcome, ref) -> list[str]:
        return check_oracle(out, item[1], ref)

    def oracle_match(self, item, out: OracleOutcome) -> bool:
        return _same_average(out.plan.avg_delay_s, out.oracle.avg_delay_s)


class CodecStream(Workload):
    """Rate control, container round trip, decode and PSNR per RGB frame."""

    name = "codec_stream"
    why = ("the only workload on the frame container and refine_model; rate "
           "control dominates and both codec paths run")
    expected = ("codec.rate_control", "codec.encode", "codec.serialize_frame",
                "codec.deserialize_frame", "codec.decode", "metrics.psnr",
                "metrics.mse", "codec.refine_model")
    POOL = 24
    SIDE = 192
    RATIOS = (0.15, 0.25, 0.35, 0.45, 0.55, 0.65)
    REFINE_STRIDE = 6  # the CLI's default --refine-fraction 1/6

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.frames = codec_frames(seed, self.POOL, self.SIDE)
        self.cfg = codec.CodecConfig()
        self.model = None
        self.pool = [(k, self.RATIOS[k % len(self.RATIOS)]) for k in range(self.POOL)]

    def setup(self) -> None:
        self.model = codec.refine_model(codec.EntropyModel.generic(),
                                        self.frames[::self.REFINE_STRIDE], self.cfg)

    def run(self, item) -> CodecOutcome:
        k, ratio = item
        img = self.frames[k]
        step, frame = codec.rate_control(img, ratio, self.model, self.cfg)
        data = codec.serialize_frame(frame)
        back = codec.deserialize_frame(data, self.model)
        recon = codec.decode(back)
        return CodecOutcome(step, frame, data, back, recon, metrics.psnr(img, recon))

    def check(self, item, out: CodecOutcome, ref) -> list[str]:
        k, ratio = item
        return check_codec(self.frames[k], ratio, self.model, self.cfg, out, ref)


def codec_frames(seed: int, count: int, side: int) -> list[np.ndarray]:
    """A drifting RGB sequence with a different exposure per colour channel."""
    rng = np.random.default_rng([seed, 4])
    dy, dx = (int(v) for v in rng.integers(0, side, size=2))
    gains = rng.uniform(0.8, 1.2, size=3)
    offsets = rng.uniform(-0.08, 0.08, size=3)
    frames = []
    for gray in synth.shifting_sequence(count, side, side):
        gray = np.roll(gray, (dy, dx), axis=(0, 1))
        frames.append(np.clip(gray[:, :, None] * gains + offsets, 0.0, 1.0))
    return frames


WORKLOADS = {cls.name: cls for cls in (FleetSim, PlanLarge, PlanOracle, CodecStream)}


def digest(fingerprints: list[bytes]) -> str:
    """One sha256 over the pool's output fingerprints, in pool order."""
    return hashlib.sha256(b"".join(fingerprints)).hexdigest()
