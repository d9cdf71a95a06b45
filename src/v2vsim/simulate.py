"""End-to-end scenario driver: plan, compress, align, score, emit reports.

For every selected link the source node's image is rate-controlled to the
plan's compression ratio, decoded, aligned to the ego image's spectral style,
and scored against the original.  All outputs are deterministic functions of
what the manifest records (scenario, codec config, alpha, ratio override),
which is what makes reruns byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__ as _pkg_version
from .channel import Scenario
from .codec import CodecConfig, EntropyModel, rate_control, decode
from .errors import ValidationError
from .fourier import align, check_alpha
from .metrics import QualityReport, REPORT_HEADER, mse, ms_ssim, psnr, _fmt
from .planner import CommPlan, optimize


@dataclass
class LinkRecord:
    """One transmission: plan quantities plus codec and quality outcomes."""

    src: int
    dst: int
    ratio: float
    rate_bps: float
    delay_s: float
    quant_step: float
    bits: float
    bpp: float
    psnr_db: float
    ms_ssim: float
    mse: float


LINKS_HEADER = "src,dst,ratio,rate_bps,delay_s,quant_step,bits,bpp,psnr_db,ms_ssim,mse"


@dataclass
class RunManifest:
    """Everything needed to reproduce a run byte-for-byte."""

    seed: int
    scenario_sha256: str
    codec: dict
    align_alpha: float
    ratio_override: float | None = None
    scenario_path: str = ""
    package_version: str = _pkg_version
    outputs: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


@dataclass
class SimulationResult:
    plan: CommPlan
    report: QualityReport
    links: list[LinkRecord]


def manifest_for(scenario_text: str, seed: int, codec_cfg: CodecConfig,
                 align_alpha: float, ratio_override: float | None = None,
                 scenario_path: str = "") -> RunManifest:
    digest = hashlib.sha256(scenario_text.encode("utf-8")).hexdigest()
    return RunManifest(
        seed=seed,
        scenario_sha256=digest,
        codec=asdict(codec_cfg),
        align_alpha=align_alpha,
        ratio_override=ratio_override,
        scenario_path=scenario_path,
    )


def simulate(scenario: Scenario, images: dict[int, np.ndarray],
             codec_cfg: CodecConfig, align_alpha: float,
             ratio_override: float | None = None) -> SimulationResult:
    """Run the full pipeline once; build its manifest with ``manifest_for``.

    ``images`` maps node ids to arrays.  The orchestration guarantees the
    ratio handed to the codec on each link is exactly the plan's entry for
    that link; ``ratio_override`` rewrites the plan's selected ratios (and
    its delays, which depend on them) before anything is transmitted.  An
    ``align_alpha`` outside [0, 1), NaN included, is rejected before planning.
    """
    check_alpha(align_alpha)
    plan = optimize(scenario)
    if ratio_override is not None:
        if not (0 < ratio_override <= 1):
            raise ValidationError("ratio_override must lie in (0, 1]")
        sel = plan.link_matrix.astype(bool)
        compression = plan.compression.copy()
        compression[sel] = ratio_override
        delays = np.zeros_like(plan.delays)
        delays[sel] = (compression[sel] * scenario.data_volumes_bits[sel]
                       / plan.rates[sel])
        avg = float(delays[sel].sum() / sel.sum())
        plan = CommPlan(plan.link_matrix, compression, plan.rates, delays, avg)

    em = EntropyModel.generic()
    ego = scenario.ego_index
    ego_id = scenario.ego_id
    ego_image = images.get(ego_id)
    if align_alpha > 0 and ego_image is None:
        raise ValidationError(
            f"alignment requested (alpha={align_alpha}) but the ego node "
            f"{ego_id} has no image")

    records: list[LinkRecord] = []
    total_bits = 0.0
    total_pixels = 0
    for i, j in plan.selected_links():
        src_id = scenario.nodes[i].id
        src_img = images.get(src_id)
        if src_img is None:
            raise ValidationError(
                f"link {src_id}->{scenario.nodes[j].id}: source node has no image")
        ratio = float(plan.compression[i, j])
        try:
            step, frame = rate_control(src_img, ratio, em, codec_cfg)
            recon = decode(frame)
            if j == ego and align_alpha > 0 and src_id != ego_id:
                recon = align(recon, ego_image, align_alpha)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # reduced-scale notice per link
                quality = ms_ssim(src_img, recon)
        except Exception as exc:
            # keep the original type so exit-code mapping still works
            exc.args = (f"link {src_id}->{scenario.nodes[j].id}: {exc}",)
            raise
        pixels = src_img.shape[0] * src_img.shape[1]
        records.append(LinkRecord(
            src=src_id, dst=scenario.nodes[j].id, ratio=ratio,
            rate_bps=float(plan.rates[i, j]), delay_s=float(plan.delays[i, j]),
            quant_step=step, bits=frame.bit_count,
            bpp=frame.bit_count / pixels,
            psnr_db=psnr(src_img, recon), ms_ssim=quality,
            mse=mse(src_img, recon)))
        total_bits += frame.bit_count
        total_pixels += pixels

    report = QualityReport(
        avg_delay_s=plan.avg_delay_s,
        n_links=len(records),
        total_bits=total_bits,
        bitrate_bpp=total_bits / total_pixels if total_pixels else math.nan,
        mean_psnr_db=float(np.mean([r.psnr_db for r in records])) if records else math.nan,
        mean_ms_ssim=float(np.mean([r.ms_ssim for r in records])) if records else math.nan,
        mean_mse=float(np.mean([r.mse for r in records])) if records else math.nan,
    )
    return SimulationResult(plan=plan, report=report, links=records)


def plan_matrix_report(plan: CommPlan) -> str:
    """Human-readable matrix dump of a plan.

    At most ``num_subchannels`` links are selected and every other entry of a
    matrix shares the value of its diagonal.  So each block formats
    ``matrix[0, 0]`` once, writes every row as that value repeated, and
    formats only the entries that differ from it, patching them into their
    rows.  Floats are compared by bit pattern, so ``-0.0`` and ``0.0`` (and
    NaN payloads) keep their own text.  The result equals one ``format``
    call per element.
    """
    out = []

    def block(title: str, matrix: np.ndarray, fmt: str) -> None:
        n_rows, n_cols = matrix.shape
        rows = [""] * n_rows
        if matrix.size:
            keys = matrix.view(f"u{matrix.itemsize}") if matrix.dtype.kind == "f" else matrix
            base = format(matrix.flat[0].item(), fmt)
            rows = [" ".join([base] * n_cols)] * n_rows
            patched: dict[int, list[str]] = {}
            r, c = np.nonzero(keys != keys.flat[0])
            for i, j, v in zip(r.tolist(), c.tolist(), matrix[r, c].tolist()):
                patched.setdefault(i, [base] * n_cols)[j] = format(v, fmt)
            for i, cells in patched.items():
                rows[i] = " ".join(cells)
        out.append(title)
        out.extend(rows)
        out.append("")

    block("link matrix", plan.link_matrix, "d")
    block("compression ratios", plan.compression, ".6f")
    block("rates (bit/s)", plan.rates, ".6g")
    block("delays (s)", plan.delays, ".9g")
    out.append(f"average delay (s): {_fmt(plan.avg_delay_s)}")
    return "\n".join(out) + "\n"


PLAN_CSV_HEADER = "src,dst,ratio,rate_bps,delay_s"


def plan_csv(plan: CommPlan, scenario: Scenario) -> str:
    rows = [PLAN_CSV_HEADER]
    for i, j in plan.selected_links():
        rows.append(",".join([
            str(scenario.nodes[i].id), str(scenario.nodes[j].id),
            _fmt(float(plan.compression[i, j])),
            _fmt(float(plan.rates[i, j])),
            _fmt(float(plan.delays[i, j])),
        ]))
    return "\n".join(rows) + "\n"


def write_outputs(result: SimulationResult, scenario: Scenario, outdir,
                  manifest: RunManifest) -> dict[str, str]:
    """Write plan/report/link CSVs plus ``manifest``; returns the path map.

    The manifest is written with that map as its ``outputs``: file names
    relative to the output directory, so an identical run into a different
    directory yields byte-identical files.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "plan_txt": "plan.txt",
        "plan_csv": "plan.csv",
        "links_csv": "links.csv",
        "report_csv": "report.csv",
        "manifest": "manifest.json",
    }
    (outdir / "plan.txt").write_bytes(plan_matrix_report(result.plan).encode())
    (outdir / "plan.csv").write_bytes(plan_csv(result.plan, scenario).encode())
    links_rows = [LINKS_HEADER]
    for r in result.links:
        links_rows.append(",".join([
            str(r.src), str(r.dst), _fmt(r.ratio), _fmt(r.rate_bps),
            _fmt(r.delay_s), _fmt(r.quant_step), _fmt(r.bits), _fmt(r.bpp),
            _fmt(r.psnr_db), _fmt(r.ms_ssim), _fmt(r.mse)]))
    (outdir / "links.csv").write_bytes(("\n".join(links_rows) + "\n").encode())
    report_text = REPORT_HEADER + "\n" + result.report.to_csv_row() + "\n"
    (outdir / "report.csv").write_bytes(report_text.encode())
    manifest = replace(manifest, outputs=paths)
    (outdir / "manifest.json").write_bytes(manifest.to_json().encode())
    return paths
