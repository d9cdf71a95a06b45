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
import warnings
from collections.abc import Mapping
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__ as _pkg_version
from .channel import Scenario
from .codec import CodecConfig, EntropyModel, rate_control, decode
from .errors import ValidationError
from .fourier import align, check_alpha
from .metrics import mse, ms_ssim, psnr_of_mse
from .planner import CommPlan, optimize


@dataclass
class PlanLink:
    """One selected link of a plan: a row of ``plan.csv``."""

    src: int
    dst: int
    ratio: float
    rate_bps: float
    delay_s: float


@dataclass
class LinkRecord(PlanLink):
    """One transmission: the plan's link plus codec and quality outcomes."""

    quant_step: float
    bits: float
    bpp: float
    psnr_db: float
    ms_ssim: float
    mse: float


@dataclass
class QualityReport:
    """Per-run aggregates: the one row of ``report.csv``."""

    avg_delay_s: float
    n_links: int
    total_bits: float
    bitrate_bpp: float
    mean_psnr_db: float
    mean_ms_ssim: float
    mean_mse: float


PLAN_CSV_HEADER = ",".join(f.name for f in fields(PlanLink))
LINKS_HEADER = ",".join(f.name for f in fields(LinkRecord))
REPORT_HEADER = ",".join(f.name for f in fields(QualityReport))
PLAN_TXT_SLICE = 1 << 16  # characters of plan.txt encoded per write


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return format(value, ".12g")


def csv_text(header: str, records) -> str:
    """``header``, then one row per dataclass record: ints as ``str``, every
    other field ``%.12g``, so identical runs give identical bytes."""
    return "\n".join([header, *(",".join(map(_fmt, astuple(r))) for r in records)]) + "\n"


def _plan_links(plan: CommPlan, scenario: Scenario) -> list[PlanLink]:
    """The plan's selected links, in ``selected_links`` order, by node id."""
    ids = [node.id for node in scenario.nodes]
    return [PlanLink(ids[i], ids[j], float(plan.compression[i, j]),
                     float(plan.rates[i, j]), float(plan.delays[i, j]))
            for i, j in plan.selected_links()]


@dataclass
class RunManifest:
    """Everything needed to reproduce a run byte-for-byte."""

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


def manifest_for(scenario_text: str, codec_cfg: CodecConfig,
                 align_alpha: float, ratio_override: float | None = None,
                 scenario_path: str = "") -> RunManifest:
    digest = hashlib.sha256(scenario_text.encode("utf-8")).hexdigest()
    return RunManifest(
        scenario_sha256=digest,
        codec=asdict(codec_cfg),
        align_alpha=align_alpha,
        ratio_override=ratio_override,
        scenario_path=scenario_path,
    )


def simulate(scenario: Scenario, images: Mapping[int, np.ndarray],
             codec_cfg: CodecConfig, align_alpha: float,
             ratio_override: float | None = None) -> SimulationResult:
    """Run the full pipeline once; build its manifest with ``manifest_for``.

    ``images`` maps node ids to arrays: a dict, or any ``Mapping`` such as
    ``image_io.ImageSet``, which builds a frame per lookup.  Each link looks
    up its source frame when it starts and drops it with the reconstruction
    when it ends; the ego frame is looked up only inside a link's align
    step.  The orchestration guarantees the ratio handed to the codec on
    each link is exactly the plan's entry for that link; ``ratio_override``
    rewrites the plan's selected ratios (and its delays, which depend on
    them) before anything is transmitted.  An ``align_alpha`` outside
    [0, 1), NaN included, is rejected before planning.
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
    ego_id = scenario.ego_id
    if align_alpha > 0 and ego_id not in images:
        raise ValidationError(
            f"alignment requested (alpha={align_alpha}) but the ego node "
            f"{ego_id} has no image")

    records: list[LinkRecord] = []
    total_bits = 0.0
    total_pixels = 0
    for link in _plan_links(plan, scenario):
        src_img = images.get(link.src)
        if src_img is None:
            raise ValidationError(f"link {link.src}->{link.dst}: source node has no image")
        try:
            step, frame = rate_control(src_img, link.ratio, em, codec_cfg)
            bits, recon = frame.bit_count, decode(frame)
            del frame  # only its bit count is used from here
            if link.dst == ego_id and align_alpha > 0:
                recon = align(recon, images[ego_id], align_alpha)
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "image .* supports only", UserWarning)
                quality = ms_ssim(src_img, recon)
        except Exception as exc:
            # keep the original type so exit-code mapping still works
            exc.args = (f"link {link.src}->{link.dst}: {exc}",)
            raise
        pixels = src_img.shape[0] * src_img.shape[1]
        err = mse(src_img, recon)
        del src_img, recon  # not held through the next link's rate control
        records.append(LinkRecord(
            **asdict(link), quant_step=step, bits=bits,
            bpp=bits / pixels, psnr_db=psnr_of_mse(err),
            ms_ssim=quality, mse=err))
        total_bits += bits
        total_pixels += pixels

    report = QualityReport(
        avg_delay_s=plan.avg_delay_s,
        n_links=len(records),
        total_bits=total_bits,
        bitrate_bpp=total_bits / total_pixels,
        mean_psnr_db=float(np.mean([r.psnr_db for r in records])),
        mean_ms_ssim=float(np.mean([r.ms_ssim for r in records])),
        mean_mse=float(np.mean([r.mse for r in records])),
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
            flat = np.flatnonzero(keys != keys.flat[0])
            for k, v in zip(flat.tolist(), matrix.take(flat).tolist()):
                i, j = divmod(k, n_cols)
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
    out += [f"average delay (s): {_fmt(plan.avg_delay_s)}", ""]
    return "\n".join(out)


def plan_csv(plan: CommPlan, scenario: Scenario) -> str:
    return csv_text(PLAN_CSV_HEADER, _plan_links(plan, scenario))


def write_plan(plan: CommPlan, scenario: Scenario, outdir: Path) -> None:
    """Write ``plan.txt`` and ``plan.csv`` into ``outdir``, creating it."""
    outdir.mkdir(parents=True, exist_ok=True)
    report = plan_matrix_report(plan)
    with open(outdir / "plan.txt", "wb") as f:  # in slices: no encoded copy of the whole
        for k in range(0, len(report), PLAN_TXT_SLICE):
            f.write(report[k:k + PLAN_TXT_SLICE].encode())
    (outdir / "plan.csv").write_bytes(plan_csv(plan, scenario).encode())


def write_outputs(result: SimulationResult, scenario: Scenario, outdir,
                  manifest: RunManifest) -> dict[str, str]:
    """Write plan/report/link CSVs plus ``manifest``; returns the path map.

    The manifest is written with that map as its ``outputs``: file names
    relative to the output directory, so an identical run into a different
    directory yields byte-identical files.
    """
    outdir = Path(outdir)
    paths = {
        "plan_txt": "plan.txt",
        "plan_csv": "plan.csv",
        "links_csv": "links.csv",
        "report_csv": "report.csv",
        "manifest": "manifest.json",
    }
    write_plan(result.plan, scenario, outdir)
    (outdir / "links.csv").write_bytes(csv_text(LINKS_HEADER, result.links).encode())
    (outdir / "report.csv").write_bytes(csv_text(REPORT_HEADER, [result.report]).encode())
    manifest = replace(manifest, outputs=paths)
    (outdir / "manifest.json").write_bytes(manifest.to_json().encode())
    return paths
