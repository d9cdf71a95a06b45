"""Command-line surface.

Subcommands: plan, oracle, codec, align, simulate.  Exit codes: 0 success,
2 validation error, 3 infeasible plan or unreachable budget, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from fractions import Fraction
from pathlib import Path

from .codec import (CodecConfig, EntropyModel, decode, deserialize_frame,
                    encode, rate_control, refine_model, serialize_frame)
from .errors import ImageFormatError, InfeasibleError, ParseError, ValidationError
from .fourier import align
from .image_io import read_image, write_image
from .planner import exhaustive_optimum, optimize, validate_plan
from .scenario_io import parse_scenario_document
from .simulate import manifest_for, simulate, write_outputs, write_plan

SEED_HELP = "ignored (the planner is exact); kept so older command lines still run"


def _codec_flags(parser: argparse.ArgumentParser, omit=()) -> None:
    """One flag per CodecConfig field not in ``omit``, typed and defaulted by it."""
    for f in dataclasses.fields(CodecConfig):
        if f.name not in omit:
            parser.add_argument("--" + f.name.replace("_", "-"),
                                type=type(f.default), default=f.default)


def _codec_config(args) -> CodecConfig:
    """CodecConfig from the parsed codec flags; omitted fields keep their default."""
    return CodecConfig(**{f.name: getattr(args, f.name)
                          for f in dataclasses.fields(CodecConfig)
                          if hasattr(args, f.name)})


def _load_scenario(path: str):
    # utf-8-sig drops the byte-order mark some editors put first
    text = Path(path).read_text(encoding="utf-8-sig", errors="surrogateescape")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:  # the first undecodable byte, kept as a surrogate
        line_no = len((text[:exc.start] + "?").splitlines())  # as the parser numbers lines
        raise ParseError(line_no, "not valid UTF-8") from None
    return text, parse_scenario_document(text)


def cmd_plan(args) -> int:
    doc = _load_scenario(args.scenario)[1]  # the text is not kept through planning
    plan = optimize(doc.scenario)
    issues = validate_plan(plan, doc.scenario)
    if issues:
        raise ValidationError("; ".join(issues))
    write_plan(plan, doc.scenario, Path(args.outdir))
    print(f"average delay: {plan.avg_delay_s:.9g} s over {plan.num_links} links")
    return 0


def cmd_oracle(args) -> int:
    doc = _load_scenario(args.scenario)[1]  # the text is not kept through planning
    plan = exhaustive_optimum(doc.scenario)
    write_plan(plan, doc.scenario, Path(args.outdir))
    print(f"optimal average delay: {plan.avg_delay_s:.9g} s over {plan.num_links} links")
    return 0


def _refined_model(args, cfg: CodecConfig) -> EntropyModel:
    model = EntropyModel.generic()
    if args.refine_dir:
        frames = sorted(Path(args.refine_dir).glob("*.p[gp]m"))
        if not frames:
            raise ValidationError(f"no PGM/PPM frames found in {args.refine_dir}")
        try:
            fraction = Fraction(args.refine_fraction)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(
                f"bad refine fraction {args.refine_fraction!r}") from None
        if not (0 < fraction <= 1):
            raise ValidationError("refine fraction must lie in (0, 1]")
        count = max(1, round(fraction * len(frames)))  # evenly spaced from the first
        subset = [read_image(frames[i * len(frames) // count]) for i in range(count)]
        model = refine_model(model, subset, cfg)
    return model


def cmd_encode(args) -> int:
    cfg = _codec_config(args)
    img = read_image(args.image)
    model = _refined_model(args, cfg)
    if args.gamma is not None:
        step, frame = rate_control(img, args.gamma, model, cfg)
        print(f"rate control chose quant_step {step:.6g} "
              f"({frame.bit_count:.1f} bits)")
    else:
        frame = encode(img, cfg, model)
        print(f"encoded at quant_step {cfg.quant_step:.6g} "
              f"({frame.bit_count:.1f} bits)")
    Path(args.out).write_bytes(serialize_frame(frame))
    return 0


def cmd_decode(args) -> int:
    frame = deserialize_frame(Path(args.frame).read_bytes())
    write_image(args.out, decode(frame))
    print(f"decoded {frame.width}x{frame.height} image to {args.out}")
    return 0


def cmd_align(args) -> int:
    src = read_image(args.source)
    tgt = read_image(args.target)
    write_image(args.out, align(src, tgt, args.alpha))
    print(f"aligned {args.source} toward {args.target} (alpha={args.alpha})")
    return 0


def cmd_simulate(args) -> int:
    text, doc = _load_scenario(args.scenario)
    base = Path(args.scenario).parent
    images = {}
    for node_id, rel in doc.image_paths.items():
        path = Path(rel)
        images[node_id] = read_image(path if path.is_absolute() else base / path)
    codec_cfg = _codec_config(args)
    result = simulate(doc.scenario, images, codec_cfg, args.alpha,
                      args.ratio_override)
    manifest = manifest_for(text, codec_cfg, args.alpha, args.ratio_override,
                            scenario_path=str(args.scenario))
    write_outputs(result, doc.scenario, args.outdir, manifest)
    print(f"simulated {result.report.n_links} links; "
          f"avg delay {result.report.avg_delay_s:.9g} s; outputs in {args.outdir}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="v2vsim",
        description="V2V link planning, adaptive compression, and domain alignment")
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="optimize a communication plan")
    p_plan.add_argument("--scenario", required=True)
    p_plan.add_argument("--seed", type=int, help=SEED_HELP)
    p_plan.add_argument("--outdir", default="plan_out")
    p_plan.set_defaults(func=cmd_plan)

    p_oracle = sub.add_parser("oracle", help="exhaustive optimum for small instances")
    p_oracle.add_argument("--scenario", required=True)
    p_oracle.add_argument("--outdir", default="oracle_out")
    p_oracle.set_defaults(func=cmd_oracle)

    p_codec = sub.add_parser("codec", help="encode or decode one image")
    codec_sub = p_codec.add_subparsers(dest="mode", required=True)
    p_enc = codec_sub.add_parser("encode", help="compress an image into a frame container")
    p_enc.add_argument("--image", required=True)
    p_enc.add_argument("--out", required=True)
    p_enc.add_argument("--gamma", type=float,
                       help="compression ratio; triggers rate control")
    p_enc.add_argument("--refine-dir",
                       help="directory of raw frames for model refinement")
    p_enc.add_argument("--refine-fraction", default="1/6",
                       help="fraction of the frames used, rounded to a count >= 1")
    _codec_flags(p_enc)
    p_enc.set_defaults(func=cmd_encode)
    p_dec = codec_sub.add_parser("decode", help="reconstruct an image from a frame container")
    p_dec.add_argument("--frame", required=True)
    p_dec.add_argument("--out", required=True)
    p_dec.set_defaults(func=cmd_decode)

    p_align = sub.add_parser("align", help="align one image to a target's style")
    p_align.add_argument("--source", required=True)
    p_align.add_argument("--target", required=True)
    p_align.add_argument("--alpha", type=float, required=True)
    p_align.add_argument("--out", required=True)
    p_align.set_defaults(func=cmd_align)

    p_sim = sub.add_parser("simulate", help="full plan/compress/align/score run")
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--seed", type=int, help=SEED_HELP)
    p_sim.add_argument("--outdir", required=True)
    p_sim.add_argument("--alpha", type=float, default=0.0)
    p_sim.add_argument("--ratio-override", type=float, default=None)
    _codec_flags(p_sim, omit=("quant_step",))  # rate control picks the step
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (ImageFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
