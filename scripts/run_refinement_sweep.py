#!/usr/bin/env python3
"""Rate-distortion sweep with and without entropy-model refinement.

Encodes the held-out frames of the drifting synthetic sequence across a grid
of quantization steps and prints PSNR / MS-SSIM / bits-per-pixel rows for the
generic prior versus a model refined on the first frames.
"""

import argparse
import warnings

import numpy as np

from v2vsim.codec import CodecConfig, EntropyModel, decode, encode, refine_model
from v2vsim.metrics import ms_ssim, psnr
from v2vsim.synth import shifting_sequence


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=30)
    parser.add_argument("--train", type=int, default=5)
    parser.add_argument("--steps", type=float, nargs="+",
                        default=[0.005, 0.01, 0.02, 0.04])
    args = parser.parse_args()

    frames = shifting_sequence(num_frames=args.frames)
    training, held_out = frames[:args.train], frames[args.train:]
    generic = EntropyModel.generic()

    print(f"{'step':>7} {'model':>8} {'bpp':>7} {'psnr_db':>8} {'ms_ssim':>8} {'saving':>7}")
    for step in args.steps:
        cfg = CodecConfig(quant_step=step)
        refined = refine_model(generic, training, cfg)
        rows = {}
        for label, model in (("generic", generic), ("refined", refined)):
            bits, quality, similarity = [], [], []
            for frame in held_out:
                coded = encode(frame, cfg, model)
                recon = decode(coded)
                bits.append(coded.bit_count / frame.size)
                quality.append(psnr(frame, recon))
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "image .* supports only", UserWarning)
                    similarity.append(ms_ssim(frame, recon))
            rows[label] = (float(np.mean(bits)), float(np.mean(quality)),
                           float(np.mean(similarity)))
        saving = 1.0 - rows["refined"][0] / rows["generic"][0]
        for label in ("generic", "refined"):
            bpp, quality, similarity = rows[label]
            tag = f"{saving:+.1%}" if label == "refined" else ""
            print(f"{step:7.3f} {label:>8} {bpp:7.3f} {quality:8.2f} "
                  f"{similarity:8.4f} {tag:>7}")


if __name__ == "__main__":
    main()
