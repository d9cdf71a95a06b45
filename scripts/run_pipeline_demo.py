#!/usr/bin/env python3
"""End-to-end demo: build a synthetic fleet, write its scenario file and
images, then run the full plan/compress/align/score pipeline through the CLI.

Outputs land in the chosen directory together with the scenario and frames.
The demo runs exactly this command, so repeating it gives byte-identical
outputs in the rerun directory:

    v2vsim simulate --scenario <outdir>/scene.scn --outdir <outdir>/rerun --alpha 0.05
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from v2vsim.channel import ChannelParams, Scenario, VehicleNode
from v2vsim.cli import main as cli_main
from v2vsim.image_io import write_image
from v2vsim.scenario_io import format_scenario
from v2vsim.synth import sine_image


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="demo_out")
    parser.add_argument("--alpha", type=float, default=0.05)
    args = parser.parse_args(argv)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    # one underlying scene, each camera with its own exposure
    scene = sine_image(48, 48, cycles=4.0)
    imgs = {0: scene,
            1: np.clip(scene + 0.2, 0, 1),
            2: np.clip(scene * 0.8 + 0.05, 0, 1)}
    raw_bits = float(scene.size * 8)

    channel = ChannelParams(total_bandwidth_hz=20e6, num_subchannels=2,
                            transmit_power_w=0.2, noise_level=1e-9,
                            pathloss_exponent=2.7, reference_distance_m=10.0)
    scenario = Scenario(
        nodes=[VehicleNode(0, 0.0, 0.0), VehicleNode(1, 55.0, 10.0),
               VehicleNode(2, -40.0, 60.0)],
        ego_id=0,
        data_volumes_bits=np.array([[0.0, 0.0, 0.0],
                                    [raw_bits, 0.0, 0.0],
                                    [raw_bits, 0.0, 0.0]]),
        channel=channel, beta=0.8, min_ego_links=2)

    image_paths = {}
    for node_id, img in imgs.items():
        name = f"node{node_id}.pgm"
        write_image(outdir / name, img)
        image_paths[node_id] = name
    scenario_path = outdir / "scene.scn"
    scenario_path.write_text(format_scenario(scenario, image_paths))

    rc = cli_main(["simulate", "--scenario", str(scenario_path),
                   "--outdir", str(outdir), "--alpha", str(args.alpha)])
    if rc:
        return rc
    with open(outdir / "links.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            print(f"  {row['src']}->{row['dst']}: ratio {float(row['ratio']):.3f}, "
                  f"{float(row['bits']):.0f} bits ({float(row['bpp']):.2f} bpp), "
                  f"psnr {float(row['psnr_db']):.1f} dB, "
                  f"ms-ssim {float(row['ms_ssim']):.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
