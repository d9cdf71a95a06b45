"""Seeded synthetic scenarios, images, and frame sequences.

Everything here is deterministic given the seed, so experiment scripts and
the verification suite can share the exact same instances.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelParams, Scenario, VehicleNode


def random_scenario(seed: int, max_nodes: int = 4, max_subchannels: int = 4) -> Scenario:
    """A feasible random fleet: ego at the origin, others scattered around it.

    Path gain is strictly positive at any distance, so every pair has
    positive capacity and feasibility only requires num_subchannels >=
    min_ego_links, which the construction guarantees.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_nodes + 1))
    c = int(rng.integers(1, max_subchannels + 1))
    nodes = [VehicleNode(id=0, x=0.0, y=0.0)]
    for node_id in range(1, n):
        nodes.append(VehicleNode(id=node_id,
                                 x=float(rng.uniform(-150, 150)),
                                 y=float(rng.uniform(-150, 150))))
    volumes = rng.uniform(1e5, 2e7, size=(n, n))
    volumes[rng.random((n, n)) < 0.2] = 0.0
    np.fill_diagonal(volumes, 0.0)
    channel = ChannelParams(
        total_bandwidth_hz=float(rng.uniform(10e6, 40e6)),
        num_subchannels=c,
        transmit_power_w=float(rng.uniform(0.1, 1.0)),
        noise_level=float(rng.uniform(1e-10, 1e-8)),
        noise_mode="literal-power",
        pathloss_exponent=float(rng.uniform(2.0, 3.5)),
        reference_distance_m=float(rng.uniform(5.0, 15.0)),
        reference_gain=1.0,
    )
    return Scenario(
        nodes=nodes,
        ego_id=0,
        data_volumes_bits=volumes,
        channel=channel,
        beta=float(rng.uniform(0.5, 0.95)),
        distance_scale_m=100.0,
        min_ego_links=int(min(rng.integers(1, 3), c, n - 1)),
    )


def sine_image(height: int = 32, width: int = 32, cycles: float = 3.0) -> np.ndarray:
    """Product of two low-frequency sinusoids, mid-gray biased."""
    yy = np.arange(height)[:, None] / height
    xx = np.arange(width)[None, :] / width
    img = 0.5 + 0.35 * np.sin(2 * np.pi * cycles * yy) * np.cos(2 * np.pi * cycles * xx)
    return np.clip(img, 0.0, 1.0)


def shifting_sequence(num_frames: int = 30, height: int = 64,
                      width: int = 64) -> list[np.ndarray]:
    """Correlated frame sequence: one textured pattern drifting over time.

    Successive frames are circular shifts of a fixed sinusoid mixture with a
    slow global brightness wobble, mimicking the temporal redundancy of a
    forward-facing camera stream.  Pattern periods line up with 8-pixel
    blocks so frames share transform statistics.
    """
    yy = np.arange(height)[:, None] / height
    xx = np.arange(width)[None, :] / width
    fy = height / 8.0
    fx = width / 8.0
    base = (0.5
            + 0.18 * np.sin(2 * np.pi * fy * yy) * np.cos(2 * np.pi * fx * xx)
            + 0.12 * np.sin(2 * np.pi * 2 * fx * xx)
            + 0.10 * np.cos(2 * np.pi * fy * (yy + xx))
            + 0.06 * np.sin(2 * np.pi * 3 * fy * yy))
    base = np.clip(base, 0.0, 1.0)
    frames = []
    for k in range(num_frames):
        frame = np.roll(base, shift=(2 * k) % height, axis=0)
        frame = np.roll(frame, shift=(3 * k) % width, axis=1)
        frame = np.clip(frame + 0.02 * np.sin(2 * np.pi * k / num_frames), 0.0, 1.0)
        frames.append(frame)
    return frames
