import math

import numpy as np
import pytest

from v2vsim.channel import ChannelParams, Scenario, VehicleNode


@pytest.fixture
def basic_params():
    return ChannelParams(
        total_bandwidth_hz=20e6,
        num_subchannels=4,
        transmit_power_w=0.2,
        noise_level=1e-9,
        pathloss_exponent=2.7,
        reference_distance_m=10.0,
        reference_gain=1.0,
    )


@pytest.fixture
def two_node_scenario(basic_params):
    params = ChannelParams(
        total_bandwidth_hz=basic_params.total_bandwidth_hz,
        num_subchannels=1,
        transmit_power_w=basic_params.transmit_power_w,
        noise_level=basic_params.noise_level,
        pathloss_exponent=basic_params.pathloss_exponent,
        reference_distance_m=basic_params.reference_distance_m,
    )
    return Scenario(
        nodes=[VehicleNode(0, 0.0, 0.0), VehicleNode(1, 30.0, 40.0)],
        ego_id=0,
        data_volumes_bits=np.array([[0.0, 4e6], [8e6, 0.0]]),
        channel=params,
        beta=0.9,
        min_ego_links=1,
    )


@pytest.fixture
def symmetric_three_node(basic_params):
    params = ChannelParams(
        total_bandwidth_hz=basic_params.total_bandwidth_hz,
        num_subchannels=2,
        transmit_power_w=basic_params.transmit_power_w,
        noise_level=basic_params.noise_level,
        pathloss_exponent=basic_params.pathloss_exponent,
        reference_distance_m=basic_params.reference_distance_m,
    )
    return Scenario(
        nodes=[VehicleNode(0, 0.0, 0.0),
               VehicleNode(1, 50.0, 0.0),
               VehicleNode(2, -50.0, 0.0)],
        ego_id=0,
        data_volumes_bits=np.array([[0.0, 0.0, 0.0],
                                    [5e6, 0.0, 0.0],
                                    [5e6, 0.0, 0.0]]),
        channel=params,
        beta=0.8,
        min_ego_links=2,
    )


@pytest.fixture
def fleet_40(basic_params):
    """A seeded 40-node fleet over 600 m x 600 m with 20% idle pairs."""
    rng = np.random.default_rng(40)
    xy = rng.uniform(-300.0, 300.0, size=(40, 2))
    volumes = rng.uniform(1e5, 2e7, size=(40, 40))
    volumes[rng.random((40, 40)) < 0.2] = 0.0
    np.fill_diagonal(volumes, 0.0)
    return Scenario(
        nodes=[VehicleNode(k, float(x), float(y)) for k, (x, y) in enumerate(xy)],
        ego_id=0,
        data_volumes_bits=volumes,
        channel=basic_params,
        beta=0.8,
    )


def _fda_full_spectrum(src, tgt, alpha):
    """Full-spectrum FDA (Yang & Soatto 2020), independent of ``v2vsim.fourier``.

    On the DC-centred ``fftshift(fft2)`` spectrum, every bin (r, c) with
    |r - H//2| <= floor(alpha * H) and |c - W//2| <= floor(alpha * W) takes the
    target's amplitude (no bin at alpha 0), every other bin keeps the
    source's, and all keep the source's phase.  Returns the real part of the
    inverse transform and the mixed, centred amplitude.
    """
    h, w = src.shape[:2]
    rows = np.abs(np.arange(h) - h // 2)[:, None] <= math.floor(alpha * h)
    cols = np.abs(np.arange(w) - w // 2)[None, :] <= math.floor(alpha * w)
    inside = (rows & cols) & (alpha > 0)
    if src.ndim == 3:
        inside = inside[:, :, None]
    src_spec, tgt_spec = (np.fft.fftshift(np.fft.fft2(x, axes=(0, 1)), axes=(0, 1))
                          for x in (src, tgt))
    amp = np.where(inside, np.abs(tgt_spec), np.abs(src_spec))
    field = np.fft.ifftshift(amp * np.exp(1j * np.angle(src_spec)), axes=(0, 1))
    return np.fft.ifft2(field, axes=(0, 1)).real, amp


@pytest.fixture(scope="session")
def fda_reference():
    """``(src, tgt, alpha) -> (image, centred amplitude)``: the full-spectrum
    FDA mix that ``fourier.align`` must reproduce on the half spectrum."""
    return _fda_full_spectrum
