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
