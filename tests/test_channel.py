import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from v2vsim.channel import (ChannelParams, Scenario, VehicleNode,
                            capacity_matrix, channel_gain, link_capacity)
from v2vsim.errors import ValidationError


def make_params(**overrides):
    base = dict(total_bandwidth_hz=20e6, num_subchannels=4,
                transmit_power_w=0.2, noise_level=1e-9,
                pathloss_exponent=2.7, reference_distance_m=10.0,
                reference_gain=1.0)
    base.update(overrides)
    return ChannelParams(**base)


class TestChannelGain:
    def test_reference_distance_gives_reference_gain(self):
        params = make_params(pathloss_exponent=2.0)
        a = VehicleNode(0, 0.0, 0.0)
        b = VehicleNode(1, 10.0, 0.0)
        assert channel_gain(a, b, params) == 1.0

    def test_double_distance_square_law(self):
        params = make_params(pathloss_exponent=2.0)
        a = VehicleNode(0, 0.0, 0.0)
        b = VehicleNode(1, 20.0, 0.0)
        assert channel_gain(a, b, params) == pytest.approx(0.25, rel=1e-12)

    def test_closed_form_at_37_5_m(self):
        # (10 / 37.5) ** 2.7, evaluated independently once
        params = make_params()
        a = VehicleNode(0, 0.0, 0.0)
        b = VehicleNode(1, 37.5, 0.0)
        assert channel_gain(a, b, params) == pytest.approx(
            0.028191330765839375, rel=1e-12)

    def test_clamps_below_reference_distance(self):
        params = make_params()
        a = VehicleNode(0, 0.0, 0.0)
        b = VehicleNode(1, 2.0, 0.0)
        assert channel_gain(a, b, params) == 1.0

    def test_same_node_rejected(self):
        params = make_params()
        a = VehicleNode(3, 0.0, 0.0)
        b = VehicleNode(3, 5.0, 0.0)
        with pytest.raises(ValidationError):
            channel_gain(a, b, params)

    @given(d1=st.floats(0.0, 500.0), d2=st.floats(0.0, 500.0))
    def test_monotone_in_distance(self, d1, d2):
        params = make_params()
        a = VehicleNode(0, 0.0, 0.0)
        lo, hi = sorted((d1, d2))
        g_near = channel_gain(a, VehicleNode(1, lo, 0.0), params)
        g_far = channel_gain(a, VehicleNode(1, hi, 0.0), params)
        assert g_far <= g_near <= params.reference_gain
        assert g_far > 0


class TestLinkCapacity:
    def test_zero_gain_zero_capacity(self):
        assert link_capacity(0.0, make_params()) == 0.0

    def test_snr_three_doubles_bandwidth(self):
        # (10e6 / 2) * log2(1 + 3) = 10 Mbit/s
        params = make_params(total_bandwidth_hz=10e6, num_subchannels=2,
                             transmit_power_w=3.0, noise_level=1.0)
        assert link_capacity(1.0, params) == pytest.approx(10e6, rel=1e-12)

    def test_closed_form_at_50_m(self):
        params = make_params()
        a = VehicleNode(0, 0.0, 0.0)
        b = VehicleNode(1, 50.0, 0.0)
        gain = channel_gain(a, b, params)
        assert gain == pytest.approx(0.012965252773542098, rel=1e-12)
        assert link_capacity(gain, params) == pytest.approx(
            106531097.2963636, rel=1e-12)

    def test_negative_gain_rejected(self):
        with pytest.raises(ValidationError):
            link_capacity(-0.1, make_params())

    @given(h1=st.floats(1e-9, 1.0), h2=st.floats(1e-9, 1.0))
    def test_strictly_increasing_in_gain(self, h1, h2):
        params = make_params()
        lo, hi = sorted((h1, h2))
        c_lo = link_capacity(lo, params)
        c_hi = link_capacity(hi, params)
        assert c_hi >= c_lo
        if hi > lo * (1 + 1e-9):
            assert c_hi > c_lo

    def test_noise_modes_agree_for_single_subchannel(self):
        # with one sub-channel, density * W equals the literal power W * N0
        psd = make_params(num_subchannels=1, noise_level=1e-15,
                          noise_mode="psd-times-subband")
        literal = make_params(num_subchannels=1, noise_level=1e-15 * 20e6,
                              noise_mode="literal-power")
        for gain in (1.0, 0.3, 0.01):
            assert link_capacity(gain, psd) == pytest.approx(
                link_capacity(gain, literal), rel=1e-12)

    def test_capacity_never_increases_with_distance(self):
        params = make_params()
        a = VehicleNode(0, 0.0, 0.0)
        prev = math.inf
        for d in (5.0, 10.0, 20.0, 40.0, 80.0, 160.0):
            cap = link_capacity(channel_gain(a, VehicleNode(1, d, 0.0), params), params)
            assert cap <= prev
            prev = cap


class TestCapacityMatrix:
    def test_single_node_zero_matrix(self, basic_params):
        s = Scenario(nodes=[VehicleNode(0, 0.0, 0.0)], ego_id=0,
                     data_volumes_bits=np.zeros((1, 1)),
                     channel=basic_params, beta=0.5)
        assert np.array_equal(capacity_matrix(s), np.zeros((1, 1)))

    def test_symmetric_for_symmetric_gains(self, symmetric_three_node):
        caps = capacity_matrix(symmetric_three_node)
        assert np.allclose(caps, caps.T)
        assert caps[1, 0] == caps[2, 0]
        assert np.all(np.diag(caps) == 0)

    def test_composes_from_single_pair_calls(self, basic_params):
        nodes = [VehicleNode(0, 0.0, 0.0), VehicleNode(1, 25.0, 0.0),
                 VehicleNode(2, 50.0, 0.0)]
        s = Scenario(nodes=nodes, ego_id=0,
                     data_volumes_bits=np.zeros((3, 3)),
                     channel=basic_params, beta=0.5)
        caps = capacity_matrix(s)
        for i in range(3):
            for j in range(3):
                if i == j:
                    assert caps[i, j] == 0.0
                else:
                    gain = channel_gain(nodes[i], nodes[j], basic_params)
                    assert caps[i, j] == link_capacity(gain, basic_params)

    def test_every_entry_equals_single_pair_calls(self, fleet_40):
        # the matrix and the scalar calls evaluate one NumPy formula, so they
        # agree bit for bit; math's pow and log2 differ in the last place
        caps = capacity_matrix(fleet_40)
        params = fleet_40.channel
        for i, a in enumerate(fleet_40.nodes):
            for j, b in enumerate(fleet_40.nodes):
                if i != j:
                    assert caps[i, j] == link_capacity(channel_gain(a, b, params), params)


class TestDistanceMatrix:
    def test_every_entry_equals_distance_to(self, fleet_40):
        d = fleet_40.distance_matrix()
        for i, a in enumerate(fleet_40.nodes):
            for j, b in enumerate(fleet_40.nodes):
                assert d[i, j] == a.distance_to(b)


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("total_bandwidth_hz", -1.0),
        ("num_subchannels", 0),
        ("transmit_power_w", 0.0),
        ("noise_level", 0.0),
        ("pathloss_exponent", 1.5),
        ("reference_distance_m", 0.0),
        ("reference_gain", 0.0),
        ("noise_mode", "bogus"),
        ("total_bandwidth_hz", math.nan),
        ("transmit_power_w", math.inf),
        ("noise_level", math.nan),
        ("pathloss_exponent", math.inf),
        ("reference_distance_m", math.inf),
        ("reference_gain", math.nan),
        ("num_subchannels", math.inf),
    ])
    def test_bad_channel_params(self, field, value):
        with pytest.raises(ValidationError):
            make_params(**{field: value})

    def test_scenario_rejects_duplicate_ids(self, basic_params):
        with pytest.raises(ValidationError):
            Scenario(nodes=[VehicleNode(0, 0.0, 0.0), VehicleNode(0, 1.0, 0.0)],
                     ego_id=0, data_volumes_bits=np.zeros((2, 2)),
                     channel=basic_params, beta=0.5)

    def test_scenario_rejects_missing_ego(self, basic_params):
        with pytest.raises(ValidationError):
            Scenario(nodes=[VehicleNode(0, 0.0, 0.0)], ego_id=9,
                     data_volumes_bits=np.zeros((1, 1)),
                     channel=basic_params, beta=0.5)

    def test_scenario_rejects_nonzero_diagonal(self, basic_params):
        with pytest.raises(ValidationError):
            Scenario(nodes=[VehicleNode(0, 0.0, 0.0), VehicleNode(1, 1.0, 0.0)],
                     ego_id=0, data_volumes_bits=np.array([[1.0, 0.0], [0.0, 0.0]]),
                     channel=basic_params, beta=0.5)

    @pytest.mark.parametrize("value", [0, 1.5, math.nan, math.inf])
    def test_scenario_rejects_bad_min_ego_links(self, basic_params, value):
        with pytest.raises(ValidationError, match="min_ego_links"):
            Scenario(nodes=[VehicleNode(0, 0.0, 0.0), VehicleNode(1, 1.0, 0.0)],
                     ego_id=0, data_volumes_bits=np.zeros((2, 2)),
                     channel=basic_params, beta=0.5, min_ego_links=value)

    @pytest.mark.parametrize("beta", [0.0, -0.2, 1.5])
    def test_scenario_rejects_bad_beta(self, basic_params, beta):
        with pytest.raises(ValidationError):
            Scenario(nodes=[VehicleNode(0, 0.0, 0.0), VehicleNode(1, 1.0, 0.0)],
                     ego_id=0, data_volumes_bits=np.zeros((2, 2)),
                     channel=basic_params, beta=beta)

    @pytest.mark.parametrize("field,value", [
        ("x", math.inf), ("y", math.nan), ("volume", math.nan),
        ("volume", math.inf), ("beta", math.nan),
        ("distance_scale_m", math.nan), ("distance_scale_m", math.inf),
    ])
    def test_scenario_rejects_non_finite(self, basic_params, field, value):
        v = {"x": 1.0, "y": 0.0, "volume": 0.0, "beta": 0.5,
             "distance_scale_m": 100.0, field: value}
        volumes = np.zeros((2, 2))
        volumes[1, 0] = v["volume"]
        with pytest.raises(ValidationError):
            Scenario(nodes=[VehicleNode(0, 0.0, 0.0), VehicleNode(1, v["x"], v["y"])],
                     ego_id=0, data_volumes_bits=volumes, channel=basic_params,
                     beta=v["beta"], distance_scale_m=v["distance_scale_m"])
