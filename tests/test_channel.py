import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from v2vsim.channel import (ChannelParams, Scenario, VehicleNode, _capacity,
                            capacity_matrix)
from v2vsim.errors import ValidationError
from v2vsim.planner import CommPlan, validate_plan


def make_params(**overrides):
    base = dict(total_bandwidth_hz=20e6, num_subchannels=4,
                transmit_power_w=0.2, noise_level=1e-9,
                pathloss_exponent=2.7, reference_distance_m=10.0,
                reference_gain=1.0)
    base.update(overrides)
    return ChannelParams(**base)


def pair_distances(nodes, src, dst) -> np.ndarray:
    """Distances of the pairs (src[k], dst[k]) as one array, from Python-float
    coordinate differences, as ``validate_plan`` gathers its selected links."""
    dx = np.array([nodes[i].x - nodes[j].x for i, j in zip(src, dst)])
    dy = np.array([nodes[i].y - nodes[j].y for i, j in zip(src, dst)])
    return np.hypot(dx, dy)


def pair_capacities(nodes, src, dst, params) -> np.ndarray:
    return _capacity(pair_distances(nodes, src, dst), params)


def gain_at(distances, params) -> np.ndarray:
    """The path gain behind ``_capacity`` at each distance, recovered by
    inverting the Shannon formula (exact to about 1e-14 relative)."""
    snr = np.exp2(_capacity(np.array(distances, dtype=float), params)
                  / params.subchannel_bandwidth_hz) - 1.0
    return snr * params.noise_power_w / params.transmit_power_w


def distance_at_gain(gain: float, params) -> float:
    """The distance at which the path gain is ``gain`` (reference_gain 1)."""
    return params.reference_distance_m * gain ** (-1.0 / params.pathloss_exponent)


def line_scenario(distances, params) -> Scenario:
    """The ego at the origin and one node at each distance along the x axis."""
    nodes = [VehicleNode(0, 0.0, 0.0)] + [VehicleNode(k + 1, float(d), 0.0)
                                          for k, d in enumerate(distances)]
    n = len(nodes)
    return Scenario(nodes=nodes, ego_id=0, data_volumes_bits=np.zeros((n, n)),
                    channel=params, beta=0.5)


class TestChannelGain:
    def test_reference_distance_gives_reference_gain(self):
        # at the reference distance the chain's gain is exactly reference_gain
        params = make_params(pathloss_exponent=2.0, reference_gain=0.5)
        snr = params.transmit_power_w * params.reference_gain / params.noise_power_w
        peak = params.subchannel_bandwidth_hz * np.log2(1.0 + snr)
        assert _capacity(np.array([10.0]), params).tolist() == [peak]
        assert gain_at([10.0], params)[0] == pytest.approx(0.5, rel=1e-12)

    def test_double_distance_square_law(self):
        params = make_params(pathloss_exponent=2.0)
        assert gain_at([20.0], params)[0] == pytest.approx(0.25, rel=1e-12)

    def test_closed_form_at_37_5_m(self):
        # (10 / 37.5) ** 2.7, evaluated independently once
        params = make_params()
        assert gain_at([37.5], params)[0] == pytest.approx(
            0.028191330765839375, rel=1e-12)

    def test_clamps_below_reference_distance(self):
        params = make_params()
        at_reference = _capacity(np.array([10.0]), params)[0]
        assert _capacity(np.array([2.0, 0.0, 9.999]), params).tolist() == [at_reference] * 3

    def test_same_node_rejected(self):
        # a node paired with itself gets no capacity, even at the reference
        # gain, and a plan that selects it fails validation
        params = make_params()
        s = line_scenario([0.0, 5.0], params)
        caps = capacity_matrix(s)
        assert caps[1, 0] == _capacity(np.array([0.0]), params)[0] > 0
        assert caps.diagonal().tolist() == [0.0, 0.0, 0.0]
        link = np.zeros((3, 3), dtype=int)
        link[1, 0] = link[1, 1] = 1
        rates = np.where(link, caps[1, 0], 0.0)
        plan = CommPlan(link, np.ones((3, 3)), rates, np.zeros((3, 3)), 0.0)
        assert validate_plan(plan, s) == ["link matrix diagonal must be zero"]

    @given(d1=st.floats(0.0, 500.0), d2=st.floats(0.0, 500.0))
    def test_monotone_in_distance(self, d1, d2):
        params = make_params()
        c_near, c_far = _capacity(np.array(sorted((d1, d2))), params)
        assert c_far <= c_near <= _capacity(np.array([0.0]), params)[0]
        assert c_far > 0


class TestLinkCapacity:
    def test_zero_gain_zero_capacity(self):
        # an infinitely distant node has gain 0
        assert _capacity(np.array([math.inf]), make_params()).tolist() == [0.0]

    def test_snr_three_doubles_bandwidth(self):
        # (10e6 / 2) * log2(1 + 3) = 10 Mbit/s at gain 1
        params = make_params(total_bandwidth_hz=10e6, num_subchannels=2,
                             transmit_power_w=3.0, noise_level=1.0)
        assert _capacity(np.array([0.0]), params)[0] == pytest.approx(10e6, rel=1e-12)

    def test_closed_form_at_50_m(self):
        params = make_params()
        assert gain_at([50.0], params)[0] == pytest.approx(0.012965252773542098, rel=1e-12)
        cap = capacity_matrix(line_scenario([50.0], params))[1, 0]
        assert cap == _capacity(np.array([50.0]), params)[0]
        assert cap == pytest.approx(106531097.2963636, rel=1e-12)

    @given(h1=st.floats(1e-9, 1.0), h2=st.floats(1e-9, 1.0))
    def test_strictly_increasing_in_gain(self, h1, h2):
        params = make_params()
        lo, hi = sorted((h1, h2))
        c_lo, c_hi = _capacity(np.array([distance_at_gain(lo, params),
                                         distance_at_gain(hi, params)]), params)
        assert c_hi >= c_lo
        if hi > lo * (1 + 1e-9):
            assert c_hi > c_lo

    def test_noise_modes_agree_for_single_subchannel(self):
        # with one sub-channel, density * W equals the literal power W * N0
        psd = make_params(num_subchannels=1, noise_level=1e-15,
                          noise_mode="psd-times-subband")
        literal = make_params(num_subchannels=1, noise_level=1e-15 * 20e6,
                              noise_mode="literal-power")
        distances = np.array([10.0, 15.6, 55.0])
        assert _capacity(distances, psd) == pytest.approx(_capacity(distances, literal),
                                                          rel=1e-12)

    def test_capacity_never_increases_with_distance(self):
        caps = capacity_matrix(line_scenario([5.0, 10.0, 20.0, 40.0, 80.0, 160.0],
                                             make_params()))
        inbound = caps[1:, 0]
        assert np.all(np.diff(inbound) <= 0) and inbound[-1] > 0


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
                    pair = pair_capacities(nodes, [i], [j], basic_params)
                    assert caps[i, j].tobytes() == pair.tobytes()

    def test_every_entry_equals_single_pair_calls(self, fleet_40):
        # the matrix and a gather of any pairs evaluate one NumPy formula, so
        # they agree bit for bit; math's pow and log2 differ in the last place
        caps = capacity_matrix(fleet_40)
        params, nodes = fleet_40.channel, fleet_40.nodes
        src, dst = np.nonzero(~np.eye(len(nodes), dtype=bool))
        assert caps[src, dst].tobytes() == pair_capacities(nodes, src, dst, params).tobytes()
        for i, j in zip(src[::37], dst[::37]):  # a pair alone gives the same bits
            assert caps[i, j] == pair_capacities(nodes, [i], [j], params)[0]


class TestDistanceMatrix:
    def test_every_entry_equals_pair_hypot(self, fleet_40):
        d = fleet_40.distance_matrix()
        n = len(fleet_40.nodes)
        src, dst = np.divmod(np.arange(n * n), n)
        assert d.ravel().tobytes() == pair_distances(fleet_40.nodes, src, dst).tobytes()
        for i, j in ((0, 1), (7, 3), (39, 0), (5, 5)):
            a, b = fleet_40.nodes[i], fleet_40.nodes[j]
            assert d[i, j] == np.hypot(a.x - b.x, a.y - b.y)


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

    @pytest.mark.parametrize("overrides", [
        {"noise_level": 1e-320},  # P * g_ref / N overflows in the divide
        {"noise_level": 5e-324},
        {"transmit_power_w": 1e308, "noise_level": 1e-9},
        {"transmit_power_w": 1e308, "reference_gain": 10.0},  # P * g_ref itself overflows
        {"total_bandwidth_hz": 1e308},  # (W / c) * log2(1 + snr) overflows
        # the noise density times the sub-band underflows to 0
        {"noise_level": 1e-320, "noise_mode": "psd-times-subband", "total_bandwidth_hz": 1e-5},
    ])
    def test_overflowing_peak_capacity_rejected(self, overrides):
        with pytest.raises(ValidationError, match="peak SNR"):
            make_params(**overrides)

    def test_finite_peak_capacity_accepted_without_warnings(self):
        # a peak SNR of 2e307 is accepted, and every capacity is finite
        params = make_params(noise_level=1e-308)
        caps = capacity_matrix(line_scenario([0.0, 10.0, 1e5], params))
        assert np.isfinite(caps).all() and caps[1, 0] == caps.max() > 5e9

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
