import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

from v2vsim.channel import ChannelParams, Scenario, VehicleNode, capacity_matrix
from v2vsim.errors import InfeasibleError, SizeError, ValidationError
from v2vsim.planner import (CommPlan, _candidates, _plan_from_selection,
                            average_delay, compression_lower_bound,
                            exhaustive_optimum, optimize, transmission_delay,
                            validate_plan)
from v2vsim.synth import random_scenario


class TestTransmissionDelay:
    def test_direct_substitution(self):
        assert transmission_delay(0.5, 8e6, 4e6) == 1.0

    def test_empty_payload(self):
        assert transmission_delay(1.0, 0.0, 1e6) == 0.0

    def test_arithmetic_case(self):
        # 0.3 * 12.8e6 / 5.3e6
        assert transmission_delay(0.3, 12.8e6, 5.3e6) == pytest.approx(
            0.7245283018867924, rel=1e-15)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValidationError):
            transmission_delay(0.5, 1e6, 0.0)

    @given(ratio=st.floats(0.01, 1.0), volume=st.floats(0.0, 1e9),
           rate=st.floats(1.0, 1e9))
    def test_exact_formula(self, ratio, volume, rate):
        assert transmission_delay(ratio, volume, rate) == ratio * volume / rate


class TestCompressionLowerBound:
    def test_zero_distance_returns_beta(self):
        assert compression_lower_bound(0.0, 0.9, 100.0) == 0.9

    def test_far_links_hit_floor(self):
        assert compression_lower_bound(1e6, 0.9, 100.0) == 0.05

    def test_one_scale_length(self):
        # 0.8 * exp(-1)
        assert compression_lower_bound(100.0, 0.8, 100.0) == pytest.approx(
            0.2943035529371539, rel=1e-15)

    @given(dist=st.floats(0.0, 1e4), beta=st.floats(0.01, 1.0))
    def test_always_in_unit_interval(self, dist, beta):
        lb = compression_lower_bound(dist, beta, 100.0)
        assert 0.0 < lb <= 1.0
        # the bound itself satisfies the proximity-quality constraint
        assert lb * math.exp(dist / 100.0) >= beta * (1 - 1e-12)


def plan_of(delays: list[float]) -> CommPlan:
    n = len(delays) + 1
    link = np.zeros((n, n), dtype=int)
    d = np.zeros((n, n))
    for k, delay in enumerate(delays):
        link[k + 1, 0] = 1
        d[k + 1, 0] = delay
    return CommPlan(link, np.ones((n, n)), np.where(link, 1e6, 0.0), d,
                    float(d.sum() / max(link.sum(), 1)))


class TestAverageDelay:
    def test_single_link(self):
        assert average_delay(plan_of([2.0])) == 2.0

    def test_two_links_mean(self):
        assert average_delay(plan_of([1.0, 3.0])) == 2.0

    def test_random_plan_matches_double_loop(self):
        rng = np.random.default_rng(11)
        s = random_scenario(11)
        plan = optimize(s)
        total, count = 0.0, 0
        for i in range(len(s.nodes)):
            for j in range(len(s.nodes)):
                if plan.link_matrix[i, j]:
                    total += plan.delays[i, j]
                    count += 1
        assert average_delay(plan) == pytest.approx(total / count, rel=1e-12)

    def test_empty_plan_rejected(self):
        empty = CommPlan(np.zeros((2, 2), dtype=int), np.ones((2, 2)),
                         np.zeros((2, 2)), np.zeros((2, 2)), math.nan)
        with pytest.raises(ValidationError):
            average_delay(empty)


class TestOptimize:
    def test_two_node_unique_plan(self, two_node_scenario):
        plan = optimize(two_node_scenario)
        oracle = exhaustive_optimum(two_node_scenario)
        # single feasible selection: the collaborator's link into ego
        assert plan.selected_links() == [(1, 0)]
        assert np.array_equal(plan.link_matrix, oracle.link_matrix)
        assert np.array_equal(plan.compression, oracle.compression)
        assert np.array_equal(plan.rates, oracle.rates)
        assert np.array_equal(plan.delays, oracle.delays)
        assert plan.avg_delay_s == oracle.avg_delay_s
        # ratio sits at its lower bound and the delay is the closed form
        dist = 50.0
        lb = compression_lower_bound(dist, 0.9, 100.0)
        assert plan.compression[1, 0] == pytest.approx(lb, rel=1e-12)
        caps = capacity_matrix(two_node_scenario)
        assert plan.delays[1, 0] == pytest.approx(
            transmission_delay(lb, 8e6, caps[1, 0]), rel=1e-12)

    def test_symmetric_collaborators_both_selected(self, symmetric_three_node):
        plan = optimize(symmetric_three_node)
        assert plan.link_matrix[1, 0] == 1 and plan.link_matrix[2, 0] == 1
        assert plan.num_links == 2
        assert plan.delays[1, 0] == pytest.approx(plan.delays[2, 0], rel=1e-12)

    def test_infeasible_budget_names_constraint(self, basic_params):
        params = ChannelParams(total_bandwidth_hz=20e6, num_subchannels=1,
                               transmit_power_w=0.2, noise_level=1e-9)
        s = Scenario(nodes=[VehicleNode(0, 0.0, 0.0), VehicleNode(1, 9.0, 0.0),
                            VehicleNode(2, 0.0, 9.0)],
                     ego_id=0, data_volumes_bits=np.zeros((3, 3)),
                     channel=params, beta=0.5, min_ego_links=2)
        with pytest.raises(InfeasibleError, match="link budget"):
            optimize(s)

    def test_single_node_infeasible(self, basic_params):
        s = Scenario(nodes=[VehicleNode(0, 0.0, 0.0)], ego_id=0,
                     data_volumes_bits=np.zeros((1, 1)),
                     channel=basic_params, beta=0.5)
        with pytest.raises(InfeasibleError):
            optimize(s)

    def test_deterministic_given_seed(self):
        s = random_scenario(21)
        a = optimize(s)
        b = optimize(s)
        assert np.array_equal(a.link_matrix, b.link_matrix)
        assert np.array_equal(a.compression, b.compression)
        assert np.array_equal(a.rates, b.rates)
        assert np.array_equal(a.delays, b.delays)
        assert a.avg_delay_s == b.avg_delay_s

    def test_zero_volume_ties_follow_delay_src_dst_order(self):
        # only the ego links carry data; the cheapest of them is forced in,
        # then idle pairs (delay 0) halve and third the average, taken in
        # (src, dst) order among equal delays
        nodes = [VehicleNode(0, 0.0, 0.0), VehicleNode(1, 60.0, 0.0),
                 VehicleNode(2, 0.0, 40.0), VehicleNode(3, 20.0, 0.0)]
        vols = np.zeros((4, 4))
        vols[1:, 0] = (1e6, 1e6, 1e5)  # node 3's link is the cheapest
        params = ChannelParams(total_bandwidth_hz=20e6, num_subchannels=3,
                               transmit_power_w=0.2, noise_level=1e-9,
                               pathloss_exponent=2.7, reference_distance_m=10.0)
        s = Scenario(nodes=nodes, ego_id=0, data_volumes_bits=vols,
                     channel=params, beta=0.8, min_ego_links=1)
        plan = optimize(s)
        assert plan.selected_links() == [(0, 1), (0, 2), (3, 0)]
        assert plan.avg_delay_s == exhaustive_optimum(s).avg_delay_s
        # with nothing to send every size ties at 0, and the smallest wins
        idle = Scenario(nodes=nodes, ego_id=0, data_volumes_bits=np.zeros((4, 4)),
                        channel=params, beta=0.8, min_ego_links=2)
        assert optimize(idle).selected_links() == [(1, 0), (2, 0)]

    def test_stable_delay_sort_equals_delay_src_dst_lexsort(self, fleet_40):
        # optimize orders candidates with a stable sort on delay alone; that
        # is the (delay, src, dst) order because candidates are row-major
        c = _candidates(fleet_40)
        assert np.count_nonzero(c.delay_s == 0.0) > 100  # tied idle pairs
        assert np.array_equal(np.argsort(c.delay_s, kind="stable"),
                              np.lexsort((c.dst, c.src, c.delay_s)))

    def test_one_distance_matrix_per_optimize(self, fleet_40, monkeypatch):
        expected = capacity_matrix(fleet_40)
        c = _candidates(fleet_40)
        assert np.array_equal(c.capacity_bps, expected[c.src, c.dst])
        assert c.capacity_bps.tobytes() == expected[c.src, c.dst].tobytes()
        calls = []
        original = Scenario.distance_matrix

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Scenario, "distance_matrix", counted)
        optimize(fleet_40)
        assert len(calls) == 1

    def test_scan_equals_oracle_on_500_fleets(self):
        for seed in range(1000, 1500):
            s = random_scenario(seed, max_nodes=5, max_subchannels=4)
            assert optimize(s).avg_delay_s == exhaustive_optimum(s).avg_delay_s, seed

    def test_candidate_floors_equal_scalar_bound(self, fleet_40):
        c = _candidates(fleet_40)
        assert len(c) == 40 * 39
        for i, j, dist, floor in zip(c.src, c.dst, c.distance_m, c.ratio_floor):
            assert dist == fleet_40.nodes[i].distance_to(fleet_40.nodes[j])
            assert floor == compression_lower_bound(dist, fleet_40.beta,
                                                    fleet_40.distance_scale_m)

    @pytest.mark.parametrize("seed", range(0, 40, 7))
    def test_never_violates_constraints(self, seed):
        s = random_scenario(seed)
        plan = optimize(s)
        assert validate_plan(plan, s) == []


def random_fleet(rng, n: int, budget: int, idle_frac: float, need: int) -> Scenario:
    """``n`` nodes over 1 km x 1 km; a share ``idle_frac`` of pairs send nothing."""
    xy = rng.uniform(-500.0, 500.0, size=(n, 2))
    volumes = rng.uniform(1e5, 2e7, size=(n, n))
    volumes[rng.random((n, n)) < idle_frac] = 0.0
    np.fill_diagonal(volumes, 0.0)
    params = ChannelParams(total_bandwidth_hz=20e6, num_subchannels=budget,
                           transmit_power_w=0.2, noise_level=1e-9,
                           pathloss_exponent=2.7, reference_distance_m=10.0)
    return Scenario(nodes=[VehicleNode(k, float(x), float(y)) for k, (x, y) in enumerate(xy)],
                    ego_id=0, data_volumes_bits=volumes, channel=params, beta=0.8,
                    min_ego_links=need)


def full_sort_plan(scenario: Scenario) -> CommPlan:
    """The prefix scan with one stable sort over every candidate."""
    c = _candidates(scenario)
    budget, need = scenario.channel.num_subchannels, scenario.min_ego_links
    order = np.argsort(c.delay_s, kind="stable")
    ego_rank = np.flatnonzero(c.dst[order] == scenario.ego_index)[:need]
    rest = np.delete(order, ego_rank)[:budget - need]
    prefix = np.concatenate((order[ego_rank], rest))
    averages = (np.cumsum(c.delay_s[prefix])[need - 1:]
                / np.arange(need, len(prefix) + 1))
    size = need + int(np.argmin(averages))
    return _plan_from_selection(scenario, c, prefix[:size])


def test_partition_prefix_equals_full_sort_prefix():
    rng = np.random.default_rng(2024)
    cases = dict.fromkeys(("no extra", "pool within budget", "cut between delays",
                           "cut inside a tie run"), 0)
    for fleet in range(300):
        n = 2 + int(149 * rng.random() ** 2)  # 2 to 150 nodes, small ones often
        budget = int(rng.integers(1, 41))
        need = int(rng.integers(1, min(budget, n - 1) + 1))
        s = random_fleet(rng, n, budget, float(rng.uniform(0.0, 0.6)), need)
        plan, expected = optimize(s), full_sort_plan(s)
        for name in ("link_matrix", "compression", "rates", "delays"):
            a, b = getattr(plan, name), getattr(expected, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (fleet, name)
        assert plan.avg_delay_s == expected.avg_delay_s, fleet

        extra, pool = budget - need, n * (n - 1) - need
        delays = np.sort(_candidates(s).delay_s)
        cases["no extra"] += extra == 0
        cases["pool within budget"] += 0 < pool <= extra
        if 0 < extra < pool:
            tied = delays[extra - 1] == delays[extra]
            cases["cut inside a tie run" if tied else "cut between delays"] += 1
    assert min(cases.values()) >= 10, cases


def dinkelbach_average(delay: np.ndarray, inbound: np.ndarray, budget: int,
                       need: int) -> float:
    """Least average delay by Dinkelbach's method, one MILP per iteration.

    Each iteration picks the binary link vector minimizing sum((d - lam) x)
    under the budget and the ego floor, then sets lam to that selection's
    average, recomputed in Python; lam stops falling at the optimum.
    """
    k = len(delay)
    constraints = [LinearConstraint(np.ones((1, k)), ub=budget),
                   LinearConstraint(inbound[None, :].astype(float), lb=need)]
    avg = float(delay.max())  # no selection averages more
    while True:
        lam = avg
        cost = delay - lam
        # unit-scaled, so that HiGHS's absolute tolerances cannot blur delays
        res = milp(cost / (np.abs(cost).max() or 1.0), integrality=np.ones(k),
                   bounds=Bounds(0, 1), constraints=constraints,
                   options={"mip_rel_gap": 0})
        assert res.success, res.message
        chosen = [d for d, x in zip(delay.tolist(), res.x.tolist()) if x > 0.5]
        avg = sum(chosen) / len(chosen)
        if not avg < lam:
            return lam


def test_scan_equals_dinkelbach_milp_beyond_the_oracle():
    rng = np.random.default_rng(5)
    for fleet in range(40):
        n = int(rng.integers(6, 15))  # 30 to 182 candidates
        budget = int(rng.integers(1, 17))
        need = int(rng.integers(1, min(budget, 4) + 1))
        s = random_fleet(rng, n, budget, float(rng.uniform(0.0, 0.5)), need)
        c = _candidates(s)
        assert 30 <= len(c) <= 200
        best = dinkelbach_average(c.delay_s, c.dst == s.ego_index, budget, need)
        assert math.isclose(optimize(s).avg_delay_s, best, rel_tol=1e-12), fleet


class TestExhaustiveOptimum:
    def test_matches_optimize_on_two_nodes(self, two_node_scenario):
        assert (exhaustive_optimum(two_node_scenario).avg_delay_s
                == optimize(two_node_scenario).avg_delay_s)

    def test_dominated_link_excluded(self, basic_params):
        params = ChannelParams(total_bandwidth_hz=20e6, num_subchannels=6,
                               transmit_power_w=0.2, noise_level=1e-9,
                               pathloss_exponent=2.7, reference_distance_m=10.0)
        # node 2 is distant and holds a huge payload: keeping its link would
        # raise the average, so the optimum drops it
        s = Scenario(nodes=[VehicleNode(0, 0.0, 0.0), VehicleNode(1, 15.0, 0.0),
                            VehicleNode(2, 140.0, 0.0)],
                     ego_id=0,
                     data_volumes_bits=np.array([[0.0, 0.0, 0.0],
                                                 [1e5, 0.0, 0.0],
                                                 [5e8, 0.0, 0.0]]),
                     channel=params, beta=0.8, min_ego_links=1)
        plan = exhaustive_optimum(s)
        assert plan.link_matrix[2, 0] == 0
        assert plan.link_matrix[1, 0] == 1

    def test_frozen_four_node_fixture(self):
        # value produced once by this oracle and pinned; guards regressions
        s = random_scenario(100)
        assert len(s.nodes) == 4
        plan = exhaustive_optimum(s)
        assert plan.avg_delay_s == pytest.approx(0.006303611910759878, rel=1e-12)
        assert optimize(s).avg_delay_s == plan.avg_delay_s

    def test_size_cap(self, basic_params):
        nodes = [VehicleNode(k, 10.0 * k, 0.0) for k in range(6)]
        s = Scenario(nodes=nodes, ego_id=0, data_volumes_bits=np.zeros((6, 6)),
                     channel=basic_params, beta=0.5)
        with pytest.raises(SizeError):
            exhaustive_optimum(s)


class TestPlanProperties:
    @pytest.mark.parametrize("seed", [2, 9, 17])
    def test_pointwise_optimality(self, seed):
        # raising any selected ratio or cutting any selected rate never
        # lowers the average delay
        s = random_scenario(seed)
        plan = optimize(s)
        base = average_delay(plan)
        for i, j in plan.selected_links():
            vol = s.data_volumes_bits[i, j]
            worse_ratio = min(1.0, plan.compression[i, j] + 0.1)
            d_up = worse_ratio * vol / plan.rates[i, j]
            assert d_up >= plan.delays[i, j]
            d_slow = plan.compression[i, j] * vol / (plan.rates[i, j] * 0.9)
            assert d_slow >= plan.delays[i, j]
        assert base == plan.avg_delay_s

    def test_volume_scaling_scales_optimum(self):
        s = random_scenario(33)
        scaled = Scenario(nodes=s.nodes, ego_id=s.ego_id,
                          data_volumes_bits=s.data_volumes_bits * 3.0,
                          channel=s.channel, beta=s.beta,
                          distance_scale_m=s.distance_scale_m,
                          min_ego_links=s.min_ego_links)
        base = exhaustive_optimum(s).avg_delay_s
        assert exhaustive_optimum(scaled).avg_delay_s == pytest.approx(
            3.0 * base, rel=1e-12)

    def test_validator_catches_corruption(self):
        s = random_scenario(8)
        plan = optimize(s)
        # rate above capacity
        rates = plan.rates.copy()
        i, j = plan.selected_links()[0]
        rates[i, j] *= 2.0
        bad = CommPlan(plan.link_matrix, plan.compression, rates,
                       plan.delays, plan.avg_delay_s)
        assert any("capacity" in msg for msg in validate_plan(bad, s))
        # compression below its floor
        comp = plan.compression.copy()
        comp[i, j] = 1e-4
        delays = comp * s.data_volumes_bits / np.where(plan.rates > 0, plan.rates, 1.0)
        delays[plan.link_matrix == 0] = 0.0
        bad2 = CommPlan(plan.link_matrix, comp, plan.rates, delays,
                        float(delays[plan.link_matrix == 1].mean()))
        assert any("floor" in msg for msg in validate_plan(bad2, s))
        # too many links
        full = np.ones_like(plan.link_matrix)
        np.fill_diagonal(full, 0)
        caps = capacity_matrix(s)
        d = np.where(full, 1.0 * s.data_volumes_bits / np.where(caps > 0, caps, 1.0), 0.0)
        bad3 = CommPlan(full, np.ones_like(plan.compression), caps, d,
                        float(d[full == 1].mean()))
        if full.sum() > s.channel.num_subchannels:
            assert any("budget" in msg for msg in validate_plan(bad3, s))
