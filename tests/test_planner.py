import dataclasses
import functools
import itertools
import math
import runpy
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

import v2vsim.planner
from v2vsim.channel import (ChannelParams, Scenario, VehicleNode, _capacity,
                            capacity_matrix)
from v2vsim.errors import InfeasibleError, SizeError, ValidationError
from v2vsim.planner import (GAMMA_MIN, Candidates, CommPlan, _candidates,
                            _check_feasible, _level, _plan_from_selection, average_delay,
                            compression_lower_bound,
                            exhaustive_optimum, optimize,
                            validate_plan)
from v2vsim.synth import random_scenario


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
        assert plan.delays[1, 0] == pytest.approx(lb * 8e6 / caps[1, 0], rel=1e-12)

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
        for i, j, floor in zip(c.src, c.dst, c.ratio_floor):
            a, b = fleet_40.nodes[i], fleet_40.nodes[j]
            dist = np.hypot(a.x - b.x, a.y - b.y)
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
    return _plan_from_selection(scenario, c.take(prefix[:size]))


def forced_first_fleet() -> Scenario:
    """A cut at an infinite delay where a forced ego link comes first in
    row-major order.  The ego is node 1; (0, 1) and (2, 1) are forced, two
    idle pairs cost 0 and every other delay overflows to inf.  A scan that let
    (0, 1) pass the cut a second time would lower the average with the copy."""
    nodes = [VehicleNode(k, 30.0 * k, 0.0) for k in range(4)]
    volumes = np.full((4, 4), 1e300)
    volumes[0, 1], volumes[2, 1] = 1e5, 1e7
    volumes[2, 3] = volumes[3, 2] = 0.0
    np.fill_diagonal(volumes, 0.0)
    params = ChannelParams(total_bandwidth_hz=5e-290, num_subchannels=5,
                           transmit_power_w=0.2, noise_level=1e-9,
                           pathloss_exponent=2.7, reference_distance_m=10.0)
    return Scenario(nodes=nodes, ego_id=1, data_volumes_bits=volumes, channel=params,
                    beta=0.8, min_ego_links=2)


def test_partition_prefix_equals_full_sort_prefix():
    rng = np.random.default_rng(2024)
    cases = dict.fromkeys(("budget == need", "pool within budget", "cut between delays",
                           "cut inside a tie run", "cut at an infinite delay"), 0)
    for fleet in range(400):
        n = 2 + int(149 * rng.random() ** 2)  # 2 to 150 nodes, small ones often
        budget = int(rng.integers(1, 41))
        need = int(rng.integers(1, min(budget, n - 1) + 1))
        narrow = fleet % 4 == 0
        s = random_fleet(rng, n, budget, 0.0 if narrow else float(rng.uniform(0.0, 0.6)),
                         need)
        if narrow:
            # on a channel this narrow a delay is about 1e293; every pair but
            # the ego links and a few others carries so much data that its
            # delay overflows to inf
            huge = rng.random((n, n)) >= budget / (2 * n * n)
            huge[:, s.ego_index] = False
            vols = s.data_volumes_bits * np.where(huge, 1e295, 1.0)
            channel = dataclasses.replace(s.channel, total_bandwidth_hz=budget * 1e-290)
            s = dataclasses.replace(s, data_volumes_bits=vols, channel=channel)

        # the delays the scan cuts: every candidate but the forced ego links
        c = _candidates(s)
        ego = np.flatnonzero(c.dst == s.ego_index)
        forced = ego[np.argsort(c.delay_s[ego], kind="stable")[:need]]
        delays = np.sort(np.delete(c.delay_s, forced))
        extra, pool = budget - need, len(delays)
        cases["budget == need"] += extra == 0
        cases["pool within budget"] += 0 < pool <= extra
        if 0 < extra < pool:
            if np.isinf(delays[extra - 1]):
                cases["cut at an infinite delay"] += 1
            elif delays[extra - 1] == delays[extra]:
                cases["cut inside a tie run"] += 1
            else:
                cases["cut between delays"] += 1

        plan, expected = optimize(s), full_sort_plan(s)
        for name in ("link_matrix", "compression", "rates", "delays"):
            a, b = getattr(plan, name), getattr(expected, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (fleet, name)
        assert plan.avg_delay_s == expected.avg_delay_s, fleet
    assert min(cases.values()) >= 10, cases

    s = forced_first_fleet()
    plan, expected = optimize(s), full_sort_plan(s)
    assert np.isinf(np.sort(_candidates(s).delay_s)[4])
    assert plan.selected_links() == expected.selected_links() == [(0, 1), (2, 1), (2, 3), (3, 2)]
    assert plan.avg_delay_s == expected.avg_delay_s


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


def reference_exhaustive_optimum(scenario: Scenario) -> CommPlan:
    """The oracle as one itertools scan: every set of max(1, need) ..
    min(budget, K) candidates in combinations order, sums by ``sum()``, and
    the first strictly lower average wins."""
    if len(scenario.nodes) < 2:
        raise InfeasibleError("planning needs at least two nodes")
    candidates = _candidates(scenario)
    _check_feasible(scenario, candidates)
    if len(candidates) > 20:
        raise SizeError(
            f"{len(candidates)} candidate links exceed the enumeration cap of 20")
    budget = scenario.channel.num_subchannels
    need = scenario.min_ego_links
    delays = candidates.delay_s.tolist()
    inbound = (candidates.dst == scenario.ego_index).tolist()
    best_sel, best_avg = None, math.inf
    for size in range(max(1, need), min(budget, len(candidates)) + 1):
        for combo in itertools.combinations(range(len(candidates)), size):
            if sum(inbound[k] for k in combo) < need:
                continue
            avg = sum(delays[k] for k in combo) / size
            if avg < best_avg:
                best_sel, best_avg = combo, avg
    if best_sel is None:
        raise InfeasibleError("no feasible link selection exists")
    return _plan_from_selection(scenario, candidates.take(list(best_sel)))


def oracle_outcome(oracle, scenario: Scenario):
    """A plan's arrays as bytes plus the repr of its average, or the error."""
    try:
        plan = oracle(scenario)
    except (InfeasibleError, SizeError) as exc:
        return type(exc), str(exc)
    return (plan.link_matrix.tobytes(), plan.compression.tobytes(),
            plan.rates.tobytes(), plan.delays.tobytes(), repr(plan.avg_delay_s))


def square_fleet(budget: int, need: int) -> Scenario:
    """Four corners of a square and its centre: the two diagonals are so long
    that their capacity rounds to 0, leaving 16 candidates; about 30% of the
    pairs send nothing."""
    xy = [(0.0, 0.0), (100.0, 100.0), (-100.0, 100.0), (-100.0, -100.0),
          (100.0, -100.0)]
    rng = np.random.default_rng(16)
    volumes = rng.uniform(1e5, 2e7, size=(5, 5))
    volumes[rng.random((5, 5)) < 0.3] = 0.0
    np.fill_diagonal(volumes, 0.0)
    params = ChannelParams(total_bandwidth_hz=20e6, num_subchannels=budget,
                           transmit_power_w=1.0, noise_level=1e-18,
                           pathloss_exponent=24.0, reference_distance_m=10.0)
    return Scenario(nodes=[VehicleNode(k, x, y) for k, (x, y) in enumerate(xy)],
                    ego_id=0, data_volumes_bits=volumes, channel=params, beta=0.8,
                    min_ego_links=need)


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

    def test_equals_itertools_scan_byte_for_byte(self):
        fleets = [random_scenario(seed, max_nodes=5, max_subchannels=4)
                  for seed in range(300)]
        fleets += [random_scenario(seed, max_nodes=5, max_subchannels=8)
                   for seed in range(300, 330)]
        rng = np.random.default_rng(14)
        for budget, need in ((3, 1), (5, 2), (8, 3), (12, 1)):
            fleets.append(random_fleet(rng, 4, budget, 0.6, need))  # idle-pair ties
            idle = random_fleet(rng, 4, budget, 0.0, need)
            fleets.append(Scenario(nodes=idle.nodes, ego_id=0,  # every size ties at 0
                                   data_volumes_bits=np.zeros((4, 4)),
                                   channel=idle.channel, beta=0.8, min_ego_links=need))
        fleets.append(square_fleet(16, 2))
        assert len(_candidates(fleets[-1])) == 16
        # the cap: 20 candidates, every size up to 20, idle-pair ties at delay 0
        fleets.append(random_fleet(np.random.default_rng(20), 5, 20, 0.3, 2))
        assert len(_candidates(fleets[-1])) == 20
        for k, s in enumerate(fleets):
            expected = oracle_outcome(reference_exhaustive_optimum, s)
            assert isinstance(expected[0], bytes), (k, expected)
            assert oracle_outcome(exhaustive_optimum, s) == expected, k

    def test_equal_errors_on_infeasible_fleets(self, basic_params):
        far = Scenario(nodes=[VehicleNode(0, 0.0, 0.0), VehicleNode(1, 1e200, 0.0),
                              VehicleNode(2, 1e200, 10.0)],
                       ego_id=0, data_volumes_bits=np.zeros((3, 3)),
                       channel=basic_params, beta=0.8, min_ego_links=1)
        # a bandwidth so small that every loaded link takes infinitely long
        slow = random_fleet(np.random.default_rng(3), 3, 4, 0.0, 1)
        slow = Scenario(nodes=slow.nodes, ego_id=0, data_volumes_bits=slow.data_volumes_bits,
                        channel=ChannelParams(total_bandwidth_hz=1e-318, num_subchannels=4,
                                              transmit_power_w=0.2, noise_level=1e-9,
                                              pathloss_exponent=2.7,
                                              reference_distance_m=10.0),
                        beta=0.8, min_ego_links=1)
        crowded = random_fleet(np.random.default_rng(6), 6, 4, 0.2, 1)
        lone = Scenario(nodes=[VehicleNode(0, 0.0, 0.0)], ego_id=0,
                        data_volumes_bits=np.zeros((1, 1)), channel=basic_params,
                        beta=0.8)
        errors = set()
        for s in (square_fleet(3, 4), far, slow, crowded, lone):
            expected = oracle_outcome(reference_exhaustive_optimum, s)
            assert oracle_outcome(exhaustive_optimum, s) == expected
            errors.add(expected)
        assert errors == {
            (InfeasibleError, "link budget violated before planning: "
                              "num_subchannels=3 cannot host min_ego_links=4"),
            (InfeasibleError, "ego connectivity: only 0 positive-capacity links "
                              "reach the ego vehicle, min_ego_links=1"),
            (InfeasibleError, "no feasible link selection exists"),
            (SizeError, "30 candidate links exceed the enumeration cap of 20"),
            (InfeasibleError, "planning needs at least two nodes")}

    def test_size_cap(self, basic_params):
        nodes = [VehicleNode(k, 10.0 * k, 0.0) for k in range(6)]
        s = Scenario(nodes=nodes, ego_id=0, data_volumes_bits=np.zeros((6, 6)),
                     channel=basic_params, beta=0.5)
        with pytest.raises(SizeError):
            exhaustive_optimum(s)

    def test_level_tables_follow_combinations_order(self):
        for k in range(1, 11):
            for size in range(1, k + 1):
                parent, last = _level(k, size)
                assert (parent.dtype, last.dtype) == (np.int32, np.int8)
                rows, columns = np.arange(len(last)), []
                for level in range(size, 0, -1):  # walk every row back to the empty set
                    parent, last = _level(k, level)
                    columns.append(last[rows])
                    rows = parent[rows]
                assert not rows.any()
                sets = np.stack(columns[::-1], axis=1).tolist()
                assert sets == [list(c) for c in itertools.combinations(range(k), size)]

    def test_level_tables_are_shared_and_read_only(self):
        parent, last = _level(7, 3)
        assert _level(7, 3)[0] is parent and _level(7, 3)[1] is last
        for table in (parent, last):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1


def overflow_fleet(bandwidth_hz: float, volumes, beta: float = 0.5) -> Scenario:
    """Three nodes on a channel so narrow that some or all delays overflow to inf."""
    params = ChannelParams(total_bandwidth_hz=bandwidth_hz, num_subchannels=3,
                           transmit_power_w=0.2, noise_level=1e-9,
                           pathloss_exponent=2.7, reference_distance_m=10.0)
    return Scenario(nodes=[VehicleNode(0, 0.0, 0.0), VehicleNode(1, 30.0, 0.0),
                           VehicleNode(2, 0.0, 40.0)],
                    ego_id=0, data_volumes_bits=np.array(volumes, dtype=float),
                    channel=params, beta=beta, min_ego_links=1)


ALL_OVERFLOW = (1e-318, [[0, 1e6, 1e6], [1e6, 0, 1e6], [1e6, 1e6, 0]])


class TestOverflowingDelays:
    """An infinite average never wins, in the scan as in the oracle."""

    def test_all_delays_infinite_raise_the_same_error(self):
        s = overflow_fleet(*ALL_OVERFLOW)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isinf(_candidates(s).delay_s).all()
            errors = []
            for solver in (optimize, exhaustive_optimum):
                with pytest.raises(InfeasibleError) as info:
                    solver(s)
                errors.append(str(info.value))
        assert errors == ["no feasible link selection exists"] * 2

    def test_some_delays_infinite_agree_with_the_oracle(self):
        s = overflow_fleet(1e-300, [[0, 1e10, 1e6], [1e6, 0, 1e10], [1e10, 1e6, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            delays = _candidates(s).delay_s
            plan, oracle = optimize(s), exhaustive_optimum(s)
            assert validate_plan(plan, s) == []
        assert np.isinf(delays).any() and np.isfinite(delays).any()
        assert math.isfinite(plan.avg_delay_s) and plan.avg_delay_s > 1e300
        assert plan.avg_delay_s == oracle.avg_delay_s
        assert np.array_equal(plan.link_matrix, oracle.link_matrix)

    def test_finite_delays_summing_past_the_float_range(self):
        # every delay is finite, but a sum of two overflows: both solvers
        # plan without a warning and agree with the itertools scan
        s = overflow_fleet(1e-299, 1e10 * (1 - np.eye(3)), beta=0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(_candidates(s).delay_s).all()
            expected = oracle_outcome(reference_exhaustive_optimum, s)
            assert oracle_outcome(optimize, s) == expected
            assert oracle_outcome(exhaustive_optimum, s) == expected
            plan = optimize(s)
            assert validate_plan(plan, s) == []
        assert plan.selected_links() == [(1, 2), (2, 0)]
        assert plan.avg_delay_s == 7.043443687129068e+307


def reference_distance_matrix(scenario: Scenario) -> np.ndarray:
    """``Scenario.distance_matrix`` as it was written before its in-place
    ``hypot``: broadcast x and y differences, then a fresh ``np.hypot``."""
    x = np.array([node.x for node in scenario.nodes])
    y = np.array([node.y for node in scenario.nodes])
    with np.errstate(over="ignore"):
        return np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])


def reference_gain(distances: np.ndarray, params: ChannelParams) -> np.ndarray:
    """The path gain as the separate gain helper computed it."""
    d0 = params.reference_distance_m
    return params.reference_gain * np.power(d0 / np.maximum(distances, d0),
                                            params.pathloss_exponent)


def reference_capacity_matrix(scenario: Scenario, distances: np.ndarray) -> np.ndarray:
    """``capacity_matrix`` as the expressions of the separate gain and
    capacity helpers, one temporary array per operation."""
    params = scenario.channel
    snr = params.transmit_power_w * reference_gain(distances, params) / params.noise_power_w
    caps = params.subchannel_bandwidth_hz * np.log2(1.0 + snr)
    np.fill_diagonal(caps, 0.0)
    return caps


def reference_candidates(scenario: Scenario) -> Candidates:
    """_candidates from the reference matrices, by a 2-D ``np.nonzero`` and
    three 2-D fancy gathers, with the ratio floors and the delays as fresh
    expressions."""
    dists = reference_distance_matrix(scenario)
    caps = reference_capacity_matrix(scenario, dists)
    src, dst = np.nonzero(caps > 0.0)
    cap = caps[src, dst]
    dist = dists[src, dst]
    floor = np.maximum(scenario.beta * np.exp(-dist / scenario.distance_scale_m), GAMMA_MIN)
    with np.errstate(over="ignore"):
        delay = floor * scenario.data_volumes_bits[src, dst] / cap
    return Candidates(src, dst, cap, floor, delay)


def reference_optimize(scenario: Scenario) -> CommPlan:
    """optimize on reference_candidates, with its former pool scan: the
    forced links are NaN in a copy of the delays, ``np.partition`` of that
    copy gives the cut, and ``pool <= cut`` picks the others."""
    c = reference_candidates(scenario)
    _check_feasible(scenario, c)
    budget, need = scenario.channel.num_subchannels, scenario.min_ego_links
    delay = c.delay_s
    ego = np.flatnonzero(c.dst == scenario.ego_index)
    forced = ego[np.argsort(delay[ego], kind="stable")[:need]]
    extra = min(budget, len(c)) - need
    rest = forced[:0]
    if extra:
        pool = delay.copy()
        pool[forced] = np.nan
        cut = np.partition(pool, extra - 1)[extra - 1]
        others = np.flatnonzero(pool <= cut)
        rest = others[np.argsort(pool.take(others), kind="stable")[:extra]]
    prefix = np.concatenate((forced, rest))
    with np.errstate(over="ignore"):
        averages = np.cumsum(delay[prefix])[need - 1:] / np.arange(need, len(prefix) + 1)
    best = int(np.argmin(averages))
    if not math.isfinite(averages[best]):
        raise InfeasibleError("no feasible link selection exists")
    return _plan_from_selection(scenario, c.take(prefix[:need + best]))


def perfbench_like_fleet(rng, n: int, subchannels: int, half_width_m: float) -> Scenario:
    """A fleet drawn as the benchmark's ``_random_fleet`` draws one: the ego
    at the origin, random radio parameters and 20% idle pairs."""
    nodes = [VehicleNode(0, 0.0, 0.0)] + [
        VehicleNode(k, float(rng.uniform(-half_width_m, half_width_m)),
                    float(rng.uniform(-half_width_m, half_width_m))) for k in range(1, n)]
    volumes = rng.uniform(1e5, 2e7, size=(n, n))
    volumes[rng.random((n, n)) < 0.2] = 0.0
    np.fill_diagonal(volumes, 0.0)
    params = ChannelParams(
        total_bandwidth_hz=float(rng.uniform(10e6, 40e6)), num_subchannels=subchannels,
        transmit_power_w=float(rng.uniform(0.1, 1.0)),
        noise_level=float(rng.uniform(1e-10, 1e-8)), noise_mode="literal-power",
        pathloss_exponent=float(rng.uniform(2.0, 3.5)),
        reference_distance_m=float(rng.uniform(5.0, 15.0)), reference_gain=1.0)
    return Scenario(nodes=nodes, ego_id=0, data_volumes_bits=volumes, channel=params,
                    beta=float(rng.uniform(0.5, 0.95)), distance_scale_m=100.0,
                    min_ego_links=int(min(rng.integers(1, 3), subchannels, n - 1)))


def beyond_float_range_fleet() -> Scenario:
    """The ego and node 1 2e308 m apart: their distance is inf."""
    params = ChannelParams(total_bandwidth_hz=20e6, num_subchannels=2,
                           transmit_power_w=0.2, noise_level=1e-9)
    return Scenario(nodes=[VehicleNode(0, -1e308, 0.0), VehicleNode(1, 1e308, 0.0),
                           VehicleNode(2, 0.0, 5.0), VehicleNode(3, 1e308, 8.0)],
                    ego_id=1, data_volumes_bits=1e6 * (1 - np.eye(4)),
                    channel=params, beta=0.5, min_ego_links=1)


@functools.cache
def byte_check_fleets() -> tuple[Scenario, ...]:
    """Fleets on which the in-place candidate and plan passes must equal the
    reference expressions byte for byte."""
    rng = np.random.default_rng(150)
    fleets = [random_scenario(seed, 5, 4) for seed in range(500)]
    fleets += [perfbench_like_fleet(rng, 150, 16, 500.0) for _ in range(3)]
    fleets += [perfbench_like_fleet(rng, 150, 12, 150.0) for _ in range(3)]
    fleets += [perfbench_like_fleet(rng, 300, 12, 500.0)]
    fleets += [far_apart_fleet(), overflow_fleet(*ALL_OVERFLOW),
               overflow_fleet(1e-300, [[0, 1e10, 1e6], [1e6, 0, 1e10], [1e10, 1e6, 0]]),
               overflow_fleet(1e-299, 1e10 * (1 - np.eye(3)), beta=0.8),
               beyond_float_range_fleet()]
    # 90% idle pairs: hundreds of zero delays tie at the cut
    fleets += [random_fleet(np.random.default_rng(k), 60, 8, 0.9, need) for k, need
               in enumerate((1, 2, 3))]
    return tuple(fleets)


def far_apart_fleet() -> Scenario:
    """Two pairs 1e11 m apart: across the gap the gain is about 1e-27, so
    ``1 + snr`` rounds to 1 and the capacity is exactly 0."""
    nodes = [VehicleNode(0, 0.0, 0.0), VehicleNode(1, 30.0, 0.0),
             VehicleNode(2, 1e11, 0.0), VehicleNode(3, 1e11, 40.0)]
    volumes = np.full((4, 4), 1e6)
    np.fill_diagonal(volumes, 0.0)
    params = ChannelParams(total_bandwidth_hz=20e6, num_subchannels=3,
                           transmit_power_w=0.2, noise_level=1e-9,
                           pathloss_exponent=2.7, reference_distance_m=10.0)
    return Scenario(nodes=nodes, ego_id=0, data_volumes_bits=volumes, channel=params,
                    beta=0.8, min_ego_links=1)


def test_candidates_equal_the_2d_gather_bit_for_bit():
    far = far_apart_fleet()
    across = far.distance_matrix()[:2, 2:]
    assert (reference_gain(across, far.channel) > 0).all()
    assert (capacity_matrix(far)[:2, 2:] == 0).all()
    assert len(_candidates(far)) == 4  # only the two links within each pair

    for k, s in enumerate(byte_check_fleets()):
        got, want = _candidates(s), reference_candidates(s)
        for field in ("src", "dst", "capacity_bps", "ratio_floor", "delay_s"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (k, field)


def assert_same_plan(plan: CommPlan, want: CommPlan, label) -> None:
    """The four matrices equal byte for byte, in the same dtype and shape,
    and the averages have the same ``repr``."""
    for name in ("link_matrix", "compression", "rates", "delays"):
        a, b = getattr(plan, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (label, name)
    assert repr(plan.avg_delay_s) == repr(want.avg_delay_s), label


def test_optimize_equals_the_reference_scan_bit_for_bit():
    infeasible = 0
    for k, s in enumerate(byte_check_fleets()):
        got = oracle_outcome(optimize, s)
        assert got == oracle_outcome(reference_optimize, s), k
        if got[0] is InfeasibleError:
            infeasible += 1
            continue
        assert_same_plan(optimize(s), reference_optimize(s), k)
    assert 0 < infeasible < len(byte_check_fleets()) // 2


def test_optimize_working_set_at_300_nodes():
    # the five candidate arrays plus one partitioned copy of the delays; the
    # distance and capacity matrices, the gathered distances and the
    # candidates are dropped in turn
    s = perfbench_like_fleet(np.random.default_rng(300), 300, 12, 500.0)
    optimize(s)
    tracemalloc.start()
    try:
        optimize(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * 300 * 300 * 8


def test_selected_links_are_python_ints_in_row_major_order():
    n = 5
    link = np.zeros((n, n), dtype=int)
    for i, j in ((4, 3), (2, 4), (0, 4), (4, 0), (1, 2)):
        link[i, j] = 1
    plan = CommPlan(link, np.ones((n, n)), link * 1e6, link * 0.5, 0.5)
    links = plan.selected_links()
    assert links == [(0, 4), (1, 2), (2, 4), (4, 0), (4, 3)]
    assert all(type(v) is int for pair in links for v in pair)


def far_pair() -> Scenario:
    """Two nodes 80 km apart, 800 distance scales: exp(d / scale) overflows,
    yet the capacity is positive and the plan selects the link."""
    params = ChannelParams(total_bandwidth_hz=20e6, num_subchannels=1,
                           transmit_power_w=0.2, noise_level=1e-9,
                           pathloss_exponent=2.7, reference_distance_m=10.0)
    return Scenario(nodes=[VehicleNode(0, 0.0, 0.0), VehicleNode(1, 80e3, 0.0)],
                    ego_id=0, data_volumes_bits=np.array([[0.0, 0.0], [1e5, 0.0]]),
                    channel=params, beta=0.8, min_ego_links=1)


def test_validator_passes_a_link_past_the_exponent_range():
    s = far_pair()
    plan = optimize(s)
    assert plan.selected_links() == [(1, 0)]
    assert validate_plan(plan, s) == [] == reference_validate_plan(plan, s)
    # a zero ratio there is reported once, with no 0 * inf warning
    compression = plan.compression.copy()
    compression[1, 0] = 0.0
    bad = dataclasses.replace(plan, compression=compression)
    issues = validate_plan(bad, s)
    assert issues == reference_validate_plan(bad, s)
    assert issues[0] == "compression entries must lie in (0, 1]"
    assert not any("floor" in issue for issue in issues)


def test_validator_reports_a_zero_rate_on_an_idle_link_once(basic_params):
    # 0 / 0 on the selected link raises no warning: the link is reported as
    # having no rate and checked no further
    s = Scenario(nodes=[VehicleNode(0, 0.0, 0.0), VehicleNode(1, 100.0, 0.0)], ego_id=0,
                 data_volumes_bits=np.zeros((2, 2)), channel=basic_params, beta=0.8)
    plan = optimize(s)
    assert plan.selected_links() == [(1, 0)] and plan.delays[1, 0] == 0.0
    plan.rates[1, 0] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        issues = validate_plan(plan, s)
    assert issues == ["link (1,0): rate must be positive on a selected link"]
    assert issues == reference_validate_plan(plan, s)


def test_validator_rejects_a_nan_compression_entry():
    s = random_scenario(3, 5, 4)
    plan = optimize(s)
    plan.compression[0, 0] = math.nan  # off the selected links
    want = ["compression entries must lie in (0, 1]"]
    assert validate_plan(plan, s) == reference_validate_plan(plan, s) == want


def test_whole_number_float_counts_plan_as_ints():
    # 2.0 sub-channels and 2.0 required ego links pass validation as "an
    # integer >= 1" and are stored as 2, so every planner path plans as with 2
    base = random_scenario(3, 5, 4)

    def with_counts(count):
        return dataclasses.replace(
            base, channel=dataclasses.replace(base.channel, num_subchannels=count),
            min_ego_links=count)

    s, s_float = with_counts(2), with_counts(2.0)
    for solve in (optimize, exhaustive_optimum):
        plan, got = solve(s), solve(s_float)
        assert plan.num_links == 2
        assert_same_plan(got, plan, solve)
        assert validate_plan(got, s_float) == validate_plan(plan, s) == []
    assert type(s_float.channel.num_subchannels) is int and type(s_float.min_ego_links) is int


@pytest.mark.parametrize("skew", [1.0, 1.5])
def test_oracle_benchmark_exit_code(monkeypatch, capsys, skew):
    # the script exits 1 when any planner average differs from the oracle's
    optimize_exact = v2vsim.planner.optimize

    def skewed(scenario):
        plan = optimize_exact(scenario)
        return dataclasses.replace(plan, avg_delay_s=plan.avg_delay_s * skew)

    monkeypatch.setattr(v2vsim.planner, "optimize", skewed)
    monkeypatch.setattr("sys.argv", ["run_oracle_benchmark.py", "--instances", "5"])
    script = Path(__file__).parents[1] / "scripts" / "run_oracle_benchmark.py"
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(script), run_name="__main__")
    assert exit_info.value.code == (0 if skew == 1.0 else 1)
    assert "equal to oracle" in capsys.readouterr().out


@pytest.mark.parametrize("count", ["0", "-3"])
def test_oracle_benchmark_rejects_no_instances(monkeypatch, capsys, count):
    monkeypatch.setattr("sys.argv", ["run_oracle_benchmark.py", "--instances", count])
    script = Path(__file__).parents[1] / "scripts" / "run_oracle_benchmark.py"
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(script), run_name="__main__")
    assert exit_info.value.code == 2
    assert "--instances must be >= 1" in capsys.readouterr().err


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


def reference_validate_plan(plan: CommPlan, scenario: Scenario) -> list[str]:
    """validate_plan as a per-link loop: each selected link's distance from a
    scalar ``np.hypot`` and its capacity from a one-element ``_capacity``
    call, as the deleted ``VehicleNode.distance_to`` and ``link_capacity`` did.
    It checks only the link matrix's shape."""
    rel_tol = 1e-9
    issues: list[str] = []
    n = len(scenario.nodes)
    g = plan.link_matrix
    if g.shape != (n, n):
        return [f"link matrix shape {g.shape} does not match scenario size {n}"]
    if np.any(np.diag(g) != 0):
        issues.append("link matrix diagonal must be zero")
    if not np.all(np.isin(g, (0, 1))):
        issues.append("link matrix entries must be binary")
    if not np.all((plan.compression > 0) & (plan.compression <= 1)):
        issues.append("compression entries must lie in (0, 1]")

    budget = scenario.channel.num_subchannels
    if g.sum() > budget:
        issues.append(f"link budget violated: {int(g.sum())} links > {budget} sub-channels")
    ego = scenario.ego_index
    if g[:, ego].sum() < scenario.min_ego_links:
        issues.append(
            f"ego floor violated: {int(g[:, ego].sum())} inbound links < "
            f"{scenario.min_ego_links} required")

    nodes, params = scenario.nodes, scenario.channel
    vols = scenario.data_volumes_bits
    for i, j in zip(*np.nonzero(g)):
        if i == j:
            continue  # reported above as a diagonal entry
        rate = plan.rates[i, j]
        ratio = plan.compression[i, j]
        if rate <= 0:
            issues.append(f"link ({i},{j}): rate must be positive on a selected link")
            continue
        a, b = nodes[i], nodes[j]
        dist = float(np.hypot(a.x - b.x, a.y - b.y))
        cap = float(_capacity(np.array([dist]), params)[0])
        if rate > cap * (1 + rel_tol):
            issues.append(
                f"link ({i},{j}): rate {rate:.6g} exceeds capacity {cap:.6g}")
        try:
            bound = ratio * math.exp(dist / scenario.distance_scale_m)
        except OverflowError:  # the bound is +inf, which passes
            bound = math.inf
        if bound < scenario.beta * (1 - rel_tol):
            issues.append(
                f"link ({i},{j}): compression floor violated "
                f"({bound:.12g} < beta={scenario.beta:.12g})")
        expected = ratio * vols[i, j] / rate
        if plan.delays[i, j] != expected:
            issues.append(
                f"link ({i},{j}): delay {plan.delays[i, j]!r} != ratio*volume/rate {expected!r}")
    try:
        recomputed = average_delay(plan)
    except ValidationError:
        issues.append("plan selects no links")
    else:
        if not math.isclose(plan.avg_delay_s, recomputed, rel_tol=1e-12, abs_tol=1e-15):
            issues.append(
                f"stored average delay {plan.avg_delay_s!r} != recomputed {recomputed!r}")
    return issues


def plant(fault: str, plan: CommPlan, s: Scenario):
    """``plan`` with one fault planted, and the text its report must hold;
    None when the plan has no room for it."""
    link, ratio = plan.link_matrix.copy(), plan.compression.copy()
    rates, delays = plan.rates.copy(), plan.delays.copy()
    avg = plan.avg_delay_s
    selected = plan.selected_links()
    (i, j), (p, q) = selected[0], selected[-1]
    ego = s.ego_index
    if fault == "rate over capacity":
        rates[p, q] *= 1 + 1e-6
        want = "exceeds capacity"
    elif fault == "rate <= 0":
        rates[i, j] = 0.0
        rates[p, q] = -rates[p, q] if (p, q) != (i, j) else 0.0
        want = "rate must be positive"
    elif fault == "rate NaN":
        rates[p, q] = math.nan
        want = "!= ratio*volume/rate"  # NaN arithmetic: the delay no longer matches
    elif fault == "ratio below the floor":
        bound = ratio[p, q] * math.exp(s.distance_matrix()[p, q] / s.distance_scale_m)
        ratio[p, q] *= s.beta / bound / 2
        want = "compression floor violated"
    elif fault == "delay off by one ulp":
        delays[p, q] = np.nextafter(delays[p, q], math.inf)
        want = "!= ratio*volume/rate"
    elif fault == "diagonal entry":
        link[i, i] = 1
        want = "link matrix diagonal must be zero"
    elif fault == "entry of 2":
        link[p, q] = 2
        want = "link matrix entries must be binary"
    elif fault == "link over budget":
        c = _candidates(s)
        for k in range(len(c)):
            a, b = c.src[k], c.dst[k]
            if link.sum() > s.channel.num_subchannels:
                break
            if not link[a, b]:
                link[a, b] = 1
                ratio[a, b], rates[a, b] = c.ratio_floor[k], c.capacity_bps[k]
                delays[a, b] = c.delay_s[k]
        else:
            return None
        avg = float((link * delays).sum() / link.sum())
        want = "link budget violated"
    elif fault == "dropped ego link":
        inbound = [(a, b) for a, b in selected if b == ego]
        for a, b in inbound[s.min_ego_links - 1:]:
            link[a, b], rates[a, b], delays[a, b], ratio[a, b] = 0, 0.0, 0.0, 1.0
        want = "ego floor violated"
    elif fault == "wrong average":
        avg = avg * (1 + 1e-9) + 1e-14  # past both tolerances, even at 0
        want = "stored average delay"
    else:
        raise AssertionError(fault)
    return CommPlan(link, ratio, rates, delays, avg), want


FAULTS = ("rate over capacity", "rate <= 0", "rate NaN", "ratio below the floor",
          "delay off by one ulp", "diagonal entry", "entry of 2", "link over budget",
          "dropped ego link", "wrong average")


def test_validator_reports_what_the_per_link_loop_reports():
    planted = dict.fromkeys(FAULTS, 0)
    for seed in range(300):
        s = random_scenario(seed, max_nodes=5, max_subchannels=4)
        plan = optimize(s)
        assert validate_plan(plan, s) == reference_validate_plan(plan, s) == [], seed
        for fault in FAULTS:
            planted_plan = plant(fault, plan, s)
            if planted_plan is None:
                continue
            bad, want = planted_plan
            issues = validate_plan(bad, s)
            assert issues == reference_validate_plan(bad, s), (seed, fault)
            assert any(want in msg for msg in issues), (seed, fault, issues)
            planted[fault] += 1
        # several faults at once keep the loop's order: three on the last
        # link (rate, floor, delay), a rate of 0 on the first, and two entries
        bad = plant("rate over capacity", plant("ratio below the floor", plan, s)[0], s)[0]
        bad = plant("entry of 2", plant("diagonal entry", bad, s)[0], s)[0]
        bad.rates[plan.selected_links()[0]] = 0.0
        assert validate_plan(bad, s) == reference_validate_plan(bad, s), seed
    assert min(planted.values()) >= 100, planted


@pytest.mark.parametrize("name,field,cut", [
    ("rate", "rates", np.s_[:-1, :-1]),
    ("compression", "compression", np.s_[:-1]),
    ("delay", "delays", np.s_[:, :-1]),
])
def test_validator_rejects_a_matrix_of_the_wrong_shape(name, field, cut):
    s = random_scenario(3, 5, 4)
    plan = optimize(s)
    bad = dataclasses.replace(plan, **{field: getattr(plan, field)[cut]})
    shape = getattr(bad, field).shape
    n = len(s.nodes)
    assert validate_plan(bad, s) == [
        f"{name} matrix shape {shape} does not match scenario size {n}"]
