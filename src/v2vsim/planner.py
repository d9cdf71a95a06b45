"""Average-delay minimization over the V2V link matrix and compression ratios.

A feasible plan selects a set of directed links subject to three constraint
families:

* link budget: at most ``num_subchannels`` links may be active in total;
* rate cap: the rate on a selected link may not exceed its sub-channel
  capacity;
* compression floor: the retained-data ratio on a selected link must satisfy
  ``ratio * exp(distance / distance_scale) >= beta`` (closer transmitters
  keep more of their data).

On top of these, the scenario demands at least ``min_ego_links`` inbound
links at the ego vehicle; without that floor the bare objective degenerates
to keeping only the single fastest link.

For a fixed link selection the delay ``ratio * volume / rate`` is increasing
in the ratio and decreasing in the rate, so the pointwise optimum is the
compression floor and the full capacity.  Every candidate link then has a
fixed delay ``d``, and a plan is a set S of links with mean delay
``sum(d) / |S|``, at most ``budget = num_subchannels`` links and at least
``need = min_ego_links`` ego-inbound links.

The solver is exact, by an exchange argument.  Fix the size k and let E be
the ``need`` cheapest ego-inbound links.  Take any feasible S of size k.
While some e in E is missing from S, S holds at most need - 1 links of E but
at least ``need`` ego-inbound links, so it holds an ego-inbound f outside E,
and delay(f) >= delay(e); swapping f for e keeps S feasible and does not
raise its sum.  Once E is inside S, the other k - need links of S come from
the candidates outside E, and the k - need cheapest of those cost no more.
So E plus those links is optimal at size k, and a scan over k <= budget on
one delay ordering, with prefix sums, finds the optimum.  Only the first
``budget`` links of that ordering are ever scanned, so nothing sorts all K
candidates: E comes from the at most n - 1 ego-inbound links, and the rest
from a partition at the ``budget - need``-th smallest delay, which costs O(K),
followed by a sort of the candidates at or below that cut.

Ties: where several link sets reach exactly the same average (in practice
sets that differ in idle pairs, whose zero volume gives delay 0), the plan
is the one the scan meets first: candidates in (delay, src, dst) order, and
the smallest k.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import Scenario, capacity_matrix, channel_gain, link_capacity
from .errors import InfeasibleError, SizeError, ValidationError

GAMMA_MIN = 0.05


@dataclass(frozen=True)
class CommPlan:
    """A communication plan: link selection plus per-link rate/ratio/delay.

    ``link_matrix`` is binary with a zero diagonal.  ``compression`` entries
    all lie in (0, 1] (unselected entries are 1.0 by convention), ``rates``
    and ``delays`` are zero on unselected links.
    """

    link_matrix: np.ndarray
    compression: np.ndarray
    rates: np.ndarray
    delays: np.ndarray
    avg_delay_s: float

    @property
    def num_links(self) -> int:
        return int(self.link_matrix.sum())

    def selected_links(self) -> list[tuple[int, int]]:
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(self.link_matrix))]


@dataclass(frozen=True)
class SolverConfig:
    """Unused by the package: kept only for the benchmark's ``optimize``
    calls under ``perfbench/``.  ``seed`` changes no plan.
    """

    seed: int = 0


def transmission_delay(ratio: float, volume_bits: float, rate_bps: float) -> float:
    """Seconds to move ``ratio * volume_bits`` at ``rate_bps``."""
    if not (0 < ratio <= 1):
        raise ValidationError("compression ratio must lie in (0, 1]")
    if volume_bits < 0:
        raise ValidationError("data volume must be non-negative")
    if rate_bps <= 0:
        raise ValidationError("transmission rate must be positive")
    return ratio * volume_bits / rate_bps


def compression_lower_bound(distance_m: float, beta: float,
                            distance_scale_m: float,
                            floor: float = GAMMA_MIN) -> float:
    """Smallest admissible compression ratio for a link of the given length.

    The proximity-quality constraint demands ``ratio >= beta * exp(-d / scale)``;
    a positive floor keeps the result in (0, 1] even for distant pairs.
    """
    if distance_m < 0:
        raise ValidationError("distance must be non-negative")
    if not (0 < beta <= 1):
        raise ValidationError("beta must lie in (0, 1]")
    if distance_scale_m <= 0:
        raise ValidationError("distance_scale_m must be positive")
    if not (0 < floor <= 1):
        raise ValidationError("floor must lie in (0, 1]")
    return float(_ratio_floor(distance_m, beta, distance_scale_m, floor))


def _ratio_floor(distance_m, beta: float, distance_scale_m: float,
                 floor: float = GAMMA_MIN):
    """``compression_lower_bound`` without checks, for a distance or an array."""
    return np.maximum(beta * np.exp(-distance_m / distance_scale_m), floor)


def average_delay(plan: CommPlan) -> float:
    """Total delay over selected links divided by the selected-link count."""
    count = plan.link_matrix.sum()
    if count == 0:
        raise ValidationError("plan selects no links; average delay undefined")
    return float((plan.link_matrix * plan.delays).sum() / count)


@dataclass(frozen=True, eq=False)
class Candidates:
    """Positive-capacity links as parallel arrays, in row-major (src, dst) order.

    ``delay_s`` is the delay at the pointwise optimum (floor ratio, full
    capacity).
    """

    src: np.ndarray
    dst: np.ndarray
    capacity_bps: np.ndarray
    distance_m: np.ndarray
    ratio_floor: np.ndarray
    delay_s: np.ndarray

    def __len__(self) -> int:
        return len(self.src)


def _candidates(scenario: Scenario) -> Candidates:
    dists = scenario.distance_matrix()
    caps = capacity_matrix(scenario, dists)
    src, dst = np.nonzero(caps > 0.0)  # the diagonal is zero
    cap = caps[src, dst]
    dist = dists[src, dst]
    floor = _ratio_floor(dist, scenario.beta, scenario.distance_scale_m)
    delay = floor * scenario.data_volumes_bits[src, dst] / cap
    return Candidates(src, dst, cap, dist, floor, delay)


def _check_feasible(scenario: Scenario, candidates: Candidates) -> None:
    budget = scenario.channel.num_subchannels
    need = scenario.min_ego_links
    if need > budget:
        raise InfeasibleError(
            f"link budget violated before planning: num_subchannels={budget} "
            f"cannot host min_ego_links={need}")
    inbound = int(np.count_nonzero(candidates.dst == scenario.ego_index))
    if inbound < need:
        raise InfeasibleError(
            f"ego connectivity: only {inbound} positive-capacity links reach "
            f"the ego vehicle, min_ego_links={need}")


def _plan_from_selection(scenario: Scenario, candidates: Candidates,
                         selection) -> CommPlan:
    n = len(scenario.nodes)
    src, dst = candidates.src[selection], candidates.dst[selection]
    link = np.zeros((n, n), dtype=int)
    ratio = np.ones((n, n))
    rates = np.zeros((n, n))
    delays = np.zeros((n, n))
    link[src, dst] = 1
    ratio[src, dst] = candidates.ratio_floor[selection]
    rates[src, dst] = candidates.capacity_bps[selection]
    delays[src, dst] = candidates.delay_s[selection]
    avg = float((link * delays).sum() / link.sum())
    return CommPlan(link, ratio, rates, delays, avg)


def optimize(scenario: Scenario, cfg: SolverConfig | None = None) -> CommPlan:
    """Plan links and compression ratios minimizing the average delay.

    Exact and deterministic (see the module docstring).  ``cfg`` is ignored;
    it stays only for the benchmark's ``optimize(scenario, SolverConfig(...))``
    calls.  Raises InfeasibleError when no selection can satisfy the link
    budget and the ego-link floor.
    """
    if len(scenario.nodes) < 2:
        raise InfeasibleError("planning needs at least two nodes")
    candidates = _candidates(scenario)
    _check_feasible(scenario, candidates)
    budget = scenario.channel.num_subchannels
    need = scenario.min_ego_links

    # candidates come in row-major (src, dst) order, so a stable sort on
    # delay alone orders them by (delay, src, dst)
    delay = candidates.delay_s
    ego = np.flatnonzero(candidates.dst == scenario.ego_index)
    forced = ego[np.argsort(delay[ego], kind="stable")[:need]]
    pool = np.ones(len(candidates), dtype=bool)
    pool[forced] = False
    others = np.flatnonzero(pool)
    extra = budget - need
    if 0 < extra < len(others):
        # keep every candidate up to the extra-th smallest delay, ties included,
        # so the stable sort below still meets them in (delay, src, dst) order
        cut = np.partition(delay[others], extra - 1)[extra - 1]
        others = others[delay[others] <= cut]
    rest = others[np.argsort(delay[others], kind="stable")[:extra]]
    prefix = np.concatenate((forced, rest))
    # average of the first k links for k = need .. len(prefix); argmin keeps
    # the smallest k among equal averages
    averages = (np.cumsum(candidates.delay_s[prefix])[need - 1:]
                / np.arange(need, len(prefix) + 1))
    size = need + int(np.argmin(averages))
    return _plan_from_selection(scenario, candidates, prefix[:size])


def exhaustive_optimum(scenario: Scenario) -> CommPlan:
    """Enumerate every feasible link selection and return the global optimum.

    Verification oracle for :func:`optimize`; refuses instances with more
    than 20 candidate links.
    """
    if len(scenario.nodes) < 2:
        raise InfeasibleError("planning needs at least two nodes")
    candidates = _candidates(scenario)
    _check_feasible(scenario, candidates)
    if len(candidates) > 20:
        raise SizeError(
            f"{len(candidates)} candidate links exceed the enumeration cap of 20")
    budget = scenario.channel.num_subchannels
    need = scenario.min_ego_links
    ego = scenario.ego_index

    delays = candidates.delay_s.tolist()
    inbound = (candidates.dst == ego).tolist()
    best_sel: tuple[int, ...] | None = None
    best_avg = math.inf
    max_size = min(budget, len(candidates))
    for size in range(max(1, need), max_size + 1):
        for combo in itertools.combinations(range(len(candidates)), size):
            if sum(inbound[k] for k in combo) < need:
                continue
            avg = sum(delays[k] for k in combo) / size
            if avg < best_avg:
                best_sel, best_avg = combo, avg
    if best_sel is None:
        raise InfeasibleError("no feasible link selection exists")
    return _plan_from_selection(scenario, candidates, list(best_sel))


def validate_plan(plan: CommPlan, scenario: Scenario,
                  rel_tol: float = 1e-9) -> list[str]:
    """Independently re-derive every constraint and report violations.

    Capacities, distances and ratio floors of the selected links are
    recomputed from the scenario rather than trusted from the plan.  Returns
    a list of human-readable violation strings; an empty list means the plan
    is valid.  ``rel_tol`` absorbs float round-off in the exponential bound
    and the rate cap.
    """
    issues: list[str] = []
    n = len(scenario.nodes)
    g = plan.link_matrix
    if g.shape != (n, n):
        return [f"link matrix shape {g.shape} does not match scenario size {n}"]
    if np.any(np.diag(g) != 0):
        issues.append("link matrix diagonal must be zero")
    if not np.all(np.isin(g, (0, 1))):
        issues.append("link matrix entries must be binary")
    if np.any(plan.compression <= 0) or np.any(plan.compression > 1):
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
        cap = link_capacity(channel_gain(nodes[i], nodes[j], params), params)
        dist = nodes[i].distance_to(nodes[j])
        if rate > cap * (1 + rel_tol):
            issues.append(
                f"link ({i},{j}): rate {rate:.6g} exceeds capacity {cap:.6g}")
        bound = ratio * math.exp(dist / scenario.distance_scale_m)
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
