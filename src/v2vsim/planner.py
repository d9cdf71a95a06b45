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
from one partition of the K delays (E's set to NaN, which sorts last) at the
``budget - need``-th smallest delay, which costs O(K), followed by a sort of
the candidates at or below that cut.  Every pass over the n x n matrices
finds its entries by flat index, row-major.

Memory, in n x n float64 arrays: ``_candidates`` drops the distance and
capacity matrices once gathered and the distances once it has the floors;
``optimize`` partitions one copy of the delays in place and drops the
candidates before it builds the plan's four matrices.  Each peaks at about 6.

Ties: where several link sets reach exactly the same average (in practice
sets that differ in idle pairs, whose zero volume gives delay 0), the plan
is the one the scan meets first: candidates in (delay, src, dst) order, and
the smallest k.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .channel import Scenario, _capacity, capacity_matrix
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
        n = self.link_matrix.shape[1]
        return [divmod(k, n) for k in np.flatnonzero(self.link_matrix).tolist()]


@dataclass(frozen=True)
class SolverConfig:
    """Unused by the package: kept only for the benchmark's ``optimize``
    calls under ``perfbench/``.  ``seed`` changes no plan.
    """

    seed: int = 0


def compression_lower_bound(distance_m: float, beta: float,
                            distance_scale_m: float) -> float:
    """Smallest admissible compression ratio for a link of the given length.

    The proximity-quality constraint demands ``ratio >= beta * exp(-d / scale)``;
    the floor ``GAMMA_MIN`` keeps the result in (0, 1] even for distant pairs.
    """
    if distance_m < 0:
        raise ValidationError("distance must be non-negative")
    if not (0 < beta <= 1):
        raise ValidationError("beta must lie in (0, 1]")
    if distance_scale_m <= 0:
        raise ValidationError("distance_scale_m must be positive")
    return float(_ratio_floor(np.array([distance_m], dtype=float), beta, distance_scale_m)[0])


def _ratio_floor(distance_m: np.ndarray, beta: float, distance_scale_m: float):
    """``compression_lower_bound`` without checks, for an array of distances:
    ``max(beta * exp(-d / scale), GAMMA_MIN)``, one ufunc per operation in place."""
    with np.errstate(over="ignore"):  # a subnormal scale: -inf, so the floor is GAMMA_MIN
        floor = np.divide(distance_m, -distance_scale_m)  # the bits of -d / scale
    np.exp(floor, out=floor)
    np.multiply(beta, floor, out=floor)
    return np.maximum(floor, GAMMA_MIN, out=floor)


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
    ratio_floor: np.ndarray
    delay_s: np.ndarray

    def __len__(self) -> int:
        return len(self.src)

    def take(self, selection) -> Candidates:
        return Candidates(*(getattr(self, f.name)[selection] for f in fields(self)))


def _candidates(scenario: Scenario) -> Candidates:
    dists = scenario.distance_matrix()
    caps = capacity_matrix(scenario, dists)
    flat = np.flatnonzero(caps > 0.0)  # row-major; the diagonal is zero
    cap, dist = caps.take(flat), dists.take(flat)
    del caps, dists
    src, dst = np.divmod(flat, len(scenario.nodes))
    floor = _ratio_floor(dist, scenario.beta, scenario.distance_scale_m)
    del dist
    delay = scenario.data_volumes_bits.take(flat)
    np.multiply(floor, delay, out=delay)
    with np.errstate(over="ignore"):  # a delay past the float range is inf; no plan picks it
        np.divide(delay, cap, out=delay)
    return Candidates(src, dst, cap, floor, delay)


def _check_feasible(scenario: Scenario, candidates: Candidates) -> None:
    if len(scenario.nodes) < 2:
        raise InfeasibleError("planning needs at least two nodes")
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


def _plan_from_selection(scenario: Scenario, chosen: Candidates) -> CommPlan:
    n = len(scenario.nodes)
    src, dst = chosen.src, chosen.dst
    link = np.zeros((n, n), dtype=int)
    ratio = np.ones((n, n))
    rates = np.zeros((n, n))
    delays = np.zeros((n, n))
    link[src, dst] = 1
    ratio[src, dst] = chosen.ratio_floor
    rates[src, dst] = chosen.capacity_bps
    delays[src, dst] = chosen.delay_s
    avg = float(delays.sum() / len(src))  # delays is 0 off the links: the sum of link * delays
    return CommPlan(link, ratio, rates, delays, avg)


def optimize(scenario: Scenario, cfg: SolverConfig | None = None) -> CommPlan:
    """Plan links and compression ratios minimizing the average delay.

    Exact and deterministic (see the module docstring).  ``cfg`` is ignored;
    it stays only for the benchmark's ``optimize(scenario, SolverConfig(...))``
    calls.  Raises InfeasibleError when no selection can satisfy the link
    budget and the ego-link floor with a finite average delay.
    """
    candidates = _candidates(scenario)
    _check_feasible(scenario, candidates)
    budget = scenario.channel.num_subchannels
    need = scenario.min_ego_links

    # candidates come in row-major (src, dst) order, so a stable sort on
    # delay alone orders them by (delay, src, dst)
    ego = np.flatnonzero(candidates.dst == scenario.ego_index)
    forced = ego[np.argsort(candidates.delay_s[ego], kind="stable")[:need]]
    extra = min(budget, len(candidates)) - need
    rest = forced[:0]  # none when the ego floor fills the budget
    if extra:
        # keep every other candidate up to the extra-th smallest delay, ties
        # included, so the stable sort below still meets them in (delay, src,
        # dst) order; a forced link's NaN sorts last, past the cut
        pool = candidates.delay_s.copy()
        pool[forced] = np.nan
        pool.partition(extra - 1)
        cut = pool[extra - 1]
        del pool
        keep = candidates.delay_s <= cut
        keep[forced] = False
        others = np.flatnonzero(keep)
        rest = others[np.argsort(candidates.delay_s.take(others), kind="stable")[:extra]]
    prefix = np.concatenate((forced, rest))
    # average of the first k links for k = need .. len(prefix); argmin keeps
    # the smallest k among equal averages
    with np.errstate(over="ignore"):  # a sum past the float range is inf and never wins
        averages = (np.cumsum(candidates.delay_s[prefix])[need - 1:]
                    / np.arange(need, len(prefix) + 1))
    best = int(np.argmin(averages))
    if not math.isfinite(averages[best]):  # as in the oracle, an infinite average never wins
        raise InfeasibleError("no feasible link selection exists")
    candidates = candidates.take(prefix[:need + best])  # the rest go before the dense plan
    return _plan_from_selection(scenario, candidates)


@functools.cache
def _level(k: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The sets of ``size`` of ``k`` candidates, in ``itertools.combinations``
    order, as read-only ``(parent, last)`` arrays: row r of size ``size`` is
    row ``parent[r]`` of size ``size - 1`` (the empty set at size 1) plus
    candidate ``last[r]``.  Every size of every k <= 20 fits in 2**k rows of
    5 bytes, about 10 MB over all k.
    """
    last = _level(k, size - 1)[1] if size > 1 else np.array([-1], dtype=np.int8)
    # a set's children extend it by every candidate above its last one; row
    # r's children take the positions up to cumsum(children)[r] and end with
    # candidate k - 1
    children = (k - 1) - last.astype(np.intp)
    parent = np.repeat(np.arange(len(last), dtype=np.int32), children)
    last = (np.arange(len(parent))
            - np.repeat(np.cumsum(children) - k, children)).astype(np.int8)
    parent.flags.writeable = False
    last.flags.writeable = False
    return parent, last


def exhaustive_optimum(scenario: Scenario) -> CommPlan:
    """Enumerate every feasible link selection and return the global optimum.

    Verification oracle for :func:`optimize`; refuses instances with more
    than 20 candidate links (SizeError).  It scores every set of up to
    ``min(budget, K)`` of the K candidates that holds at least ``need``
    ego-inbound links, one size at a time in NumPy.  The sets of size s
    extend each set of size s - 1 by every candidate above its last one,
    starting from the empty set, which keeps each size in
    ``itertools.combinations`` order.  A set's delay sum is its parent's sum
    plus the new delay, so it adds left to right from 0 as ``sum()`` over the
    set would, and every average ``sum / size`` is exact to the bit.  Which
    sets extend which depends on K and the size alone, so those tables
    (:func:`_level`) are built once per (K, size) and shared by every call;
    the winner is rebuilt from them.

    Ties: the plan is the first set reaching the least average, by size
    first, then lexicographically in candidate (row-major) order; a NaN or
    infinite average never wins.
    """
    candidates = _candidates(scenario)
    _check_feasible(scenario, candidates)
    if len(candidates) > 20:
        raise SizeError(
            f"{len(candidates)} candidate links exceed the enumeration cap of 20")
    budget = scenario.channel.num_subchannels
    need = scenario.min_ego_links
    k = len(candidates)

    delay = candidates.delay_s
    inbound = (candidates.dst == scenario.ego_index).astype(np.int8)
    sums, counts = np.zeros(1), np.zeros(1, dtype=np.int8)  # the empty set
    best_avg, best = math.inf, None
    with np.errstate(over="ignore"):  # as in optimize, a sum past the float range never wins
        for size in range(1, min(budget, k) + 1):
            parent, last = _level(k, size)
            sums = sums[parent] + delay[last]
            counts = counts[parent] + inbound[last]
            avg = sums / size
            better = (counts >= need) & (avg < best_avg)
            if better.any():
                row = int(np.argmin(np.where(better, avg, math.inf)))
                best_avg, best = float(avg[row]), (size, row)
    if best is None:
        raise InfeasibleError("no feasible link selection exists")
    size, row = best
    selection = []
    for level in range(size, 0, -1):
        parent, last = _level(k, level)
        selection.append(int(last[row]))
        row = int(parent[row])
    return _plan_from_selection(scenario, candidates.take(selection[::-1]))


def validate_plan(plan: CommPlan, scenario: Scenario) -> list[str]:
    """Independently re-derive every constraint and report violations.

    Capacities, distances and ratio floors of the selected links are
    recomputed from the scenario rather than trusted from the plan, by the
    expressions :func:`~v2vsim.channel.capacity_matrix` and
    ``Scenario.distance_matrix`` evaluate, so each equals their entry bit for
    bit.  Returns a list of human-readable violation strings, link by link in
    row-major order; an empty list means the plan is valid.  A relative
    tolerance of 1e-9 absorbs float round-off in the exponential bound and
    the rate cap.
    """
    rel_tol = 1e-9
    n = len(scenario.nodes)
    for name, matrix in (("link", plan.link_matrix), ("compression", plan.compression),
                         ("rate", plan.rates), ("delay", plan.delays)):
        if matrix.shape != (n, n):
            return [f"{name} matrix shape {matrix.shape} does not match scenario size {n}"]
    issues: list[str] = []
    g = plan.link_matrix
    if g.diagonal().any():
        issues.append("link matrix diagonal must be zero")
    if ((g != 0) & (g != 1)).any():
        issues.append("link matrix entries must be binary")
    if not ((plan.compression > 0) & (plan.compression <= 1)).all():  # NaN fails too
        issues.append("compression entries must lie in (0, 1]")

    budget = scenario.channel.num_subchannels
    links = g.sum()
    if links > budget:
        issues.append(f"link budget violated: {int(links)} links > {budget} sub-channels")
    ego = scenario.ego_index
    inbound = g[:, ego].sum()
    if inbound < scenario.min_ego_links:
        issues.append(
            f"ego floor violated: {int(inbound)} inbound links < "
            f"{scenario.min_ego_links} required")

    # the selected off-diagonal links in row-major order (a diagonal one is
    # reported above), checked against the scenario one by one; a link whose
    # rate is not positive (NaN is) is checked no further.  The floor bound
    # is a Python float, so past the exponent range it is +inf, not a warning
    flat = np.flatnonzero(g)
    src, dst = np.divmod(flat, n)
    off = src != dst
    src, dst, flat = src[off], dst[off], flat[off]
    rate, ratio = plan.rates.take(flat), plan.compression.take(flat)
    x = np.array([node.x for node in scenario.nodes])
    y = np.array([node.y for node in scenario.nodes])
    dist = np.hypot(x[src] - x[dst], y[src] - y[dst])
    cap = _capacity(dist, scenario.channel)
    with np.errstate(divide="ignore", invalid="ignore"):  # a rate of 0 is reported, not divided by
        expected = ratio * scenario.data_volumes_bits.take(flat) / rate
    for i, j, r, c, gamma, d, delay, e in zip(
            src.tolist(), dst.tolist(), rate.tolist(), cap.tolist(), ratio.tolist(),
            dist.tolist(), plan.delays.take(flat), expected):
        if r <= 0:
            issues.append(f"link ({i},{j}): rate must be positive on a selected link")
            continue
        if r > c * (1 + rel_tol):
            issues.append(f"link ({i},{j}): rate {r:.6g} exceeds capacity {c:.6g}")
        try:
            bound = gamma * math.exp(d / scenario.distance_scale_m)
        except OverflowError:  # past about 709.78 scales the bound is +inf: it passes
            bound = math.inf
        if bound < scenario.beta * (1 - rel_tol):
            issues.append(
                f"link ({i},{j}): compression floor violated "
                f"({bound:.12g} < beta={scenario.beta:.12g})")
        if delay != e:
            issues.append(f"link ({i},{j}): delay {delay!r} != ratio*volume/rate {e!r}")
    try:
        recomputed = average_delay(plan)
    except ValidationError:
        issues.append("plan selects no links")
    else:
        if not math.isclose(plan.avg_delay_s, recomputed, rel_tol=1e-12, abs_tol=1e-15):
            issues.append(
                f"stored average delay {plan.avg_delay_s!r} != recomputed {recomputed!r}")
    return issues
