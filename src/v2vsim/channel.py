"""Pairwise channel gains and per-sub-channel Shannon capacities for a vehicle fleet.

The propagation model is deterministic log-distance path loss: the gain at the
reference distance is ``reference_gain`` and it decays with
``(reference_distance / d) ** pathloss_exponent``.  Distances below the
reference distance clamp to it so the gain never exceeds ``reference_gain``.
Capacity of one sub-channel is ``(W / c) * log2(1 + P_tx * gain / N)`` where
the noise term ``N`` depends on ``noise_mode``:

* ``"literal-power"``: ``noise_level`` is used directly as a power in watts.
* ``"psd-times-subband"``: ``noise_level`` is a spectral density in W/Hz and
  is multiplied by the sub-channel bandwidth ``W / c``.

The fleet-wide matrices and ``planner.validate_plan``, which recomputes only
the selected pairs, run the same ufuncs (``_capacity``, ``np.hypot``), so a
value computed for a few pairs equals the matrix entry bit for bit; Python's
``**`` and ``math.hypot`` differ from NumPy's in the last place on some inputs.
``_capacity`` runs its whole chain in place in one new array, so
``capacity_matrix`` holds two n x n arrays (distances, capacities), as does
``distance_matrix`` at its peak.  ``ChannelParams`` rejects a non-finite peak
capacity (the gain never exceeds ``reference_gain``), so no step overflows.

All functions here are pure; nothing holds mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

NOISE_MODES = ("literal-power", "psd-times-subband")


@dataclass(frozen=True)
class ChannelParams:
    """Radio parameters shared by every link in a scenario."""

    total_bandwidth_hz: float
    num_subchannels: int
    transmit_power_w: float
    noise_level: float
    noise_mode: str = "literal-power"
    pathloss_exponent: float = 2.0
    reference_distance_m: float = 1.0
    reference_gain: float = 1.0

    def __post_init__(self):
        for name in ("total_bandwidth_hz", "num_subchannels", "transmit_power_w",
                     "noise_level", "pathloss_exponent", "reference_distance_m",
                     "reference_gain"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.total_bandwidth_hz <= 0:
            raise ValidationError("total_bandwidth_hz must be positive")
        if self.num_subchannels < 1 or int(self.num_subchannels) != self.num_subchannels:
            raise ValidationError("num_subchannels must be an integer >= 1")
        object.__setattr__(self, "num_subchannels", int(self.num_subchannels))  # 2.0 plans as 2
        if self.transmit_power_w <= 0:
            raise ValidationError("transmit_power_w must be positive")
        if self.noise_level <= 0:
            raise ValidationError("noise_level must be positive")
        if self.noise_mode not in NOISE_MODES:
            raise ValidationError(f"noise_mode must be one of {NOISE_MODES}")
        if self.pathloss_exponent < 2:
            raise ValidationError("pathloss_exponent must be >= 2")
        if self.reference_distance_m <= 0:
            raise ValidationError("reference_distance_m must be positive")
        if self.reference_gain <= 0:
            raise ValidationError("reference_gain must be positive")
        with np.errstate(all="ignore"):  # distance 0 clamps to d0: the peak capacity
            if not np.isfinite(_capacity(np.zeros(1), self)).all():
                raise ValidationError("peak SNR (P * g_ref / N) and capacity must be finite")

    @property
    def subchannel_bandwidth_hz(self) -> float:
        return self.total_bandwidth_hz / self.num_subchannels

    @property
    def noise_power_w(self) -> float:
        """Effective noise power entering the SNR, per noise_mode."""
        if self.noise_mode == "literal-power":
            return self.noise_level
        return self.noise_level * self.subchannel_bandwidth_hz


@dataclass(frozen=True)
class VehicleNode:
    """A participating vehicle: integer id plus planar position in meters."""

    id: int
    x: float
    y: float


@dataclass
class Scenario:
    """A fleet snapshot: nodes, pending data volumes, and channel parameters.

    ``data_volumes_bits[i][j]`` is the number of bits node ``i`` holds for
    node ``j`` (matrix indexed by position in ``nodes``, zero diagonal).
    ``beta`` and ``distance_scale_m`` parameterize the proximity-quality
    bound on compression ratios; ``min_ego_links`` is the minimum number of
    inbound links the ego vehicle must keep.
    """

    nodes: list[VehicleNode]
    ego_id: int
    data_volumes_bits: np.ndarray
    channel: ChannelParams
    beta: float
    distance_scale_m: float = 100.0
    min_ego_links: int = 1
    _ego_index: int = field(init=False, repr=False)

    def __post_init__(self):
        ids = [n.id for n in self.nodes]
        if len(ids) == 0:
            raise ValidationError("scenario needs at least one node")
        if len(set(ids)) != len(ids):
            raise ValidationError("node ids must be unique")
        if self.ego_id not in ids:
            raise ValidationError(f"ego_id {self.ego_id} not among node ids")
        for node in self.nodes:
            if not (math.isfinite(node.x) and math.isfinite(node.y)):
                raise ValidationError(f"node {node.id} coordinates must be finite")
        vol = np.asarray(self.data_volumes_bits, dtype=float)
        n = len(self.nodes)
        if vol.shape != (n, n):
            raise ValidationError(
                f"data volume matrix must be {n}x{n}, got {vol.shape}")
        if not np.all(np.isfinite(vol)):
            raise ValidationError("data volumes must be finite")
        if np.any(vol < 0):
            raise ValidationError("data volumes must be non-negative")
        if np.any(np.diag(vol) != 0):
            raise ValidationError("data volume diagonal must be zero")
        if not (0 < self.beta <= 1):
            raise ValidationError("beta must lie in (0, 1]")
        if not (0 < self.distance_scale_m < math.inf):
            raise ValidationError("distance_scale_m must be positive and finite")
        if not (self.min_ego_links >= 1 and float(self.min_ego_links).is_integer()):
            raise ValidationError("min_ego_links must be an integer >= 1")
        self.min_ego_links = int(self.min_ego_links)  # 2.0 plans as 2
        self.data_volumes_bits = vol
        self._ego_index = ids.index(self.ego_id)

    @property
    def ego_index(self) -> int:
        return self._ego_index

    def distance_matrix(self) -> np.ndarray:
        """Pairwise distances: entry (i, j) is ``np.hypot`` of the x and y
        differences of ``nodes[i]`` and ``nodes[j]``."""
        x = np.array([node.x for node in self.nodes], dtype=float)
        y = np.array([node.y for node in self.nodes], dtype=float)
        with np.errstate(over="ignore"):  # nodes beyond the float range apart: inf, no link
            dx = np.subtract.outer(x, x)
            return np.hypot(dx, np.subtract.outer(y, y), out=dx)


def _capacity(distance: np.ndarray, params: ChannelParams) -> np.ndarray:
    """``(W / c) * log2(1 + P * (g_ref * (d0 / max(d, d0)) ** alpha) / N)`` at an
    array of distances, one ufunc per operation in that order, in one new array."""
    d0 = params.reference_distance_m
    cap = np.maximum(distance, d0)
    np.divide(d0, cap, out=cap)
    np.power(cap, params.pathloss_exponent, out=cap)
    np.multiply(params.reference_gain, cap, out=cap)  # the path gain
    np.multiply(params.transmit_power_w, cap, out=cap)
    np.divide(cap, params.noise_power_w, out=cap)  # the SNR
    np.add(1.0, cap, out=cap)
    np.log2(cap, out=cap)
    return np.multiply(params.subchannel_bandwidth_hz, cap, out=cap)


def capacity_matrix(scenario: Scenario,
                    distances: np.ndarray | None = None) -> np.ndarray:
    """Per-pair sub-channel capacities; diagonal entries are zero.
    ``distances``, if given, must be ``scenario.distance_matrix()``."""
    if distances is None:
        distances = scenario.distance_matrix()
    caps = _capacity(distances, scenario.channel)
    np.fill_diagonal(caps, 0.0)
    return caps
