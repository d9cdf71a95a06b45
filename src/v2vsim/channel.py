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
the selected pairs, evaluate the same NumPy expressions (``_gain``,
``_capacity``, ``np.hypot``) on arrays, so a value computed for a few pairs
equals the matrix entry bit for bit; Python's ``**`` and ``math.hypot`` differ
from NumPy's ``power`` and ``hypot`` in the last place on some inputs.

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
        self.data_volumes_bits = vol
        self._ego_index = ids.index(self.ego_id)

    @property
    def ego_index(self) -> int:
        return self._ego_index

    def distance_matrix(self) -> np.ndarray:
        """Pairwise distances: entry (i, j) is ``np.hypot`` of the x and y
        differences of ``nodes[i]`` and ``nodes[j]``."""
        x = np.array([node.x for node in self.nodes])
        y = np.array([node.y for node in self.nodes])
        with np.errstate(over="ignore"):  # nodes beyond the float range apart: inf, no link
            return np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])


def _gain(distance, params: ChannelParams):
    """Path-loss gain at a distance or an array of distances."""
    d0 = params.reference_distance_m
    return params.reference_gain * np.power(d0 / np.maximum(distance, d0),
                                            params.pathloss_exponent)


def _capacity(gain, params: ChannelParams):
    """Sub-channel Shannon capacity at a gain or an array of gains."""
    snr = params.transmit_power_w * gain / params.noise_power_w
    return params.subchannel_bandwidth_hz * np.log2(1.0 + snr)


def capacity_matrix(scenario: Scenario,
                    distances: np.ndarray | None = None) -> np.ndarray:
    """Per-pair sub-channel capacities; diagonal entries are zero.
    ``distances``, if given, must be ``scenario.distance_matrix()``."""
    if distances is None:
        distances = scenario.distance_matrix()
    params = scenario.channel
    caps = _capacity(_gain(distances, params), params)
    np.fill_diagonal(caps, 0.0)
    return caps
