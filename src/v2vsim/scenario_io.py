"""Versioned plain-text scenario files.

Format (version 1): one `key value` pair per line, `#` comments and blank
lines ignored, unknown keys rejected.  Nodes are declared with
`node <id> <x> <y>`; the data-volume matrix sits between `volumes` and `end`
lines, one row per node in declaration order.  Optional `image <id> <path>`
lines attach a picture to a node, at most one per node.  Every float must be finite.

    version 1
    bandwidth_hz 20e6
    subchannels 2
    tx_power_w 0.2
    noise 1e-9
    noise_mode literal-power
    pathloss_exponent 2.7
    reference_distance_m 10
    reference_gain 1.0
    beta 0.8
    distance_scale_m 100
    min_ego_links 1
    ego 0
    node 0 0.0 0.0
    node 1 40.0 30.0
    volumes
    0 0
    2.0e6 0
    end
    image 1 frames/n1.pgm
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, Scenario, VehicleNode
from .errors import ParseError, ValidationError


def _finite(token: str) -> float:
    """A float token; ``nan`` and ``inf`` raise ValueError like a bad token."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {token!r}")
    return value


# The scalar keys in file order: key -> (owning dataclass, field, token
# parser).  An absent optional key leaves its field at the dataclass default.
# The formatter writes ``_finite`` fields with %.12g and the others with str.
SCALAR_KEYS = {
    "bandwidth_hz": (ChannelParams, "total_bandwidth_hz", _finite),
    "subchannels": (ChannelParams, "num_subchannels", int),
    "tx_power_w": (ChannelParams, "transmit_power_w", _finite),
    "noise": (ChannelParams, "noise_level", _finite),
    "noise_mode": (ChannelParams, "noise_mode", str),
    "pathloss_exponent": (ChannelParams, "pathloss_exponent", _finite),
    "reference_distance_m": (ChannelParams, "reference_distance_m", _finite),
    "reference_gain": (ChannelParams, "reference_gain", _finite),
    "beta": (Scenario, "beta", _finite),
    "distance_scale_m": (Scenario, "distance_scale_m", _finite),
    "min_ego_links": (Scenario, "min_ego_links", int),
    "ego": (Scenario, "ego_id", int),
}

REQUIRED_KEYS = ("bandwidth_hz", "subchannels", "tx_power_w", "noise",
                 "beta", "min_ego_links", "ego")


def _volume_matrix(rows: list[tuple[int, str]], n: int) -> np.ndarray:
    """The ``(line_no, line)`` rows as an n x n matrix: one C pass of ``np.loadtxt``,
    which reads a subset of ``float()``'s syntax and rounds alike, or else the row
    loop, which names the first bad row or reads what only ``float()`` takes (``1_000``)."""
    if len(rows) == n:
        with contextlib.suppress(ValueError):
            matrix = np.loadtxt([line for _, line in rows], ndmin=2, comments=None)
            if matrix.shape == (n, n) and np.isfinite(matrix).all():
                return matrix
    parsed = []
    for line_no, line in rows:
        try:
            row = [_finite(token) for token in line.split()]
        except ValueError:
            raise ParseError(line_no, f"non-numeric or non-finite volume entry in {line!r}")
        if len(row) != n:
            raise ParseError(line_no, f"volume row has {len(row)} entries, need {n}")
        parsed.append(row)
    return np.array(parsed, dtype=float)


@dataclass
class ScenarioDocument:
    """A parsed scenario plus the per-node image paths it referenced."""

    scenario: Scenario
    image_paths: dict[int, str] = field(default_factory=dict)


def parse_scenario(text: str) -> Scenario:
    return parse_scenario_document(text).scenario


def parse_scenario_document(text: str) -> ScenarioDocument:
    values: dict[str, object] = {}
    nodes: list[VehicleNode] = []
    seen_ids: set[int] = set()
    image_paths: dict[int, str] = {}
    volume_lines: list[tuple[int, str]] = []
    in_volumes = False
    volumes = None
    saw_version = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if in_volumes:  # rows stay unsplit for _volume_matrix; an 'end' token ends the block
            if not (line.startswith("end") and line.split()[0] == "end"):
                volume_lines.append((line_no, line))
                continue
            volumes = _volume_matrix(volume_lines, len(nodes))
            if line != "end":
                raise ParseError(line_no, "'end' takes no value")
            if len(volume_lines) != len(nodes):
                raise ParseError(
                    line_no, f"volume matrix has {len(volume_lines)} rows, "
                    f"need {len(nodes)}")
            in_volumes = False
            continue
        parts = line.split()
        key = parts[0]

        if not saw_version:
            if key != "version":
                raise ParseError(line_no, "file must start with a 'version' line")
            if parts[1:] != ["1"]:
                raise ParseError(line_no, f"unsupported version {' '.join(parts[1:])!r}")
            saw_version = True
            continue

        if key == "volumes":
            if len(parts) != 1:
                raise ParseError(line_no, "'volumes' takes no value")
            if not nodes:
                raise ParseError(line_no, "volumes block must follow the node list")
            if volumes is not None:
                raise ParseError(line_no, "duplicate volumes block")
            in_volumes = True
        elif key == "node":
            if len(parts) != 4:
                raise ParseError(line_no, "node lines need: node <id> <x> <y>")
            try:
                node = VehicleNode(id=int(parts[1]), x=_finite(parts[2]),
                                   y=_finite(parts[3]))
            except ValueError:
                raise ParseError(line_no, f"bad node declaration {line!r}")
            if node.id in seen_ids:
                raise ParseError(line_no, f"duplicate node id {node.id}")
            seen_ids.add(node.id)
            nodes.append(node)
        elif key == "image":
            if len(parts) != 3:
                raise ParseError(line_no, "image lines need: image <id> <path>")
            try:
                node_id = int(parts[1])
            except ValueError:
                raise ParseError(line_no, f"bad node id {parts[1]!r}")
            if node_id in image_paths:
                raise ParseError(line_no, f"duplicate image for node {node_id}")
            image_paths[node_id] = parts[2]
        elif key in SCALAR_KEYS:
            if len(parts) != 2:
                raise ParseError(line_no, f"key '{key}' takes exactly one value")
            if key in values:
                raise ParseError(line_no, f"duplicate key '{key}'")
            try:
                values[key] = SCALAR_KEYS[key][2](parts[1])
            except ValueError:
                raise ParseError(line_no, f"bad value for '{key}': {parts[1]!r}")
        else:
            raise ParseError(line_no, f"unknown key '{key}'")

    if not saw_version:
        raise ParseError(1, "empty scenario: missing 'version' line")
    if in_volumes:
        _volume_matrix(volume_lines, len(nodes))
        raise ParseError(len(text.splitlines()), "volumes block not closed with 'end'")
    for key in REQUIRED_KEYS:
        if key not in values:
            raise ParseError(len(text.splitlines()) or 1, f"missing required key '{key}'")
    if not nodes:
        raise ParseError(len(text.splitlines()) or 1, "no nodes declared")
    if volumes is None:
        raise ParseError(len(text.splitlines()) or 1, "missing volumes block")
    for node_id in image_paths:
        if all(n.id != node_id for n in nodes):
            raise ValidationError(f"image declared for unknown node id {node_id}")

    kwargs: dict[type, dict[str, object]] = {ChannelParams: {}, Scenario: {}}
    for key, value in values.items():
        owner, name, _ = SCALAR_KEYS[key]
        kwargs[owner][name] = value
    scenario = Scenario(nodes=nodes, data_volumes_bits=volumes,
                        channel=ChannelParams(**kwargs[ChannelParams]), **kwargs[Scenario])
    return ScenarioDocument(scenario=scenario, image_paths=image_paths)


def format_scenario(scenario: Scenario, image_paths: dict[int, str] | None = None) -> str:
    """Render a scenario back into the version-1 text format."""
    lines = ["version 1"]
    for key, (owner, name, parse) in SCALAR_KEYS.items():
        value = getattr(scenario.channel if owner is ChannelParams else scenario, name)
        if parse is int:
            value = int(value)  # an integral float such as 2.0 must not be written as "2.0"
        lines.append(f"{key} {value:{'.12g' if parse is _finite else ''}}")
    for node in scenario.nodes:
        lines.append(f"node {node.id} {node.x:.12g} {node.y:.12g}")
    lines.append("volumes")
    for row in scenario.data_volumes_bits:
        lines.append(" ".join(f"{v:.12g}" for v in row))
    lines.append("end")
    for node_id, path in (image_paths or {}).items():
        if path.split() != [path] or "#" in path:
            raise ValidationError(
                f"image path {path!r} for node {node_id} is empty or holds "
                f"whitespace or '#', which the parser cannot read back")
        lines.append(f"image {node_id} {path}")
    return "\n".join(lines) + "\n"
