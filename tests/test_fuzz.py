"""Fuzz tests of the three readers of outside input, of the CLI's flags, and
of the symbol counts that rate control prices its steps from.

Every input ends in a result or in the reader's documented typed error:
``ValidationError`` for frame containers and scenario files (exit 2 in the
CLI), ``ImageFormatError`` for PGM/PPM files (exit 4).  Anything else would
reach the user as a traceback.  A scenario that parses is also planned: it
gives a valid plan with finite rates or ``InfeasibleError`` (exit 3), with no
numeric warning on the way.
"""

import contextlib
import io
import json
import math
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from v2vsim.channel import ChannelParams, Scenario, VehicleNode
from v2vsim.cli import main
from v2vsim.codec import (QUANT_STEP_GRID, CodecConfig, EntropyModel,
                          _window_counts, decode, deserialize_frame, encode,
                          serialize_frame)
from v2vsim.errors import ImageFormatError, InfeasibleError, ParseError, ValidationError
from v2vsim.image_io import read_image, write_image
from v2vsim.planner import _candidates, exhaustive_optimum, optimize, validate_plan
from v2vsim.scenario_io import format_scenario, parse_scenario_document
from v2vsim.synth import random_scenario, sine_image

from images import gradient_image

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

MODEL = EntropyModel.generic()
CONTAINER = serialize_frame(encode(sine_image(16, 16), CodecConfig(), MODEL))
HEADER_BYTES = 24 + len(MODEL.model_id)  # fixed fields, then the model id


def _mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for pos, value in edits:
        buf[pos] = value
    return bytes(buf)


# half of the edits aimed at the header, where every field is checked
EDITS = st.lists(st.tuples(st.one_of(st.integers(0, HEADER_BYTES + 4),
                                     st.integers(0, len(CONTAINER) - 1)),
                           st.integers(0, 255)), min_size=1, max_size=4)


@FUZZ
@given(edits=EDITS, keep=st.one_of(st.none(), st.integers(0, len(CONTAINER))))
def test_frame_container_mutations(edits, keep):
    data = _mutate(CONTAINER, edits)[:keep]
    try:
        img = decode(deserialize_frame(data))
    except ValidationError:
        return
    assert np.all((img >= 0) & (img <= 1))


# power-of-two steps keep (k + 1/2) * step an exact tie after the division
COUNT_STEPS = st.one_of(st.sampled_from([2.0 ** e for e in range(-8, 4)]),
                        st.sampled_from(QUANT_STEP_GRID.tolist()),
                        st.floats(1e-3, 20.0))


@st.composite
def sorted_coefficients(draw):
    """A step, an alphabet radius and ascending values, many of them on or one
    ulp beside a rounding threshold, in runs of duplicates."""
    step = draw(COUNT_STEPS)
    radius = draw(st.integers(1, 40))
    tie = st.integers(-radius - 3, radius + 2).map(lambda k: (k + 0.5) * step)
    beside_tie = st.tuples(tie, st.sampled_from([-math.inf, math.inf])).map(
        lambda pair: math.nextafter(*pair))
    span = (radius + 3) * step
    value = st.one_of(tie, beside_tie, st.sampled_from([0.0, -0.0]),
                      st.floats(-span, span), st.floats(-1e12, 1e12))
    runs = draw(st.lists(st.tuples(value, st.integers(1, 6)), min_size=1, max_size=30))
    values = [v for v, repeat in runs for _ in range(repeat)]
    if not draw(st.integers(0, 9)):
        values = [values[0]] * len(values)
    return step, radius, np.sort(np.array(values))


def reference_symbol_counts(ordered: np.ndarray, step: float, radius: int) -> np.ndarray:
    """The full-alphabet counter rate control used before it priced only the
    occupied window: entry ``radius + s`` counts symbol s among the ascending,
    non-empty ``ordered``; symbols between those of the smallest and the
    largest value are found by searching their rounding thresholds, and
    values within a relative 2**-40 of a threshold by their own symbol."""
    def symbol(x):
        return np.clip(np.rint(x / step), -radius, radius)

    low, high = (int(s) for s in symbol(ordered[[0, -1]]))
    v = np.arange(low + 1, high + 1)
    t = (v - 0.5) * step
    band = np.abs(t) * 2.0 ** -40
    lo = np.searchsorted(ordered, t - band)  # values below: symbol < v
    hi = np.searchsorted(ordered, t + band)  # values from here: symbol >= v
    width = hi - lo
    skipped = np.cumsum(width) - width  # near values of the lower thresholds
    near = ordered[np.arange(width.sum()) + np.repeat(lo - skipped, width)]
    first = lo + np.searchsorted(symbol(near), v) - skipped
    counts = np.zeros(2 * radius + 1, dtype=np.int64)
    counts[low + radius:high + radius + 1] = np.diff(first, prepend=0,
                                                     append=ordered.size)
    return counts


@FUZZ
@given(case=sorted_coefficients())
@example(case=(0.25, 2, np.array([-0.0])))
@example(case=(0.5, 3, np.full(7, 0.25)))  # all on the tie that rounds to 0
@example(case=(0.5, 3, np.full(7, 0.75)))  # all on the tie that rounds to 2
@example(case=(1.0, 1, np.array([-1e12, 1e12])))
@example(case=(0.5, 3, np.array([])))  # no coefficient kept for sorting
def test_symbol_counts_equal_bincount(case):
    step, radius, ordered = case
    symbols = np.clip(np.round(ordered / step), -radius, radius).astype(np.int64)
    expected = np.bincount(symbols + radius, minlength=2 * radius + 1)
    low, got = _window_counts(ordered, step, radius)
    assert type(low) is int and got.dtype == expected.dtype
    if not ordered.size:
        assert low == 0 and got.size == 0
        return
    # the window runs from the smallest value's symbol to the largest's
    assert low == symbols[0] and low + got.size - 1 == symbols[-1]
    table = np.zeros_like(expected)
    table[low + radius:low + radius + got.size] = got
    assert np.array_equal(table, expected)
    assert np.array_equal(reference_symbol_counts(ordered, step, radius), expected)


SCENARIO_LINES = format_scenario(random_scenario(3), {0: "a.pgm"}).splitlines()
KEY_LINE = {line.split()[0]: k for k, line in enumerate(SCENARIO_LINES) if line}
# 1e308, 1e-320 and 5e-324 parse, and overflow a channel that does not check
# its peak capacity
TOKENS = st.one_of(st.sampled_from(["0", "1", "-1", "2", "0.5", "1e309", "-1e309",
                                    "nan", "inf", "1e-400", "99999999999999999999",
                                    "1e308", "1e-320", "5e-324",
                                    "x", "#", "a.pgm", "volumes", "end"]),
                   st.text(max_size=8))
LINE = st.one_of(
    st.text(),
    st.builds(" ".join, st.lists(TOKENS, max_size=6)),
    st.builds(lambda key, rest: " ".join([key, *rest]),
              st.sampled_from(sorted({line.split()[0] for line in SCENARIO_LINES})),
              st.lists(TOKENS, max_size=5)))


@FUZZ
@given(index=st.integers(0, len(SCENARIO_LINES) - 1), line=LINE)
@example(index=KEY_LINE["noise"], line="noise 1e-320")
@example(index=KEY_LINE["tx_power_w"], line="tx_power_w 1e308")
@example(index=KEY_LINE["bandwidth_hz"], line="bandwidth_hz 1e308")
@example(index=KEY_LINE["noise"], line="noise 5e-324")
@example(index=KEY_LINE["distance_scale_m"], line="distance_scale_m 1e-320")
def test_scenario_line_replaced(index, line):
    lines = list(SCENARIO_LINES)
    lines[index] = line
    try:
        doc = parse_scenario_document("\n".join(lines) + "\n")
    except ValidationError:
        return
    s = doc.scenario
    assert s.data_volumes_bits.shape == (len(s.nodes),) * 2
    try:
        plan = optimize(s)
    except InfeasibleError:
        plan = None
    else:
        assert validate_plan(plan, s) == []
        assert np.isfinite(plan.rates).all() and math.isfinite(plan.avg_delay_s)
    if len(_candidates(s)) <= 20:
        try:
            oracle = exhaustive_optimum(s)
        except InfeasibleError:
            assert plan is None
        else:
            assert math.isclose(plan.avg_delay_s, oracle.avg_delay_s, rel_tol=1e-12)


VOLUME_HEAD = ["version 1", "bandwidth_hz 20e6", "subchannels 1", "tx_power_w 0.2",
               "noise 1e-9", "beta 0.9", "min_ego_links 1", "ego 0"]
RENDERS = [lambda v: f"{v:.12g}", lambda v: f"{v:.17g}", repr, lambda v: f"{v:e}",
           lambda v: f"{v:.3E}", lambda v: str(int(v)), lambda v: f"+{v!r}"]
# what float() rejects, what is not finite, and what only float() reads
ODD_TOKENS = ["x", "nan", "-inf", "inf", "1e400", "0x10", "1e", "--1", "1d5", ".", "1,5",
              "1\u200b2", "1_000", "\u0661\u0662", "\uff11"]


@st.composite
def volume_blocks(draw):
    """A scenario text whose volume block is well formed or holds a few defects."""
    n = draw(st.integers(1, 5))
    lines = VOLUME_HEAD + [f"node {i} {10 * i} 0" for i in range(n)] + ["volumes"]
    sep = st.sampled_from([" ", "\t", "\xa0", " \t "])
    for i in range(n + draw(st.sampled_from([0] * 12 + [-1, 1]))):
        tokens = []
        for j in range(n + draw(st.sampled_from([0] * 30 + [-1, 1]))):
            if j == i:
                tokens.append(draw(st.sampled_from(["0", "0.0", "-0", "0e5"])))
            elif draw(st.integers(0, 39)):
                value = draw(st.one_of(st.floats(0, 1e9), st.floats(0, 1e300)))
                tokens.append(draw(st.sampled_from(RENDERS))(value))
            else:
                tokens.append(draw(st.sampled_from(ODD_TOKENS)))
        line = "".join(t + draw(sep) for t in tokens).rstrip(" \t\xa0")
        lines.append(line + draw(st.sampled_from(["", "  ", " # bits"])))
        if not draw(st.integers(0, 9)):
            lines.append(draw(st.sampled_from(["", "# comment", "  "])))
    if draw(st.integers(0, 9)):
        lines.append(draw(st.sampled_from(["end", "end # done"])))
    return n, "\n".join(lines) + "\n"


def reference_volumes(n, text):
    """The volume block read row by row with float(), or the ParseError text."""
    lines = text.splitlines()
    rows, start = [], lines.index("volumes") + 2
    for line_no, raw in enumerate(lines[start - 1:], start=start):
        line = raw.split("#", 1)[0].strip()
        if line == "end":
            if len(rows) != n:
                return f"line {line_no}: volume matrix has {len(rows)} rows, need {n}"
            return np.array(rows)
        if not line:
            continue
        try:
            row = [float(token) for token in line.split()]
        except ValueError:
            row = [math.nan]  # a token float() rejects gets the non-finite message
        if not all(map(math.isfinite, row)):
            return f"line {line_no}: non-numeric or non-finite volume entry in {line!r}"
        if len(row) != n:
            return f"line {line_no}: volume row has {len(row)} entries, need {n}"
        rows.append(row)
    return f"line {len(lines)}: volumes block not closed with 'end'"


@FUZZ
@given(block=volume_blocks())
def test_volume_block_matches_row_by_row_float(block):
    n, text = block
    expected = reference_volumes(n, text)
    try:
        got = parse_scenario_document(text).scenario.data_volumes_bits
    except ParseError as exc:
        assert str(exc) == expected
        return
    assert not isinstance(expected, str), expected
    assert got.tobytes() == expected.tobytes()


PGM_HEADER = b"P5\n16 16\n255\n"
PGM = PGM_HEADER + np.rint(sine_image(16, 16) * 255).astype(np.uint8).tobytes()


@FUZZ
@given(edits=st.lists(st.tuples(st.integers(0, len(PGM_HEADER)), st.integers(0, 255)),
                      max_size=4),
       insert=st.binary(max_size=6), at=st.integers(0, len(PGM_HEADER)))
def test_pgm_header_mutations(tmp_path_factory, edits, insert, at):
    data = _mutate(PGM, edits)
    path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
    path.write_bytes(data[:at] + insert + data[at:])
    try:
        img = read_image(path)
    except ImageFormatError:
        return
    assert img.ndim in (2, 3) and np.all((img >= 0) & (img <= 1))


@pytest.fixture(scope="module")
def cli_fleet(tmp_path_factory):
    """Two 16x16 PGMs and a two-node scenario whose link carries one image."""
    root = tmp_path_factory.mktemp("cli_fleet")
    write_image(root / "ego.pgm", gradient_image(16, 16))
    write_image(root / "n1.pgm", sine_image(16, 16))
    params = ChannelParams(total_bandwidth_hz=20e6, num_subchannels=1,
                           transmit_power_w=0.2, noise_level=1e-9)
    scenario = Scenario(nodes=[VehicleNode(0, 0.0, 0.0), VehicleNode(1, 30.0, 40.0)],
                        ego_id=0, data_volumes_bits=np.array([[0.0, 0.0], [2048.0, 0.0]]),
                        channel=params, beta=0.9)
    (root / "scene.scn").write_text(format_scenario(scenario, {0: "ego.pgm", 1: "n1.pgm"}))
    return root


FLAG_VALUE = st.one_of(
    st.none(), st.sampled_from(["0.05", "0.5", "1", "8"]),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "-0", "0", "1e309", "1e-300", "-1",
                     "3", "16", "300", "1/0", "1/3", "x", ""]))
COMMAND_FLAGS = {
    "simulate": ("--alpha", "--rate-tolerance", "--ratio-override", "--block-size"),
    "encode": ("--rate-tolerance", "--block-size", "--quant-step", "--gamma",
               "--refine-fraction"),
}


def _reject_constant(name):
    raise ValueError(f"manifest.json holds {name}, which strict JSON forbids")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(COMMAND_FLAGS)),
       values=st.lists(FLAG_VALUE, min_size=5, max_size=5))
# values the random draws may miss: a block size beyond the container's u8
# and refine fractions that Fraction cannot parse or divide
@example(command="encode", values=[None, "300", None, None, None])
@example(command="encode", values=[None, "300", None, "0.5", None])
@example(command="encode", values=[None, None, None, None, "1/0"])
@example(command="encode", values=[None, None, None, None, "x"])
def test_cli_flag_values(cli_fleet, command, values):
    out = cli_fleet / command
    shutil.rmtree(out, ignore_errors=True)
    out.unlink(missing_ok=True)
    if command == "simulate":
        argv = ["simulate", "--scenario", str(cli_fleet / "scene.scn"), "--seed", "1",
                "--outdir", str(out)]
    else:
        argv = ["codec", "encode", "--image", str(cli_fleet / "n1.pgm"),
                "--out", str(out)]
    for flag, value in zip(COMMAND_FLAGS[command], values):
        if value is not None:
            argv += [flag, value]
            if flag == "--refine-fraction":  # refine on the fleet's two PGMs
                argv += ["--refine-dir", str(cli_fleet)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    assert rc in (0, 2, 3, 4), argv
    if rc == 0 and command == "simulate":
        json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)
    elif rc == 0:
        img = decode(deserialize_frame(out.read_bytes()))
        assert img.shape == (16, 16) and np.all((img >= 0) & (img <= 1))
