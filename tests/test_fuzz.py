"""Fuzz tests of the three readers of outside input.

Every input ends in a result or in the reader's documented typed error:
``ValidationError`` for frame containers and scenario files (exit 2 in the
CLI), ``ImageFormatError`` for PGM/PPM files (exit 4).  Anything else would
reach the user as a traceback.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from v2vsim.codec import (CodecConfig, EntropyModel, decode, deserialize_frame,
                          encode, serialize_frame)
from v2vsim.errors import ImageFormatError, ValidationError
from v2vsim.image_io import read_image
from v2vsim.scenario_io import format_scenario, parse_scenario_document
from v2vsim.synth import random_scenario, sine_image

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


SCENARIO_LINES = format_scenario(random_scenario(3), {0: "a.pgm"}).splitlines()
TOKENS = st.one_of(st.sampled_from(["0", "1", "-1", "2", "0.5", "1e309", "-1e309",
                                    "nan", "inf", "1e-400", "99999999999999999999",
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
def test_scenario_line_replaced(index, line):
    lines = list(SCENARIO_LINES)
    lines[index] = line
    try:
        doc = parse_scenario_document("\n".join(lines) + "\n")
    except ValidationError:
        return
    assert doc.scenario.data_volumes_bits.shape == (len(doc.scenario.nodes),) * 2


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
