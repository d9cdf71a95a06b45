from dataclasses import MISSING, fields, replace

import numpy as np
import pytest

from v2vsim.channel import ChannelParams, Scenario, VehicleNode
from v2vsim.errors import ParseError, ValidationError
from v2vsim.scenario_io import (SCALAR_KEYS, format_scenario, parse_scenario,
                                parse_scenario_document)

MINIMAL = """\
version 1
bandwidth_hz 20e6
subchannels 1
tx_power_w 0.2
noise 1e-9
beta 0.9
min_ego_links 1
ego 0
node 0 0.0 0.0
node 1 30.0 40.0
volumes
0 0
8e6 0
end
"""

FIVE_NODE = """\
version 1
# ring of four collaborators around the ego
bandwidth_hz 40e6
subchannels 3
tx_power_w 0.5
noise 2e-9
noise_mode psd-times-subband
pathloss_exponent 3.0
reference_distance_m 12
reference_gain 0.9
beta 0.75
distance_scale_m 80
min_ego_links 2
ego 10
node 10 0.0 0.0
node 11 60.0 0.0
node 12 0.0 60.0
node 13 -60.0 0.0
node 14 0.0 -60.0
volumes
0 1e5 2e5 3e5 4e5
1e6 0 0 0 0
2e6 0 0 0 0
3e6 0 0 0 0
4e6 0 0 0 0
end
image 11 frames/a.pgm
image 12 frames/b.pgm
"""


class TestParse:
    def test_minimal_two_node(self):
        s = parse_scenario(MINIMAL)
        assert len(s.nodes) == 2
        assert s.ego_id == 0
        assert s.channel.num_subchannels == 1
        assert s.data_volumes_bits[1, 0] == 8e6

    def test_five_node_field_by_field(self):
        doc = parse_scenario_document(FIVE_NODE)
        expected = Scenario(
            nodes=[VehicleNode(10, 0.0, 0.0), VehicleNode(11, 60.0, 0.0),
                   VehicleNode(12, 0.0, 60.0), VehicleNode(13, -60.0, 0.0),
                   VehicleNode(14, 0.0, -60.0)],
            ego_id=10,
            data_volumes_bits=np.array([
                [0, 1e5, 2e5, 3e5, 4e5],
                [1e6, 0, 0, 0, 0],
                [2e6, 0, 0, 0, 0],
                [3e6, 0, 0, 0, 0],
                [4e6, 0, 0, 0, 0]], dtype=float),
            channel=ChannelParams(
                total_bandwidth_hz=40e6, num_subchannels=3,
                transmit_power_w=0.5, noise_level=2e-9,
                noise_mode="psd-times-subband", pathloss_exponent=3.0,
                reference_distance_m=12.0, reference_gain=0.9),
            beta=0.75, distance_scale_m=80.0, min_ego_links=2)
        s = doc.scenario
        assert s.nodes == expected.nodes
        assert s.ego_id == expected.ego_id
        assert np.array_equal(s.data_volumes_bits, expected.data_volumes_bits)
        assert s.channel == expected.channel
        assert s.beta == expected.beta
        assert s.distance_scale_m == expected.distance_scale_m
        assert s.min_ego_links == expected.min_ego_links
        assert doc.image_paths == {11: "frames/a.pgm", 12: "frames/b.pgm"}

    def test_round_trip_through_formatter(self):
        def value(scenario, owner, name):
            return getattr(scenario.channel if owner is ChannelParams else scenario, name)

        doc = parse_scenario_document(FIVE_NODE)
        s = doc.scenario
        # the key table covers every scalar field, and FIVE_NODE sets each
        # one away from its dataclass default
        scalar_fields = {(owner, f.name): f.default for owner in (ChannelParams, Scenario)
                         for f in fields(owner)
                         if f.init and f.name not in ("nodes", "data_volumes_bits", "channel")}
        assert {(owner, name) for owner, name, _ in SCALAR_KEYS.values()} == set(scalar_fields)
        for (owner, name), default in scalar_fields.items():
            assert default is MISSING or value(s, owner, name) != default, name

        again = parse_scenario_document(format_scenario(s, doc.image_paths))
        for owner, name in scalar_fields:
            assert value(again.scenario, owner, name) == value(s, owner, name), name
        assert again.scenario.nodes == s.nodes
        assert np.array_equal(again.scenario.data_volumes_bits, s.data_volumes_bits)
        assert again.image_paths == doc.image_paths

    def test_integral_floats_round_trip(self):
        # int-parsed keys holding integral floats are written as ints
        s = parse_scenario(MINIMAL)
        s = replace(s, channel=replace(s.channel, num_subchannels=2.0),
                    min_ego_links=1.0, ego_id=0.0)
        text = format_scenario(s)
        assert "subchannels 2\n" in text and "min_ego_links 1\n" in text and "ego 0\n" in text
        again = parse_scenario(text)
        assert (again.channel.num_subchannels, again.min_ego_links, again.ego_id) == (2, 1, 0)

    @pytest.mark.parametrize("path", ["my file.pgm", "frames/a#1.pgm", "", "a\tb.pgm"])
    def test_formatter_rejects_path_the_parser_cannot_read(self, path):
        s = parse_scenario(MINIMAL)
        with pytest.raises(ValidationError, match="image path"):
            format_scenario(s, {1: path})


class TestParseErrors:
    def test_negative_bandwidth_names_field_and_line(self):
        bad = MINIMAL.replace("bandwidth_hz 20e6", "bandwidth_hz -5")
        with pytest.raises(Exception, match="bandwidth"):
            parse_scenario(bad)

    def test_unknown_key_rejected_with_line(self):
        bad = MINIMAL.replace("beta 0.9", "beta 0.9\nturbo yes")
        with pytest.raises(ParseError, match="unknown key 'turbo'") as err:
            parse_scenario(bad)
        assert err.value.line_no == 7

    def test_missing_version(self):
        with pytest.raises(ParseError, match="version"):
            parse_scenario(MINIMAL.replace("version 1\n", ""))

    def test_wrong_volume_row_width(self):
        bad = MINIMAL.replace("8e6 0", "8e6 0 1")
        with pytest.raises(ParseError, match="entries"):
            parse_scenario(bad)

    def test_wrong_volume_row_count(self):
        bad = MINIMAL.replace("0 0\n8e6 0\n", "0 0\n")
        with pytest.raises(ParseError, match="rows"):
            parse_scenario(bad)

    def test_unclosed_volumes(self):
        with pytest.raises(ParseError, match="not closed"):
            parse_scenario(MINIMAL.replace("end\n", ""))

    def test_duplicate_key(self):
        with pytest.raises(ParseError, match="duplicate key"):
            parse_scenario(MINIMAL.replace("beta 0.9", "beta 0.9\nbeta 0.5"))

    def test_duplicate_node(self):
        bad = MINIMAL.replace("node 1 30.0 40.0", "node 1 30.0 40.0\nnode 1 1.0 1.0")
        with pytest.raises(ParseError, match="duplicate node"):
            parse_scenario(bad)

    def test_duplicate_image(self):
        bad = MINIMAL + "image 1 a.pgm\nimage 1 b.pgm\n"
        with pytest.raises(ParseError, match="duplicate image for node 1") as err:
            parse_scenario_document(bad)
        assert err.value.line_no == 16

    def test_missing_required_key(self):
        with pytest.raises(ParseError, match="missing required key 'beta'"):
            parse_scenario(MINIMAL.replace("beta 0.9\n", ""))

    def test_non_numeric_volume(self):
        with pytest.raises(ParseError, match="non-numeric"):
            parse_scenario(MINIMAL.replace("8e6 0", "lots 0"))

    @pytest.mark.parametrize("row", ["lots 0", "8e6 nan", "inf 0", "8e6 -inf", "0x10 0",
                                     "1e400 0", "8e6 -1e400"])
    def test_bad_volume_token_names_line_and_row(self, row):
        with pytest.raises(ParseError) as err:
            parse_scenario(MINIMAL.replace("8e6 0", row))
        assert err.value.line_no == 13
        assert str(err.value) == (
            f"line 13: non-numeric or non-finite volume entry in {row!r}")

    # MINIMAL holds 'volumes' on line 11, rows on lines 12-13 and 'end' on line 14
    @pytest.mark.parametrize("old,new,message", [
        ("8e6 0\n", "8e6 0 1\n", "line 13: volume row has 3 entries, need 2"),
        ("8e6 0\n", "8e6\n", "line 13: volume row has 1 entries, need 2"),
        ("8e6 0\n", "8e6 0\n0 0\n", "line 15: volume matrix has 3 rows, need 2"),
        ("0 0\n8e6 0\n", "0 0\n", "line 13: volume matrix has 1 rows, need 2"),
        ("8e6 0\nend\n", "lots 0\n", "line 13: non-numeric or non-finite volume entry in 'lots 0'"),
        ("8e6 0\nend\n", "8e6 0\n", "line 13: volumes block not closed with 'end'"),
        ("8e6 0\n", "# sender 1\n8e6 lots # bits\n",
         "line 14: non-numeric or non-finite volume entry in '8e6 lots'"),
        ("end\n", "endless\n", "line 14: non-numeric or non-finite volume entry in 'endless'"),
        ("volumes\n", "volumes 7\n", "line 11: 'volumes' takes no value"),
        ("end\n", "end junk\n", "line 14: 'end' takes no value"),
        ("end\n", "end\tjunk # x\n", "line 14: 'end' takes no value"),
        ("0 0\n8e6 0\nend\n", "0 lots\nend 1\n",
         "line 12: non-numeric or non-finite volume entry in '0 lots'"),
    ])
    def test_volume_block_error_names_line(self, old, new, message):
        with pytest.raises(ParseError) as err:
            parse_scenario(MINIMAL.replace(old, new))
        assert str(err.value) == message

    # the row follows a comment line, ends in a comment and is split by a no-break space
    @pytest.mark.parametrize("token", ["8e6", "8_000_000", "\u0668e6", "\uff18e6", "+8E+06"])
    def test_volume_entry_takes_float_syntax(self, token):
        s = parse_scenario(MINIMAL.replace("8e6 0", f"# sender 1\n{token}\xa00 # bits\t"))
        assert s.data_volumes_bits.tobytes() == np.array([[0.0, 0.0], [8e6, 0.0]]).tobytes()

    def test_ego_must_exist(self):
        with pytest.raises(Exception, match="ego"):
            parse_scenario(MINIMAL.replace("ego 0", "ego 7"))
