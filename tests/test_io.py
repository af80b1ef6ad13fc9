import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from boxtree import io
from boxtree.bench import BenchRecord
from boxtree.engine import Engine, EngineConfig
from boxtree.geometry import Box, Region
from boxtree.distributed_tree import build_distributed_tree
from boxtree.memory_tree import (
    BoxColumns, TreeNodeValue, build_memory_tree, column_tree, entry_columns, name_column, presort,
)
from boxtree.testdata import SquareGridSpec, generate_test_data

from conftest import BAD_TREES, PARSE_ERRORS, random_boxes

# The message each PARSE_ERRORS case is refused with, after its path:line
PARSE_MESSAGES = {
    "bool-coordinate": "expected a list of four numbers, got [true, true, 2, 2]",
    "bool-name": "node name must be a non-negative integer, got true",
    "float-name": "node name must be a non-negative integer, got 1.5",
    "huge-int-coordinate": "a coordinate is an integer beyond the range of a float",
    "huge-int-region": "a coordinate is an integer beyond the range of a float",
    "list-name": "node name must be a non-negative integer, got [1]",
    "negative-name": "node name must be a non-negative integer, got -3",
    "non-numeric-coordinate": 'expected a list of four numbers, got ["a", 0.0, 1.0, 1.0]',
    "null-name": "node name must be a non-negative integer, got null",
    "string-box": 'expected a list of four numbers, got "0022"',
    "string-child-name": 'node name must be a non-negative integer, got "1"',
    "string-coordinate": 'expected a list of four numbers, got ["0.0", "0.0", "1.0", "1.0"]',
    "string-region": 'expected a list of four numbers, got "0011"',
}


class TestBoxCsv:
    def test_round_trip_exact(self, tmp_path):
        boxes = random_boxes(50, seed=1)
        path = tmp_path / "boxes.csv"
        io.write_boxes_csv(path, boxes)
        assert io.read_boxes_csv(path).boxes() == boxes

    def test_awkward_floats_survive(self, tmp_path):
        from boxtree.geometry import Box

        boxes = [Box(0, 0.1, 1e-17, 1.0 / 3.0, 12345678.000000001)]
        path = tmp_path / "boxes.csv"
        io.write_boxes_csv(path, boxes)
        assert io.read_boxes_csv(path).boxes() == boxes

    def test_generation_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        io.write_boxes_csv(a, generate_test_data(SquareGridSpec(5)))
        io.write_boxes_csv(b, generate_test_data(SquareGridSpec(5)))
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2,3,4,5\n")
        with pytest.raises(ValueError):
            io.read_boxes_csv(path)

    def test_rejects_negative_name(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(io.BOX_CSV_HEADER + "\n-1,0.0,0.0,1.0,1.0\n")
        with pytest.raises(ValueError):
            io.read_boxes_csv(path)

    def test_rejects_repeated_name(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(io.BOX_CSV_HEADER + "\n5,0.0,0.0,1.0,1.0\n5,2.0,2.0,3.0,3.0\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3: repeated box name 5"):
            io.read_boxes_csv(path)

    def test_rejects_inverted_box(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(io.BOX_CSV_HEADER + "\n0,2.0,0.0,1.0,1.0\n")
        with pytest.raises(ValueError):
            io.read_boxes_csv(path)

    # int() and float() take Python literal syntax: digit separators,
    # signs and surrounding spaces; a name is ASCII digits only
    @pytest.mark.parametrize("row", [
        "1_0,0,0,1_0.5,1",
        "1,0.0,0.0,1_0.5,1.0",
        "+2,0.0,0.0,1.0,1.0",
        "2 ,0.0,0.0,1.0,1.0",
        "3, 0.0,0.0,1.0,1.0",
        "3,0.0,0.0,1.0 ,1.0",
        "3,0.0,\t0.0,1.0,1.0",
    ])
    def test_rejects_python_literal_syntax(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"{io.BOX_CSV_HEADER}\n0,0.0,0.0,1.0,1.0\n{row}\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3: "):
            io.read_boxes_csv(path)


# A good row, then each bad row as line 3: the message the row parser
# refuses it with, whichever parser sees the file first
BAD_CSV_ROWS = {
    "-1,0.0,0.0,1.0,1.0": "a name must be ASCII digits, got '-1'",
    ",0.0,0.0,1.0,1.0": "a name must be ASCII digits, got ''",
    "1.0,0.0,0.0,1.0,1.0": "a name must be ASCII digits, got '1.0'",
    "1e+3,0.0,0.0,1.0,1.0": "a name must be ASCII digits, got '1e+3'",
    "0,0.0,0.0,1.0,1.0": "repeated box name 0",
    "1,2.0,0.0,1.0,1.0": "box 1 has inverted extents: (2.0, 0.0, 1.0, 1.0)",
    "1,0.0,2.0,1.0,1.0": "box 1 has inverted extents: (0.0, 2.0, 1.0, 1.0)",
    "1,nan,0.0,1.0,1.0": "box 1 has a non-finite coordinate: (nan, 0.0, 1.0, 1.0)",
    "1,0.0,0.0,inf,1.0": "box 1 has a non-finite coordinate: (0.0, 0.0, inf, 1.0)",
    "1,0.0,0.0,1e400,1.0": "box 1 has a non-finite coordinate: (0.0, 0.0, inf, 1.0)",
    "1,-1e400,0.0,1.0,1.0": "box 1 has a non-finite coordinate: (-inf, 0.0, 1.0, 1.0)",
    "1,0.0,0.0,1.0": "expected 5 fields, got 4",
    "1,0.0,0.0,1.0,1.0,2.0": "expected 5 fields, got 6",
    **{f"1,0.0,0.0,1.0,{number}": f"could not convert string to float: '{number}'"
       for number in ["", "x", "1.2.3", "1-2", "-", "1e", "1e+", "0x10", "--1", "1.0e+5.5", "+-1"]},
}

# valid files spelled otherwise than write_boxes_csv spells them
HAND_EDITED_CSV = {
    "crlf": "0,0.0,0.0,1.0,1.0\r\n1,2.0,2.0,3.0,3.0\r\n",
    "blank-lines": "\n0,0.0,0.0,1.0,1.0\n\n1,2.0,2.0,3.0,3.0\n\n",
    "no-final-newline": "0,0.0,0.0,1.0,1.0\n1,2.0,2.0,3.0,3.0",
    "exponent-without-sign": "0,0.0,0.0,1e5,1.0\n1,2.0,2.0,3.0,3.0\n",
    "capital-exponent": "0,0.0,0.0,1E+5,1.0\n1,2.0,2.0,3.0,3.0\n",
    "name-of-2^53": f"{2**53},0.0,0.0,1.0,1.0\n1,2.0,2.0,3.0,3.0\n",
    "name-of-2^63": f"{2**63},0.0,0.0,1.0,1.0\n1,2.0,2.0,3.0,3.0\n",
    "leading-zero-name": "007,0.0,0.0,1.0,1.0\n1,2.0,2.0,3.0,3.0\n",
    "leading-zero-number": "0,00.5,0.0,1.0,1.0\n1,2.0,2.0,3.0,3.0\n",
    "plus-sign": "0,+0.5,0.0,1.0,1.0\n1,2.0,2.0,3.0,3.0\n",
    "bare-dots": "0,.5,0.0,1.,1.0\n1,2.0,2.0,3.0,3.0\n",
}


def assert_same_boxes(got, expected):
    """Equal box columns: the same names, of the same types, and the same
    coordinates, -0.0 apart from 0.0."""
    assert got.names.dtype == expected.names.dtype
    assert got.names.tolist() == expected.names.tolist()
    assert got.coords.shape == expected.coords.shape == (4, len(expected.names))
    assert np.array_equal(got.coords, expected.coords)
    assert np.array_equal(np.signbit(got.coords), np.signbit(expected.coords))


def _sorted_pair(pair):
    return tuple(sorted(pair))


_csv_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e22, 1.7976931348623157e308, 1e-7]),
)
def _boxes_named(names):
    return st.lists(
        st.tuples(names,
                  st.tuples(_csv_numbers, _csv_numbers).map(_sorted_pair),
                  st.tuples(_csv_numbers, _csv_numbers).map(_sorted_pair)),
        max_size=8, unique_by=lambda box: box[0],
    ).map(lambda rows: [Box(name, x[0], y[0], x[1], y[1]) for name, x, y in rows])


_csv_boxes = _boxes_named(st.integers(0, 2**53 - 1))


class TestBoxCsvColumns:
    @settings(max_examples=200, deadline=None)
    @given(boxes=_csv_boxes)
    @example(boxes=[Box(2**53 - 1, -0.0, 5e-324, 0.0, 1e22), Box(0, -1e16, -0.0, 1e-7, 0.0),
                    Box(7, 0.0, -0.0, 1.7976931348623157e308, 0.0)])
    def test_whole_file_parse_equals_the_row_parser(self, tmp_path_factory, boxes):
        path = tmp_path_factory.mktemp("csv") / "boxes.csv"
        io.write_boxes_csv(path, boxes)
        columns = io._parse_boxes(path)
        assert columns is not None
        assert_same_boxes(columns, io._read_box_rows(path))
        assert columns.boxes() == boxes

    @pytest.mark.parametrize("case", sorted(HAND_EDITED_CSV))
    def test_hand_edited_file_takes_the_row_parser(self, tmp_path, case):
        path = tmp_path / "boxes.csv"
        path.write_text(f"{io.BOX_CSV_HEADER}\n{HAND_EDITED_CSV[case]}")
        assert io._parse_boxes(path) is None
        assert_same_boxes(io.read_boxes_csv(path), io._read_box_rows(path))

    def test_number_after_the_last_newline_is_refused(self, tmp_path):
        # it would balance the empty field of line 3
        path = tmp_path / "bad.csv"
        path.write_text(f"{io.BOX_CSV_HEADER}\n0,0.0,0.0,1.0,1.0\n1,,0.0,1.0,1.0\n5")
        assert io._parse_boxes(path) is None
        with pytest.raises(ValueError) as refused:
            io.read_boxes_csv(path)
        assert str(refused.value) == f"{path}:3: could not convert string to float: ''"

    def test_names_beyond_64_bits_are_python_ints(self, tmp_path):
        path = tmp_path / "boxes.csv"
        io.write_boxes_csv(path, [Box(2**63, 0.0, 0.0, 1.0, 1.0), Box(5, 0.0, 0.0, 1.0, 1.0)])
        names = io.read_boxes_csv(path).names
        assert names.dtype == object and names.tolist() == [2**63, 5]

    def test_header_only_file_has_no_boxes(self, tmp_path):
        path = tmp_path / "boxes.csv"
        path.write_text(io.BOX_CSV_HEADER + "\n")
        columns = io.read_boxes_csv(path)
        assert columns.names.dtype == np.int64
        assert columns.names.shape == (0,) and columns.coords.shape == (4, 0)

    @pytest.mark.parametrize("row", sorted(BAD_CSV_ROWS))
    def test_bad_row_is_refused_with_its_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"{io.BOX_CSV_HEADER}\n0,0.0,0.0,1.0,1.0\n{row}\n")
        assert io._parse_boxes(path) is None
        with pytest.raises(ValueError) as refused:
            io.read_boxes_csv(path)
        assert str(refused.value) == f"{path}:3: {BAD_CSV_ROWS[row]}"


def json_dumps_tree(entries) -> bytes:
    """The tree file as json.dumps writes it, one object per node by name."""

    def child(name, region):
        return None if name is None else {"name": name, "region": list(region)}

    lines = []
    for name, v in sorted(entries, key=lambda e: e[0]):
        obj = {"name": name, "box": list(v.box[1:]),
               "lt": child(v.lt_name, v.lt_region), "gt": child(v.gt_name, v.gt_region)}
        lines.append(json.dumps(obj, separators=(",", ":")) + "\n")
    return "".join(lines).encode("ascii")


def _child(link):
    return (None, None) if link is None else (link[0], Region(*link[1]))


def _nodes_of(numbers, names):
    rects = st.tuples(numbers, numbers, numbers, numbers)
    links = st.none() | st.tuples(names, rects)
    return st.tuples(names, rects, links, links)


_names = st.integers(min_value=0, max_value=2**70)
# any JSON number: NaN, both infinities and ints beyond 2^53 included
_nodes = _nodes_of(st.one_of(st.floats(), st.integers(),
                             st.sampled_from([-0.0, 5e-324, 1e16, 1e22, 2**63, -(2**70)])), _names)
# the finite floats that write_tree_jsonl writes
_finite_nodes = _nodes_of(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                    st.sampled_from([-0.0, 5e-324, 1e16, 1e22, 2.0**63, -(2.0**70)])),
                          _names)


def _entries(nodes):
    return [(name, TreeNodeValue(Box(name, *box), *_child(lt), *_child(gt)))
            for name, box, lt, gt in nodes]


def assert_same_columns(got, expected):
    """Equal raw columns: the same name ints and child names (-1 for no
    child), all of one dtype, and the same coordinates (NaN equal to NaN,
    -0.0 apart from 0.0)."""
    assert got.names.dtype == got.children.dtype == expected.names.dtype == expected.children.dtype
    assert got.names.tolist() == expected.names.tolist()
    assert {type(name) for name in got.names.tolist()} <= {int}
    assert np.array_equal(got.rects, expected.rects, equal_nan=True)
    assert np.array_equal(np.signbit(got.rects), np.signbit(expected.rects))
    assert got.children.tolist() == expected.children.tolist()


def line_parser_columns(path):
    """The columns of a tree file read line by line, as an in-process tree's."""
    return entry_columns(io._read_tree_lines(path))


# numbers and names that json.dumps writes without an exponent, the
# spelling read_tree_jsonl parses whole
_plain_numbers = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(-1e15, 1e15).filter(lambda x: "e" not in repr(x)),
    st.sampled_from([-0.0, 0.0, 0.1, 1e15]),
)
_plain_nodes = _nodes_of(_plain_numbers, st.integers(min_value=0, max_value=2**53 - 1))

# a valid tree of two lines: node 0, and node 1 as its gt child
_LINE_1 = '{"name":0,"box":[0.0,0.0,1.0,1.0],"lt":null,"gt":{"name":1,"region":[0.0,0.0,1.0,1.0]}}'
_LINE_2 = '{"name":1,"box":[0.0,0.0,1.0,1.0],"lt":null,"gt":null}'

# files spelled as write_tree_jsonl spells them, in another name order:
# read whole; a repeated name is left for the search's check to refuse
ANY_NAME_ORDER = {
    "unsorted": [_LINE_2, _LINE_1],
    "repeated-name": [_LINE_1, _LINE_2, _LINE_2],
}

# valid files spelled otherwise than write_tree_jsonl spells them
HAND_EDITED = {
    "spaces": [_LINE_1.replace(":", ": ").replace(",", ", "), _LINE_2],
    "reordered-keys": [_LINE_1, '{"gt":null,"lt":null,"box":[0.0,0.0,1.0,1.0],"name":1}'],
    "blank-lines": ["", _LINE_1, "", _LINE_2, ""],
    "exponent": [_LINE_1.replace("1.0]}}", "1E5]}}"), _LINE_2.replace("1.0,1.0]", "1e0,1E+0]")],
    "non-finite": [_LINE_1.replace("[0.0,0.0,1.0,1.0]}}", "[-Infinity,NaN,Infinity,1.0]}}"), _LINE_2],
    "name-beyond-2^53": [_LINE_1.replace('"name":1', f'"name":{2**53}'),
                         _LINE_2.replace('"name":1', f'"name":{2**53}')],
    # the integer 0, which float parsing would read as -0.0
    "minus-zero-integer": [_LINE_1, _LINE_2.replace("[0.0,0.0,", "[-0,0.0,")],
    "minus-zero-integer-last": [_LINE_1, _LINE_2.replace("1.0,1.0]", "1.0,-0]")],
    "crlf": [_LINE_1 + "\r", _LINE_2 + "\r"],
}


class TestTreeJsonl:
    def test_round_trip(self, tmp_path):
        boxes = random_boxes(40, seed=2)
        with Engine(EngineConfig(workers=1)) as engine:
            entries = build_distributed_tree(boxes, engine, 2).collect()
        path = tmp_path / "tree.jsonl"
        io.write_tree_jsonl(path, entry_columns(entries))
        assert_same_columns(io.read_tree_jsonl(path), entry_columns(entries))

    def test_built_tree_is_read_whole(self, tmp_path, monkeypatch):
        boxes = generate_test_data(SquareGridSpec(8))  # names 0..127
        boxes += [Box(1000 + b.name, *b[1:]) for b in random_boxes(40, seed=4)]
        with Engine(EngineConfig(workers=1)) as engine:
            entries = build_distributed_tree(boxes, engine, 0).collect()
        path = tmp_path / "tree.jsonl"
        io.write_tree_jsonl(path, entry_columns(entries))
        monkeypatch.setattr(io, "_read_tree_lines", None)  # the line parser is not called
        assert_same_columns(io.read_tree_jsonl(path), entry_columns(entries))

    def test_unit_square_tree_takes_the_line_parser(self, tmp_path):
        # coordinates below 1e-4, which repr writes with an exponent: the
        # line parser reads them as written
        boxes = random_boxes(200, seed=6, hi=1.0, max_side=0.05)
        boxes += [Box(1000, 5e-5, 0.0, 2e-5 + 5e-5, 1e-5), Box(1001, 0.5, 3e-7, 0.6, 0.5)]
        columns = column_tree(BoxColumns(name_column([b.name for b in boxes]),
                                         np.array([b[1:] for b in boxes], float).T.copy()))
        path = tmp_path / "tree.jsonl"
        io.write_tree_jsonl(path, columns)
        assert re.search(r"\de-", path.read_text())
        assert io._parse_written(path) is None
        assert_same_columns(io.read_tree_jsonl(path), columns)

    def test_lines_sorted_by_name(self, tmp_path):
        boxes = random_boxes(10, seed=3)
        with Engine(EngineConfig(workers=1)) as engine:
            entries = build_distributed_tree(boxes, engine, 0).collect()
        path = tmp_path / "tree.jsonl"
        io.write_tree_jsonl(path, entry_columns(entries))
        names = [int(line.split(":")[1].split(",")[0]) for line in path.read_text().splitlines()]
        assert names == sorted(names)

    def test_integer_coordinates_accepted(self, tmp_path):
        path = tmp_path / "tree.jsonl"
        path.write_text('{"name":0,"box":[0,0,1,1],"lt":{"name":1,"region":[2,2,3,3]},"gt":null}\n')
        columns = io.read_tree_jsonl(path)
        assert columns.names.tolist() == [0]
        assert columns.rects[:, :2, 0].T.tolist() == [[0.0, 0.0, 1.0, 1.0], [2.0, 2.0, 3.0, 3.0]]
        assert columns.children.tolist() == [[1, -1]]

    @settings(max_examples=100, deadline=None)
    @given(nodes=st.lists(_nodes, max_size=6, unique_by=lambda node: node[0]))
    @example(nodes=[(2**64 + 1, (-0.0, 5e-324, 1e16, 1e22), (0, (1, -2, 2**70, 0.0)), None),
                    (0, (float("nan"), float("inf"), -float("inf"), 3), None,
                     (2**63, (-0.0, float("-inf"), 1e-7, float("nan"))))])
    def test_columns_equal_the_line_parsers(self, tmp_path_factory, nodes):
        # written by json.dumps, which spells ints, NaN and the infinities
        path = tmp_path_factory.mktemp("tree") / "tree.jsonl"
        path.write_bytes(json_dumps_tree(_entries(nodes)))
        assert_same_columns(io.read_tree_jsonl(path), line_parser_columns(path))

    @settings(max_examples=100, deadline=None)
    @given(nodes=st.lists(_plain_nodes, min_size=1, max_size=6, unique_by=lambda node: node[0]))
    @example(nodes=[(2**53 - 1, (-0.0, 0.1, 2**70, -(2**70)), (0, (1, -2, 10, 0.0)), None),
                    (0, (0, 0.5, 1e15, 3), None, (2**53 - 1, (-0.0, 1, 2, 3)))])
    def test_plain_files_are_read_whole(self, tmp_path_factory, nodes):
        # written by json.dumps, so ints are spelled as ints
        path = tmp_path_factory.mktemp("tree") / "tree.jsonl"
        path.write_bytes(json_dumps_tree(_entries(nodes)))
        assert io._parse_written(path) is not None
        assert_same_columns(io.read_tree_jsonl(path), line_parser_columns(path))

    @pytest.mark.parametrize("case", sorted(HAND_EDITED))
    def test_hand_edited_file_takes_the_line_parser(self, tmp_path, case):
        path = tmp_path / "tree.jsonl"
        path.write_text("\n".join(HAND_EDITED[case]) + "\n")
        assert io._parse_written(path) is None
        assert_same_columns(io.read_tree_jsonl(path), line_parser_columns(path))

    @pytest.mark.parametrize("case", sorted(ANY_NAME_ORDER))
    def test_file_in_any_name_order_is_read_whole(self, tmp_path, case):
        path = tmp_path / "tree.jsonl"
        path.write_text("\n".join(ANY_NAME_ORDER[case]) + "\n")
        assert io._parse_written(path) is not None
        assert_same_columns(io.read_tree_jsonl(path), line_parser_columns(path))

    @settings(max_examples=100, deadline=None)
    @given(nodes=st.lists(_finite_nodes, max_size=6, unique_by=lambda node: node[0]))
    @example(nodes=[(2**64 + 1, (-0.0, 5e-324, 1e16, 1e22), (0, (1.0, -2.0, 2.0**70, 0.0)), None),
                    (0, (-1e308, 1.7976931348623157e308, -5e-324, 3.0), None,
                     (2**63, (-0.0, -1e22, 1e-7, 1e300)))])
    def test_bytes_equal_json_dumps(self, tmp_path_factory, nodes):
        entries = _entries(nodes)
        path = tmp_path_factory.mktemp("tree") / "tree.jsonl"
        io.write_tree_jsonl(path, entry_columns(entries))
        assert path.read_bytes() == json_dumps_tree(entries)

    # a number outside its slots, and an empty slot that balances its count
    @pytest.mark.parametrize("line", [
        _LINE_2.replace('"name":1', '"na5me":1').replace("1.0,1.0]", "1.0,]"),
        _LINE_2.replace('"box"', '"b1ox"').replace("[0.0,", "[,"),
        _LINE_2.replace(',"gt"', ',5"gt"').replace("[0.0,", "[,"),
        _LINE_2.replace('"lt":null', '"lt":5null').replace("[0.0,", "[,"),
        _LINE_2.replace('"lt":null', '"lt":null5').replace("[0.0,", "[,"),
        _LINE_2.replace('"gt":null', '"gt":nu15ll').replace("[0.0,", "[,"),
        _LINE_2.replace('"box":[0.0,', '"box":0.0[,'),
        _LINE_2.replace("1.0,1.0]", "1.0,]1.0"),
    ])
    def test_number_outside_its_slot_rejected(self, tmp_path, line):
        path = tmp_path / "tree.jsonl"
        path.write_text(f"{_LINE_1}\n{line}\n")
        assert io._parse_written(path) is None
        with pytest.raises(ValueError, match=r"tree\.jsonl:2: malformed tree entry: "):
            io.read_tree_jsonl(path)

    @pytest.mark.parametrize("tail", ["5", "-0"])
    def test_number_after_the_last_line_rejected(self, tmp_path, tail):
        # it would balance the empty name slot of line 2
        no_name = _LINE_2.replace('"name":1', '"name":')
        path = tmp_path / "tree.jsonl"
        path.write_text(f"{_LINE_1}\n{no_name}\n{tail}")
        assert io._parse_written(path) is None
        with pytest.raises(ValueError, match=r"tree\.jsonl:2: malformed tree entry: "):
            io.read_tree_jsonl(path)

    @pytest.mark.parametrize("number", ["1.2.3", "1.0.0", "1-2"])
    def test_malformed_last_number_rejected(self, tmp_path, number):
        # the file's last number, which the whole-file parse must read to its end
        path = tmp_path / "tree.jsonl"
        path.write_text(f"{_LINE_1}\n{_LINE_2.replace('1.0,1.0]', f'1.0,{number}]')}\n")
        assert io._parse_written(path) is None
        with pytest.raises(ValueError, match=r"tree\.jsonl:2: malformed tree entry: "):
            io.read_tree_jsonl(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "tree.jsonl"
        path.write_text('{"name":0,"box":[0,0,1,1]}\n')  # missing lt/gt
        with pytest.raises(ValueError):
            io.read_tree_jsonl(path)


class TestResultsCsv:
    def test_round_trip_sorted(self, tmp_path):
        grouped = [(5, (1, 2, 9)), (2, (0,)), (7, (3,))]
        path = tmp_path / "results.csv"
        io.write_results_csv(path, grouped)
        assert path.read_text().splitlines()[1:] == ["2,0", "5,1;2;9", "7,3"]
        assert io.read_results_csv(path) == {2: [0], 5: [1, 2, 9], 7: [3]}

    def test_rejects_repeated_query(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("query,matches\n1,2\n1,3\n")
        with pytest.raises(ValueError, match=r"results\.csv:3: repeated query name 1"):
            io.read_results_csv(path)

    @pytest.mark.parametrize("row", ["1_0,2_0;+3", "1,2;+3", "+1,2", "1,2_0", "1,2; 3"])
    def test_rejects_python_literal_syntax(self, tmp_path, row):
        path = tmp_path / "results.csv"
        path.write_text(f"query,matches\n0,1\n{row}\n")
        with pytest.raises(ValueError, match=r"results\.csv:3: "):
            io.read_results_csv(path)


class TestBenchCsv:
    def test_round_trip(self, tmp_path):
        records = [
            BenchRecord("build", 256, 4, 0, 0.125),
            BenchRecord("search", 256, 4, 1, 0.0625),
        ]
        path = tmp_path / "bench.csv"
        io.write_bench_csv(path, records)
        assert io.read_bench_csv(path) == records

    @pytest.mark.parametrize("row", [
        "build,256,4,0",
        "build,256,4,0,0.5,7",
        "train,256,4,0,0.5",
        "build,0,4,0,0.5",
        "build,256,0,0,0.5",
        "build,256,4,-1,0.5",
        "build,256,4,0,nan",
        "build,256,4,0,inf",
        "build,256,4,0,-0.5",
        "build,256,4,0,fast",
        "build,2_56,4,0,0.5",
        "build,256,4,0,0_5",
    ])
    def test_rejects_bad_row(self, tmp_path, row):
        path = tmp_path / "bench.csv"
        path.write_text(f"{io.BENCH_CSV_HEADER}\nbuild,256,4,0,0.5\n\n{row}\n")
        with pytest.raises(ValueError, match=r"bench\.csv:4: "):
            io.read_bench_csv(path)


class TestValidateTree:
    # Loading checks each line on its own; the tree-shape defects of
    # BAD_TREES are refused where the search starts (test_distributed_search).
    @pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
    def test_rejected_on_load(self, tmp_path, case):
        path = tmp_path / "tree.jsonl"
        path.write_text("\n".join(BAD_TREES[case]) + "\n")
        message = "tree.jsonl:1: malformed tree entry: " + PARSE_MESSAGES[case]
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            io.read_tree_jsonl(path)

    @pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
    def test_rejected_on_load_when_spelled_as_written(self, tmp_path, case):
        # without json.dumps's spaces, as write_tree_jsonl spells a line
        lines = [json.dumps(json.loads(line), separators=(",", ":")) for line in BAD_TREES[case]]
        path = tmp_path / "tree.jsonl"
        path.write_text("\n".join(lines) + "\n")
        message = "tree.jsonl:1: malformed tree entry: " + PARSE_MESSAGES[case]
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            io.read_tree_jsonl(path)

    # JSON refuses each of these numbers, where float() takes all but "-",
    # "1e" and "1-2"; and a name must be an int
    @pytest.mark.parametrize("spelling", [
        *(("box", number) for number in ["01", "+1", "1.", ".5", "-", "1e", "-01", "1-2", "1..2", ""]),
        *(("region", number) for number in ["01", "+1", "1.", ".5", "-", "1e", "-01", "-.5", ""]),
        *(("name", number) for number in ["1.0", "10.0", "1e0", "01", "-1", "+1", ""]),
    ])
    def test_non_json_number_rejected(self, tmp_path, spelling):
        where, number = spelling
        # line 2 of a file read whole but for the number
        line = _LINE_1.replace('"name":1', '"name":2').replace('"name":0', '"name":1')
        path = tmp_path / "tree.jsonl"
        path.write_text(f"{_LINE_1}\n{line}\n")
        assert io._parse_written(path) is not None
        if where == "box":
            bad = line.replace("[0.0,0.0,1.0,1.0],", f"[0.0,0.0,{number},1.0],")
        elif where == "region":
            bad = line.replace('"region":[0.0', f'"region":[{number}')
        else:
            bad = line.replace('"name":2', f'"name":{number}')
        assert bad != line
        path.write_text(f"{_LINE_1}\n{bad}\n")
        with pytest.raises(ValueError, match=r"tree\.jsonl:2: malformed tree entry: "):
            io.read_tree_jsonl(path)


LAYERING = """
import sys
import boxtree.io
print(sorted(m for m in ("boxtree.distributed_search", "boxtree.engine") if m in sys.modules))
"""


def test_io_imports_neither_the_search_nor_the_engine():
    # the file formats sit below the search: a fresh interpreter shows
    # what importing them pulls in
    src = str(Path(io.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", LAYERING], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# Each reader, its file's header (None for a tree file) and a good line for a number
READERS = {
    "boxes": (io.read_boxes_csv, io.BOX_CSV_HEADER, "{},0.0,0.0,1.0,1.0"),
    "results": (io.read_results_csv, io.RESULTS_CSV_HEADER, "{},1;2"),
    "bench": (io.read_bench_csv, io.BENCH_CSV_HEADER, "build,{},4,0,0.5"),
    "tree": (io.read_tree_jsonl, None, '{{"name":{},"box":[0.0,0.0,1.0,1.0],"lt":null,"gt":null}}'),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("good_lines", [1, 999])
def test_non_ascii_byte_is_refused_with_its_line(tmp_path, reader, good_lines):
    # past the first read-ahead buffer too, which is decoded whole
    read, header, line = READERS[reader]
    lines = [line.format(i + 1) for i in range(good_lines + 1)]
    lines[-1] = lines[-1].replace(",", ",\u00e9", 1)  # two bytes: 0xc3 0xa9
    path = tmp_path / "file"
    path.write_bytes("\n".join(([header] if header else []) + lines + [""]).encode("utf-8"))
    lineno = good_lines + 1 + (header is not None)
    column = lines[-1].index("\u00e9") + 1
    with pytest.raises(ValueError) as refused:
        read(path)
    assert str(refused.value) == f"{path}:{lineno}: non-ASCII byte 0xc3 at column {column}"


class TestOneColumnForm:
    # every maker of tree columns gives the same tree the same columns
    # (column_tree, the whole-file parse, the line parser, entry_columns):
    # names and child names int64 below 2^63, Python ints from there, -1
    # for no child either way
    @settings(max_examples=60, deadline=None)
    @given(boxes=_boxes_named(st.integers(0, 2**53 - 1) | st.integers(2**53, 2**64)))
    @example(boxes=[Box(2**53 - 1, 0.0, 0.0, 1.0, 1.0), Box(7, -0.0, 0.0, 1.0, 0.5),
                    Box(0, 1.0, 1.0, 2.0, 2.0)])
    @example(boxes=[Box(2**63 - 1, 0.0, 0.0, 1.0, 1.0), Box(2**53, -0.0, 0.0, 1.0, 5e-324),
                    Box(0, 1.0, 1.0, 2.0, 2.0)])
    @example(boxes=[Box(2**63, 0.0, 0.0, 1.0, 1.0), Box(5, 0.0, -0.0, 1e22, 1.0),
                    Box(0, 1.0, 1.0, 2.0, 2.0)])
    def test_every_maker_gives_the_same_dtypes(self, tmp_path_factory, boxes):
        names = [b.name for b in boxes]
        coords = np.array([b[1:] for b in boxes], float).reshape(-1, 4).T.copy()
        built = column_tree(BoxColumns(name_column(names), coords))
        path = tmp_path_factory.mktemp("tree") / "tree.jsonl"
        io.write_tree_jsonl(path, built)
        makers = [line_parser_columns(path), entry_columns(build_memory_tree(*presort(boxes)))]
        whole = io._parse_written(path)
        # parsed whole unless a name or a number takes the line parser
        exponent = re.search(r"\de", path.read_text()) is not None
        assert (whole is None) == (not names or max(names) >= 2**53 or exponent)
        makers += [] if whole is None else [whole]
        wide = any(name >= 2**63 for name in names)
        assert built.names.dtype == (object if wide else np.int64)
        assert (built.children == -1).sum() == (len(boxes) + 1 if boxes else 0)
        for columns in makers:
            assert_same_columns(columns, built)
