import json

import pytest
from hypothesis import example, given, settings, strategies as st

from boxtree import io
from boxtree.bench import BenchRecord
from boxtree.engine import Engine, EngineConfig
from boxtree.geometry import Box, Region
from boxtree.distributed_tree import build_distributed_tree
from boxtree.memory_tree import TreeNodeValue
from boxtree.testdata import SquareGridSpec, generate_test_data

from conftest import BAD_TREES, PARSE_ERRORS, random_boxes


class TestBoxCsv:
    def test_round_trip_exact(self, tmp_path):
        boxes = random_boxes(50, seed=1)
        path = tmp_path / "boxes.csv"
        io.write_boxes_csv(path, boxes)
        assert io.read_boxes_csv(path) == boxes

    def test_awkward_floats_survive(self, tmp_path):
        from boxtree.geometry import Box

        boxes = [Box(0, 0.1, 1e-17, 1.0 / 3.0, 12345678.000000001)]
        path = tmp_path / "boxes.csv"
        io.write_boxes_csv(path, boxes)
        assert io.read_boxes_csv(path) == boxes

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


_numbers = st.one_of(
    st.floats(),  # NaN and both infinities included
    st.integers(),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e22, 2**63, -(2**70)]),
)
_names = st.integers(min_value=0, max_value=2**70)
_rects = st.tuples(_numbers, _numbers, _numbers, _numbers)
_links = st.none() | st.tuples(_names, _rects)
_nodes = st.tuples(_names, _rects, _links, _links)


class TestTreeJsonl:
    def test_round_trip(self, tmp_path):
        boxes = random_boxes(40, seed=2)
        with Engine(EngineConfig(workers=1)) as engine:
            entries = build_distributed_tree(boxes, engine, 2).collect()
        path = tmp_path / "tree.jsonl"
        io.write_tree_jsonl(path, entries)
        back = io.read_tree_jsonl(path)
        assert back == sorted(entries, key=lambda e: e[0])

    def test_lines_sorted_by_name(self, tmp_path):
        boxes = random_boxes(10, seed=3)
        with Engine(EngineConfig(workers=1)) as engine:
            entries = build_distributed_tree(boxes, engine, 0).collect()
        path = tmp_path / "tree.jsonl"
        io.write_tree_jsonl(path, entries)
        names = [int(line.split(":")[1].split(",")[0]) for line in path.read_text().splitlines()]
        assert names == sorted(names)

    def test_integer_coordinates_accepted(self, tmp_path):
        path = tmp_path / "tree.jsonl"
        path.write_text('{"name":0,"box":[0,0,1,1],"lt":{"name":1,"region":[2,2,3,3]},"gt":null}\n')
        ((_, value),) = io.read_tree_jsonl(path)
        assert value.box == Box(0, 0.0, 0.0, 1.0, 1.0)
        assert value.lt_region == Region(2.0, 2.0, 3.0, 3.0)

    @settings(max_examples=100, deadline=None)
    @given(nodes=st.lists(_nodes, max_size=6, unique_by=lambda node: node[0]))
    @example(nodes=[(2**64 + 1, (-0.0, 5e-324, 1e16, 1e22), (0, (1, -2, 2**70, 0.0)), None),
                    (0, (float("nan"), float("inf"), -float("inf"), 3), None,
                     (2**63, (-0.0, float("-inf"), 1e-7, float("nan"))))])
    def test_bytes_equal_json_dumps(self, tmp_path_factory, nodes):
        entries = [(name, TreeNodeValue(Box(name, *box), *_child(lt), *_child(gt)))
                   for name, box, lt, gt in nodes]
        path = tmp_path_factory.mktemp("tree") / "tree.jsonl"
        io.write_tree_jsonl(path, entries)
        assert path.read_bytes() == json_dumps_tree(entries)

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
        with pytest.raises(ValueError, match=r"tree\.jsonl:\d+: "):
            io.read_tree_jsonl(path)
