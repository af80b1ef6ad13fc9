import pytest

from boxtree import io
from boxtree.bench import BenchRecord
from boxtree.engine import Engine, EngineConfig
from boxtree.distributed_tree import build_distributed_tree
from boxtree.testdata import SquareGridSpec, generate_test_data

from conftest import BAD_TREES, random_boxes


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

    def test_rejects_inverted_box(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(io.BOX_CSV_HEADER + "\n0,2.0,0.0,1.0,1.0\n")
        with pytest.raises(ValueError):
            io.read_boxes_csv(path)


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


class TestValidateTree:
    # Loading checks only the syntax of each line; the tree-shape defects of
    # BAD_TREES are refused where the search starts (test_distributed_search).
    @pytest.mark.parametrize("case", ["non-numeric-coordinate"])
    def test_rejected_on_load(self, tmp_path, case):
        path = tmp_path / "tree.jsonl"
        path.write_text("\n".join(BAD_TREES[case]) + "\n")
        with pytest.raises(ValueError):
            io.read_tree_jsonl(path)
