import pytest

from boxtree import cli, distributed_search, io, memory_tree
from boxtree.cli import main
from boxtree.distributed_search import entry_columns
from boxtree.distributed_tree import build_distributed_tree
from boxtree.engine import Engine, EngineConfig
from boxtree.geometry import Box
from boxtree.testdata import SquareGridSpec, generate_test_data

from conftest import BAD_TREES, random_boxes


def run(argv):
    return main([str(a) for a in argv])


class TestGen:
    def test_writes_boxes(self, tmp_path, capsys):
        out = tmp_path / "boxes.csv"
        assert run(["gen", "--squares", 3, "--out", out]) == 0
        assert len(io.read_boxes_csv(out).names) == 48

    def test_bad_square_count_exits_2(self, tmp_path):
        assert run(["gen", "--squares", 0, "--out", tmp_path / "x.csv"]) == 2

    @pytest.mark.parametrize("side", ["nan", "inf"])
    def test_non_finite_side_exits_2(self, tmp_path, side):
        out = tmp_path / "x.csv"
        assert run(["gen", "--squares", 1, "--side", side, "--out", out]) == 2
        assert not out.exists()

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["gen", "--squares", 2, "--out", a])
        run(["gen", "--squares", 2, "--out", b])
        assert a.read_bytes() == b.read_bytes()


class TestBuildSearchPipeline:
    @pytest.fixture()
    def boxes_csv(self, tmp_path):
        path = tmp_path / "boxes.csv"
        run(["gen", "--squares", 4, "--out", path])
        return path

    def test_end_to_end_with_verification(self, tmp_path, boxes_csv, capsys):
        tree = tmp_path / "tree.jsonl"
        results = tmp_path / "results.csv"
        assert run(["build", "--in", boxes_csv, "--workers", 2, "--out", tree]) == 0
        code = run([
            "search", "--tree", tree, "--queries", boxes_csv,
            "--workers", 2, "--out", results, "--verify",
        ])
        assert code == 0
        assert "verification: ok" in capsys.readouterr().out
        assert len(io.read_results_csv(results)) == 36

    def test_search_makes_no_object_per_tree_node(self, tmp_path, boxes_csv, monkeypatch, capsys):
        # a built tree file is read whole into the search's columns: the
        # line parser, its per-node values and the entries' converter stay idle
        tree = tmp_path / "tree.jsonl"
        assert run(["build", "--in", boxes_csv, "--workers", 2, "--out", tree]) == 0

        def refuse(*args):
            raise AssertionError("a per-node object was made")

        for owner, name in ((io, "_read_tree_lines"), (io, "Region"), (io, "TreeNodeValue"),
                            (io, "entry_columns"), (distributed_search, "entry_columns")):
            monkeypatch.setattr(owner, name, refuse)
        code = run(["search", "--tree", tree, "--queries", boxes_csv, "--workers", 2,
                    "--out", tmp_path / "results.csv", "--verify"])
        assert code == 0
        assert "verification: ok" in capsys.readouterr().out

    def test_build_makes_no_object_per_node(self, tmp_path, boxes_csv, monkeypatch, capsys):
        # at cutoff 0 the box CSV is read whole into columns, built on arrays
        # and written from them: no Box, Region, TreeNodeValue or entry is made
        expected = tmp_path / "expected.jsonl"
        assert run(["build", "--in", boxes_csv, "--workers", 2, "--out", expected]) == 0

        def refuse(*args):
            raise AssertionError("a per-row or per-node object was made")

        for owner, name in ((io, "_read_rows"), (io, "Box"), (memory_tree, "Box"),
                            (memory_tree, "Region"), (memory_tree, "TreeNodeValue"),
                            (memory_tree, "presort"), (memory_tree, "build_memory_tree"),
                            (cli, "build_distributed_tree"), (cli, "entry_columns")):
            monkeypatch.setattr(owner, name, refuse)
        tree = tmp_path / "tree.jsonl"
        assert run(["build", "--in", boxes_csv, "--workers", 2, "--out", tree]) == 0
        assert tree.read_bytes() == expected.read_bytes()

    def test_verification_failure_exits_1(self, tmp_path, boxes_csv, capsys):
        tree, queries = tmp_path / "tree.jsonl", tmp_path / "queries.csv"
        run(["build", "--in", boxes_csv, "--workers", 1, "--out", tree])
        # query 0 moved from square 0 onto its twin in square 1
        boxes = io.read_boxes_csv(boxes_csv).boxes()
        boxes[0] = boxes[0]._replace(x_min=boxes[0].x_min + 100.0, x_max=boxes[0].x_max + 100.0)
        io.write_boxes_csv(queries, boxes)
        code = run([
            "search", "--tree", tree, "--queries", queries,
            "--workers", 1, "--out", tmp_path / "r.csv", "--verify",
        ])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_verification_of_a_partial_square_exits_1(self, tmp_path, boxes_csv, capsys):
        tree, queries = tmp_path / "tree.jsonl", tmp_path / "queries.csv"
        run(["build", "--in", boxes_csv, "--workers", 1, "--out", tree])
        # a 65th query that meets nothing leaves the results of the 4 squares
        # as they are, but 65 queries are not a whole number of squares
        io.write_boxes_csv(queries, io.read_boxes_csv(boxes_csv).boxes() + [Box(64, -9.0, -9.0, -8.0, -8.0)])
        code = run([
            "search", "--tree", tree, "--queries", queries,
            "--workers", 1, "--out", tmp_path / "r.csv", "--verify",
        ])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_names_beyond_64_bits(self, tmp_path):
        big = 99999999999999999999
        boxes, tree, results = tmp_path / "boxes.csv", tmp_path / "tree.jsonl", tmp_path / "r.csv"
        io.write_boxes_csv(boxes, [Box(5, 0.0, 0.0, 2.0, 2.0), Box(big, 1.0, 1.0, 3.0, 3.0)])
        assert run(["build", "--in", boxes, "--workers", 2, "--out", tree]) == 0
        assert run(["search", "--tree", tree, "--queries", boxes,
                    "--workers", 2, "--out", results]) == 0
        assert results.read_text() == f"query,matches\n5,{big}\n{big},5\n"

    @pytest.mark.parametrize("case", sorted(BAD_TREES))
    def test_malformed_tree_exits_2(self, tmp_path, case):
        tree, queries = tmp_path / "tree.jsonl", tmp_path / "queries.csv"
        tree.write_text("\n".join(BAD_TREES[case]) + "\n")
        # a query that overlaps every region of the bad trees, so the search
        # would descend into each defect
        io.write_boxes_csv(queries, [Box(50, 0.0, 0.0, 1.0, 1.0)])
        code = run(["search", "--tree", tree, "--queries", queries,
                    "--workers", 1, "--out", tmp_path / "r.csv"])
        assert code == 2

    def test_no_queries_against_an_empty_tree(self, tmp_path):
        boxes, tree, results = tmp_path / "boxes.csv", tmp_path / "tree.jsonl", tmp_path / "r.csv"
        boxes.write_text(io.BOX_CSV_HEADER + "\n")
        assert run(["build", "--in", boxes, "--workers", 2, "--out", tree]) == 0
        assert run(["search", "--tree", tree, "--queries", boxes,
                    "--workers", 2, "--out", results]) == 0
        assert results.read_text() == "query,matches\n"

    def test_repeated_query_name_exits_2(self, tmp_path, capsys):
        boxes, tree = tmp_path / "boxes.csv", tmp_path / "tree.jsonl"
        queries, results = tmp_path / "queries.csv", tmp_path / "r.csv"
        io.write_boxes_csv(boxes, [Box(0, 0.5, 0.5, 2.0, 2.0), Box(1, 100.5, 100.5, 102.0, 102.0)])
        assert run(["build", "--in", boxes, "--workers", 1, "--out", tree]) == 0
        # two queries named 5, each meeting a different tree box: their
        # answers must not be merged into one row
        queries.write_text(io.BOX_CSV_HEADER + "\n5,0.0,0.0,1.0,1.0\n5,101.0,101.0,103.0,103.0\n")
        code = run(["search", "--tree", tree, "--queries", queries,
                    "--workers", 1, "--out", results])
        assert code == 2
        assert "queries.csv:3: repeated box name 5" in capsys.readouterr().err
        assert not results.exists()

    def test_name_in_python_literal_syntax_exits_2(self, tmp_path, capsys):
        boxes = tmp_path / "boxes.csv"
        boxes.write_text(io.BOX_CSV_HEADER + "\n1_0,0,0,1_0.5,1\n")
        assert run(["build", "--in", boxes, "--workers", 1, "--out", tmp_path / "t.jsonl"]) == 2
        assert "boxes.csv:2: " in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path):
        code = run(["build", "--in", tmp_path / "nope.csv", "--workers", 1,
                    "--out", tmp_path / "t.jsonl"])
        assert code == 2

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["gen", "--squares", 1, "--frobnicate", "--out", tmp_path / "x.csv"])
        assert exc.value.code == 2


# Box sets whose tree files the CLI writes as the entry build's writer does
CLI_BOX_SETS = {
    "grid": generate_test_data(SquareGridSpec(6)),
    "random": random_boxes(300, seed=9),
    # ties of -0.0 with 0.0, the smallest subnormal and floats written with
    # an exponent, which the whole-file parse reads
    "awkward": [Box(name, *xy) for name, xy in enumerate([
        (-0.0, 0.0, 0.0, 1.0), (0.0, -0.0, 1.0, 0.0), (-0.0, -0.0, -0.0, -0.0),
        (5e-324, 0.0, 1e16, 5e-324), (-1e22, -1e-7, 0.0, 1e300), (0.0, 5e-324, 2.5, 1e16),
        (-0.0, 1.5, 0.0, 2.5), (1e-7, -0.0, 1e22, 0.0)])],
    # names beyond 64 bits, which take the row parser
    "big-names": [Box(2**64 + 3 * b.name if b.name % 2 else b.name, *b[1:])
                  for b in random_boxes(40, seed=4)],
}


class TestBuildFile:
    @pytest.mark.parametrize("cutoff", [0, 2])
    @pytest.mark.parametrize("case", sorted(CLI_BOX_SETS))
    def test_tree_file_is_the_entry_builds(self, tmp_path, case, cutoff):
        boxes_csv, tree, expected = tmp_path / "boxes.csv", tmp_path / "tree.jsonl", tmp_path / "e.jsonl"
        io.write_boxes_csv(boxes_csv, CLI_BOX_SETS[case])
        assert run(["build", "--in", boxes_csv, "--workers", 2, "--cutoff-depth", cutoff,
                    "--out", tree]) == 0
        with Engine(EngineConfig(workers=1)) as engine:
            entries = build_distributed_tree(CLI_BOX_SETS[case], engine, cutoff).collect()
        io.write_tree_jsonl(expected, entry_columns(entries))
        assert tree.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("cutoff", [0, 2])
    def test_header_only_csv_builds_an_empty_tree_file(self, tmp_path, capsys, cutoff):
        boxes_csv, tree = tmp_path / "boxes.csv", tmp_path / "tree.jsonl"
        boxes_csv.write_text(io.BOX_CSV_HEADER + "\n")
        assert run(["build", "--in", boxes_csv, "--workers", 1, "--cutoff-depth", cutoff,
                    "--out", tree]) == 0
        assert tree.read_bytes() == b""
        assert "wrote 0 tree nodes" in capsys.readouterr().out


class TestBenchAndFit:
    @pytest.mark.parametrize("repeats", [0, -2])
    @pytest.mark.parametrize("kind", ["build", "search", "scaling"])
    def test_bench_refuses_repeats_below_1(self, tmp_path, capsys, kind, repeats):
        out = tmp_path / "bench.csv"
        if kind == "scaling":
            sizes = ["--exp", 4, "--max-workers", 3]
        else:
            sizes = ["--min-exp", 4, "--max-exp", 5, "--workers", 1]
        assert run(["bench", kind, *sizes, "--repeats", repeats, "--out", out]) == 2
        assert f"repeats must be >= 1, got {repeats}" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_build_then_fit(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = run([
            "bench", "build", "--min-exp", 4, "--max-exp", 6,
            "--workers", 2, "--repeats", 2, "--out", out,
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "nlogn,m," in printed and "r," in printed
        records = io.read_bench_csv(out)
        assert len(records) == 3 * 2
        assert all(r.seconds >= 0 for r in records)

        assert run(["fit", "nlogn", "--in", out]) == 0
        assert "nlogn,t_S," in capsys.readouterr().out

    @pytest.mark.parametrize("model,row", [
        ("nlogn", "build,256,1,0,nan"),
        ("nlogn", "build,0,1,0,0.5"),
        ("scaling", "build,256,0,0,0.5"),
    ])
    def test_fit_refuses_bad_row_exits_2(self, tmp_path, capsys, model, row):
        path = tmp_path / "bench.csv"
        path.write_text(f"{io.BENCH_CSV_HEADER}\nbuild,256,1,0,0.5\nbuild,512,2,0,0.9\n{row}\n")
        assert run(["fit", model, "--in", path]) == 2
        assert "bench.csv:4: " in capsys.readouterr().err

    def test_bench_scaling_then_fit(self, tmp_path, capsys):
        out = tmp_path / "scaling.csv"
        code = run([
            "bench", "scaling", "--exp", 5, "--max-workers", 3,
            "--repeats", 1, "--cutoff-depth", 2, "--out", out,
        ])
        assert code == 0
        assert "scaling,m_c," in capsys.readouterr().out
        assert run(["fit", "scaling", "--in", out]) == 0
        assert "scaling,t_p," in capsys.readouterr().out

    def test_bench_search_runs(self, tmp_path, capsys):
        out = tmp_path / "bench_search.csv"
        code = run([
            "bench", "search", "--min-exp", 4, "--max-exp", 6,
            "--workers", 1, "--repeats", 1, "--out", out,
        ])
        assert code == 0
        assert all(r.phase == "search" for r in io.read_bench_csv(out))
