"""The benchmark's checks pass the program's real output and reject corrupted copies.

    python3 -m pytest kdbench -q
"""

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from boxtree import cli  # noqa: E402
from boxtree.bench import FULL_DEPTH  # noqa: E402
from boxtree.distributed_search import run_search  # noqa: E402
from boxtree.distributed_tree import build_distributed_tree  # noqa: E402
from boxtree.engine import Engine, EngineConfig  # noqa: E402
from boxtree.geometry import Box  # noqa: E402
from boxtree.testdata import SquareGridSpec, generate_test_data  # noqa: E402
from tracer import Tracer  # noqa: E402


def _rects(boxes):
    return {b.name: run._rect(b) for b in boxes}


def _program_output(boxes, queries, cutoff=0):
    with Engine(EngineConfig(workers=2)) as engine:
        tree_ds = build_distributed_tree(boxes, engine, cutoff)
        grouped = run_search(engine.from_items([(q.name, q) for q in queries]), tree_ds).collect()
        entries = tree_ds.collect()
    return run._tree_from_entries(entries), {q: tuple(ms) for q, ms in grouped}


def _random(n, seed, first_name=0, side=(1.0, 100.0), field=1000.0):
    rng = random.Random(seed)
    return run.random_boxes(rng, Box, n, first_name, field, lambda: rng.uniform(*side))


@pytest.fixture(scope="module")
def grid_files(tmp_path_factory):
    """The grid-cli path at 64 squares: input boxes, tree text, results text."""
    tmp = tmp_path_factory.mktemp("grid")
    boxes = generate_test_data(SquareGridSpec(64))
    csv, tree, results = tmp / "boxes.csv", tmp / "tree.jsonl", tmp / "results.csv"
    from boxtree.io import write_boxes_csv

    write_boxes_csv(str(csv), boxes)
    assert cli.main(["build", "--in", str(csv), "--workers", "2", "--out", str(tree)]) == 0
    assert cli.main(["search", "--tree", str(tree), "--queries", str(csv),
                     "--workers", "2", "--out", str(results)]) == 0
    return boxes, tree.read_text(), results.read_text()


@pytest.fixture(scope="module")
def self_join():
    boxes = _random(512, 7)
    tree, got = _program_output(boxes, boxes, cutoff=FULL_DEPTH)
    return boxes, tree, got


@pytest.fixture(scope="module")
def windows():
    tree_boxes = _random(512, 8)
    queries = _random(64, 9, first_name=512, side=(1.0, 300.0))
    tree, got = _program_output(tree_boxes, queries)
    return tree_boxes, queries, tree, got


# ----------------------------------------------------------------------
# the real output passes


def test_grid_output_passes(grid_files):
    boxes, tree_text, results_text = grid_files
    tree, problems = checks.parse_tree_jsonl(tree_text)
    got, more = checks.parse_results_csv(results_text)
    expected, grid = checks.expected_grid_matches([tuple(b) for b in boxes])
    assert problems == more == grid == []
    assert len(expected) == 9 * 64
    assert checks.check_tree(tree, _rects(boxes)) == []
    assert checks.compare_matches(got, expected) == []


def test_self_join_output_passes(self_join):
    boxes, tree, got = self_join
    expected = checks.expected_matches([tuple(b) for b in boxes], [tuple(b) for b in boxes])
    assert expected, "the input should have intersecting pairs"
    assert checks.check_tree(tree, _rects(boxes)) == []
    assert checks.compare_matches(got, expected) == []


def test_window_output_passes(windows):
    tree_boxes, queries, tree, got = windows
    expected = checks.expected_matches([tuple(q) for q in queries], [tuple(b) for b in tree_boxes])
    assert checks.check_tree(tree, _rects(tree_boxes)) == []
    assert checks.compare_matches(got, expected) == []


# ----------------------------------------------------------------------
# corrupted output is rejected


def _drop_pair(got):
    bad = dict(got)
    q = next(q for q, ms in bad.items() if len(ms) > 1)
    bad[q] = bad[q][1:]
    return bad


def _extra_pair(got, names):
    bad = dict(got)
    q = next(iter(bad))
    extra = next(n for n in sorted(names) if n not in bad[q] and n != q)
    bad[q] = tuple(sorted(bad[q] + (extra,)))
    return bad


def test_grid_search_check_rejects_dropped_and_extra_pair(grid_files):
    boxes, _, results_text = grid_files
    got, _ = checks.parse_results_csv(results_text)
    expected, _ = checks.expected_grid_matches([tuple(b) for b in boxes])
    assert checks.compare_matches(_drop_pair(got), expected)
    assert checks.compare_matches(_extra_pair(got, [b.name for b in boxes]), expected)
    dropped_row = "\n".join(results_text.splitlines()[:-1])
    assert checks.compare_matches(checks.parse_results_csv(dropped_row)[0], expected)


def test_self_join_check_rejects_dropped_and_extra_pair(self_join):
    boxes, _, got = self_join
    expected = checks.expected_matches([tuple(b) for b in boxes], [tuple(b) for b in boxes])
    assert checks.compare_matches(_drop_pair(got), expected)
    assert checks.compare_matches(_extra_pair(got, [b.name for b in boxes]), expected)


def test_window_check_rejects_dropped_and_extra_pair(windows):
    tree_boxes, queries, _, got = windows
    expected = checks.expected_matches([tuple(q) for q in queries], [tuple(b) for b in tree_boxes])
    assert checks.compare_matches(_drop_pair(got), expected)
    assert checks.compare_matches(_extra_pair(got, [b.name for b in tree_boxes]), expected)


def _root(tree):
    referenced = {c for node in tree.values() for c in (node[1], node[3]) if c is not None}
    return next(name for name in tree if name not in referenced)


def test_tree_check_rejects_lt_gt_swap(self_join):
    """Swapping a node's two links keeps the structure but breaks the median order."""
    boxes, tree, _ = self_join
    bad = dict(tree)
    root = _root(bad)
    box, lt, lt_region, gt, gt_region = bad[root]
    bad[root] = (box, gt, gt_region, lt, lt_region)
    problems = checks.check_tree(bad, _rects(boxes))
    assert any("not below" in p or "not above" in p for p in problems)


def test_tree_check_rejects_child_link_swapped_between_nodes(grid_files):
    """Two parents trading children: each region no longer encloses its subtree."""
    boxes, tree_text, _ = grid_files
    tree, _ = checks.parse_tree_jsonl(tree_text)
    root = _root(tree)
    a, b = tree[root][1], tree[root][3]
    a_node, b_node = tree[a], tree[b]
    tree[a] = (a_node[0], b_node[1], a_node[2], a_node[3], a_node[4])
    tree[b] = (b_node[0], a_node[1], b_node[2], b_node[3], b_node[4])
    problems = checks.check_tree(tree, _rects(boxes))
    assert any("does not enclose" in p for p in problems)


def test_tree_check_rejects_cycle_and_lost_node(grid_files):
    boxes, tree_text, _ = grid_files
    tree, _ = checks.parse_tree_jsonl(tree_text)
    leaf = next(name for name, node in tree.items() if node[1] is None and node[3] is None)
    root = _root(tree)
    cyclic = dict(tree)
    cyclic[leaf] = (tree[leaf][0], root, tree[root][0], None, None)
    assert checks.check_tree(cyclic, _rects(boxes))
    lost = dict(tree)
    del lost[leaf]
    assert checks.check_tree(lost, _rects(boxes))
    duplicated = tree_text + tree_text.splitlines()[0] + "\n"
    assert checks.parse_tree_jsonl(duplicated)[1]


def _kd_tree(boxes, shift_at_root=0, depth=0):
    """Reference k-d build on (name, x0, y0, x1, y1) rows; the root may split off-median."""
    if not boxes:
        return None, None, {}
    axis = depth % 2
    rows = sorted(boxes, key=lambda b: (b[1 + axis], b[0]))
    m = len(rows) // 2 + (shift_at_root if depth == 0 else 0)
    lt, lt_region, lt_nodes = _kd_tree(rows[:m], 0, depth + 1)
    gt, gt_region, gt_nodes = _kd_tree(rows[m + 1:], 0, depth + 1)
    me = rows[m]
    region = me[1:]
    for r in (lt_region, gt_region):
        if r is not None:
            region = checks._union(region, r)
    nodes = {**lt_nodes, **gt_nodes, me[0]: (me[1:], lt, lt_region, gt, gt_region)}
    return me[0], region, nodes


def test_tree_check_rejects_unbalanced_split():
    boxes = [tuple(b) for b in _random(200, 3)]
    rects = {b[0]: b[1:] for b in boxes}
    assert checks.check_tree(_kd_tree(boxes)[2], rects) == []
    unbalanced = _kd_tree(boxes, shift_at_root=2)[2]
    problems = checks.check_tree(unbalanced, rects)
    assert any("unbalanced split" in p for p in problems)


def test_tree_check_rejects_wrong_box():
    boxes = [tuple(b) for b in _random(50, 4)]
    rects = {b[0]: b[1:] for b in boxes}
    tree = _kd_tree(boxes)[2]
    name = next(iter(tree))
    node = tree[name]
    tree[name] = ((node[0][0] + 1,) + node[0][1:],) + node[1:]
    assert checks.check_tree(tree, rects)


# ----------------------------------------------------------------------
# the tracer


def test_tracer_records_spans_and_restores_the_program():
    from boxtree import distributed_tree, engine

    modules = run._import_boxtree()
    originals = (distributed_tree.four_way_presort, engine.PartitionedDataset.filter)
    tracer = Tracer()
    tracer.install(modules)
    try:
        # the untimed gc.collect() before a timed call is not the program's pause
        run._timed(lambda: None, tracer=tracer, phase="build")
        assert "gc.build.pause_s" not in tracer.snapshot()["counts"]
        boxes = _random(64, 5)
        with Engine(EngineConfig(workers=2)) as eng:
            tree_ds, _ = run._timed(distributed_tree.build_distributed_tree, boxes, eng,
                                    FULL_DEPTH, tracer=tracer, phase="build")
            run_search(eng.from_items([(b.name, b) for b in boxes]), tree_ds).collect()
    finally:
        tracer.uninstall()
    assert (distributed_tree.four_way_presort, engine.PartitionedDataset.filter) == originals
    snap = tracer.snapshot()
    for name in ("distributed_tree.four_way_presort", "engine.filter", "engine.split_at",
                 "engine.per_partition", "distributed_search.search_iteration"):
        span = snap["spans"][name]
        assert span["calls"] > 0 and 0 <= span["self_s"] <= span["total_s"]
    assert snap["counts"]["distributed_search.visits"] > 0


def test_tracer_fails_on_a_name_that_is_gone():
    from boxtree import distributed_tree

    tracer = Tracer()
    with pytest.raises(AttributeError):
        tracer.patch(distributed_tree, "no_such_layer", "distributed_tree.no_such_layer")
    assert tracer.snapshot()["spans"] == {}
