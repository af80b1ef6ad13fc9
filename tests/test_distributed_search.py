import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import boxtree
from boxtree import distributed_search
from boxtree.engine import Engine, EngineConfig, PartitionedDataset
from boxtree.geometry import Box, Region, boxes_intersect
from boxtree.memory_tree import build_memory_tree, presort, tree_depth
from boxtree.distributed_tree import TreeNodeValue, build_distributed_tree
from boxtree.distributed_search import (
    init_queries,
    run_search,
    search_iteration,
    tree_root_name,
)
from boxtree.testdata import (
    SquareGridSpec,
    brute_force_intersections,
    generate_test_data,
)

from conftest import BAD_TREES, random_boxes


@pytest.fixture(scope="module")
def engine():
    with Engine(EngineConfig(workers=3)) as eng:
        yield eng


def search_dataset(engine, boxes):
    return engine.from_items([(b.name, b) for b in boxes])


def grouped_dict(result_ds):
    return {name: list(match) for name, match in result_ds.collect()}


class TestRootName:
    def test_finds_unreferenced_entry(self, engine):
        boxes = random_boxes(15, seed=0)
        tree_ds = build_distributed_tree(boxes, engine, 0)
        root = build_memory_tree(*presort(boxes))
        assert tree_root_name(tree_ds) == root.box.name

    def test_empty_tree(self, engine):
        assert tree_root_name(engine.from_items([])) is None

    def test_built_trees_and_the_empty_tree_pass(self):
        with Engine(EngineConfig(workers=2)) as engine:
            for n, cutoff in ((1, 0), (2, 0), (33, 2), (100, 64)):
                tree_ds = build_distributed_tree(random_boxes(n, seed=n), engine, cutoff)
                assert tree_root_name(tree_ds) is not None
            assert tree_root_name(engine.from_items([])) is None


def tree_entries(lines):
    """The (name, TreeNodeValue) entries of tree-file lines, built directly."""

    def child(link):
        return (None, None) if link is None else (link["name"], Region(*link["region"]))

    entries = []
    for obj in map(json.loads, lines):
        box = Box(obj["name"], *obj["box"])
        entries.append((obj["name"], TreeNodeValue(box, *child(obj["lt"]), *child(obj["gt"]))))
    return entries


# a non-numeric coordinate is a parse error, so only a tree file can have one
@pytest.mark.parametrize("case", sorted(set(BAD_TREES) - {"non-numeric-coordinate"}))
def test_in_process_bad_tree_is_refused(engine, case):
    tree_ds = engine.from_items(tree_entries(BAD_TREES[case]))
    # overlaps every region of the bad trees, so a search would descend into each defect
    query = Box(50, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        run_search(search_dataset(engine, [query]), tree_ds)


class TestInitQueries:
    def test_single_query_keyed_by_root(self, engine):
        b = Box(4, 0.0, 0.0, 1.0, 1.0)
        out = init_queries(search_dataset(engine, [b]), root_name=77)
        assert out.collect() == [(77, (4, b))]

    def test_empty_search_set(self, engine):
        out = init_queries(search_dataset(engine, []), root_name=77)
        assert out.collect() == []

    def test_all_queries_share_the_root_key(self, engine):
        boxes = random_boxes(9, seed=1)
        out = init_queries(search_dataset(engine, boxes), root_name=3)
        assert [k for k, _ in out.collect()] == [3] * 9

    def test_empty_tree_with_queries_rejected(self, engine):
        with pytest.raises(ValueError):
            init_queries(search_dataset(engine, random_boxes(2, seed=2)), None)


class TestSearchIteration:
    def test_disjoint_leaf_emits_nothing(self, engine):
        leaf = Box(0, 0.0, 0.0, 1.0, 1.0)
        tree_ds = build_distributed_tree([leaf], engine, 0)
        query = Box(9, 5.0, 5.0, 6.0, 6.0)
        queries = init_queries(search_dataset(engine, [query]), 0)
        intersections, next_queries = search_iteration(queries, tree_ds)
        assert intersections.collect() == []
        assert next_queries.collect() == []

    def test_self_excluded_but_both_children_visited(self, engine):
        boxes = [
            Box(0, 0.0, 0.0, 10.0, 10.0),
            Box(1, -5.0, -5.0, 2.0, 2.0),
            Box(2, 8.0, 8.0, 15.0, 15.0),
        ]
        tree_ds = build_distributed_tree(boxes, engine, 0)
        root_name = tree_root_name(tree_ds)
        root_value = dict(tree_ds.collect())[root_name]
        query = root_value.box  # identical to the root's own box
        queries = init_queries(search_dataset(engine, [query]), root_name)
        intersections, next_queries = search_iteration(queries, tree_ds)
        assert intersections.collect() == []  # self intersection dropped
        assert sorted(k for k, _ in next_queries.collect()) == sorted(
            [root_value.lt_name, root_value.gt_name]
        )

    def test_descent_keys_match_region_predicate_oracle(self, engine):
        boxes = random_boxes(64, seed=17, max_side=120.0)
        tree_ds = build_distributed_tree(boxes, engine, 2)
        root_name = tree_root_name(tree_ds)
        root_value = dict(tree_ds.collect())[root_name]
        queries = init_queries(search_dataset(engine, boxes), root_name)
        _, next_queries = search_iteration(queries, tree_ds)

        expected = []
        for b in boxes:
            for child, region in (
                (root_value.lt_name, root_value.lt_region),
                (root_value.gt_name, root_value.gt_region),
            ):
                if child is not None and boxes_intersect(b, region):
                    expected.append((child, (b.name, b)))
        got = next_queries.collect()
        assert sorted(got) == sorted(expected)


def reference_pass(query_ds, tree_ds):
    """Reference pass: materialize every visit with a plain join, then walk
    the visits once for pairs and once for next-pass queries."""
    visit = query_ds.join(tree_ds)

    def intersections(element):
        node_name, ((query_name, query_box), value) = element
        if boxes_intersect(query_box, value.box) and query_box != value.box:
            return ((query_name, node_name),)
        return ()

    def next_queries(element):
        _, (query, value) = element
        out = []
        if value.lt_name is not None and boxes_intersect(query[1], value.lt_region):
            out.append((value.lt_name, query))
        if value.gt_name is not None and boxes_intersect(query[1], value.gt_region):
            out.append((value.gt_name, query))
        return out

    return visit.flat_map(intersections), visit.flat_map(next_queries)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_search_iteration_equals_join_then_two_flat_maps(workers):
    boxes = random_boxes(300, seed=23, max_side=120.0)
    with Engine(EngineConfig(workers=workers)) as eng:
        tree_ds = build_distributed_tree(boxes, eng, 2)
        queries = init_queries(search_dataset(eng, boxes), tree_root_name(tree_ds))
        passes = 0
        while not queries.is_empty():
            expected_pairs, expected_next = reference_pass(queries, tree_ds)
            pairs, queries = search_iteration(queries, tree_ds)
            assert pairs.partitions == expected_pairs.partitions
            assert queries.partitions == expected_next.partitions
            passes += 1
        assert passes > 2


class TestRunSearch:
    def test_single_box_only_matches_itself(self, engine):
        b = Box(0, 0.0, 0.0, 1.0, 1.0)
        tree_ds = build_distributed_tree([b], engine, 0)
        assert run_search(search_dataset(engine, [b]), tree_ds).collect() == []

    def test_query_named_like_another_tree_box_keeps_its_match(self, engine):
        # only the query's own box is skipped, not every box of its name
        tree = [Box(0, 0.0, 0.0, 10.0, 10.0), Box(1, 50.0, 50.0, 60.0, 60.0)]
        queries = [Box(0, 5.0, 5.0, 6.0, 6.0), Box(7, 5.0, 5.0, 6.0, 6.0)]
        tree_ds = build_distributed_tree(tree, engine, 0)
        result = run_search(search_dataset(engine, queries), tree_ds)
        assert result.collect() == [(0, (0,)), (7, (0,))]

    def test_identical_pair_report_each_other(self, engine):
        boxes = [Box(0, 0.0, 0.0, 1.0, 1.0), Box(1, 0.0, 0.0, 1.0, 1.0)]
        tree_ds = build_distributed_tree(boxes, engine, 0)
        result = run_search(search_dataset(engine, boxes), tree_ds)
        assert result.collect() == [(0, (1,)), (1, (0,))]

    def test_one_square_has_nine_intersecting(self, engine):
        boxes = generate_test_data(SquareGridSpec(1))
        tree_ds = build_distributed_tree(boxes, engine, 2)
        grouped = grouped_dict(run_search(search_dataset(engine, boxes), tree_ds))
        assert len(grouped) == 9
        assert grouped == brute_force_intersections(boxes)

    def test_empty_search_empty_tree(self, engine):
        empty = engine.from_items([])
        assert run_search(empty, empty).collect() == []

    def test_nonempty_search_empty_tree_rejected(self, engine):
        with pytest.raises(ValueError):
            run_search(search_dataset(engine, random_boxes(3, seed=0)), engine.from_items([]))

    @pytest.mark.parametrize("n,seed", [(64, 40), (256, 41), (1024, 42)])
    def test_completeness_vs_brute_force(self, engine, n, seed):
        boxes = random_boxes(n, seed=seed, max_side=90.0)
        tree_ds = build_distributed_tree(boxes, engine, 3)
        grouped = grouped_dict(run_search(search_dataset(engine, boxes), tree_ds))
        assert grouped == brute_force_intersections(boxes)

    def test_soundness_every_pair_intersects(self, engine):
        boxes = random_boxes(128, seed=50, max_side=200.0)
        by_name = {b.name: b for b in boxes}
        tree_ds = build_distributed_tree(boxes, engine, 0)
        for query, matches in run_search(search_dataset(engine, boxes), tree_ds).collect():
            for m in matches:
                assert m != query
                assert boxes_intersect(by_name[query], by_name[m])

    def test_worker_invariance(self):
        boxes = random_boxes(160, seed=51, max_side=150.0)
        outputs = []
        for w in (1, 2, 4, 8):
            with Engine(EngineConfig(workers=w)) as eng:
                tree_ds = build_distributed_tree(boxes, eng, 2)
                outputs.append(run_search(search_dataset(eng, boxes), tree_ds).collect())
        assert all(out == outputs[0] for out in outputs)


class TestIterationBehaviour:
    def drive(self, engine, boxes, cutoff=2):
        """Run the search loop by hand, returning per-pass datasets."""
        tree_ds = build_distributed_tree(boxes, engine, cutoff)
        queries = init_queries(
            search_dataset(engine, boxes), tree_root_name(tree_ds)
        )
        passes = []
        while not queries.is_empty():
            intersections, queries = search_iteration(queries, tree_ds)
            passes.append((intersections, queries))
        return passes

    def test_iteration_count_bounded_by_levels(self, engine):
        for n, seed in ((1, 0), (2, 1), (33, 2), (128, 3), (500, 4)):
            boxes = random_boxes(n, seed=seed)
            levels = tree_depth(build_memory_tree(*presort(boxes)))
            assert len(self.drive(engine, boxes)) <= levels

    def test_no_pair_reported_twice(self, engine):
        boxes = random_boxes(200, seed=5, max_side=150.0)
        seen = []
        for intersections, _ in self.drive(engine, boxes):
            seen.extend(intersections.collect())
        assert len(seen) == len(set(seen))

    def test_tree_collected_a_fixed_number_of_times(self, engine, monkeypatch):
        # the tree is hashed once per search, not once per pass
        collects = Counter()
        original_collect = PartitionedDataset.collect

        def counting_collect(ds):
            collects[id(ds)] += 1
            return original_collect(ds)

        passes = []
        original_iteration = distributed_search.search_iteration

        def counting_iteration(queries, tree_ds):
            passes[-1] += 1
            return original_iteration(queries, tree_ds)

        monkeypatch.setattr(PartitionedDataset, "collect", counting_collect)
        monkeypatch.setattr(distributed_search, "search_iteration", counting_iteration)
        tree_collects = []
        for n in (3, 500):
            boxes = random_boxes(n, seed=n)
            tree_ds = build_distributed_tree(boxes, engine, 0)
            collects.clear()
            passes.append(0)
            run_search(search_dataset(engine, boxes), tree_ds)
            tree_collects.append(collects[id(tree_ds)])
        assert passes[0] < passes[1]
        assert tree_collects[0] == tree_collects[1] <= 2


# A tree built in-process, not read from a file: 0 -> 1 -> 2 -> 1.
CYCLIC_TREE_SEARCH = """
from boxtree.distributed_search import run_search
from boxtree.distributed_tree import TreeNodeValue
from boxtree.engine import Engine
from boxtree.geometry import Box, Region

unit = Region(0.0, 0.0, 1.0, 1.0)
with Engine() as engine:
    tree_ds = engine.from_items([
        (name, TreeNodeValue(Box(name, *unit), child, unit, None, None))
        for name, child in ((0, 1), (1, 2), (2, 1))
    ])
    try:
        run_search(engine.from_items([(9, Box(9, 0.5, 0.5, 2.0, 2.0))]), tree_ds)
    except ValueError as exc:
        print("refused:", exc)
"""


def test_cyclic_in_process_tree_is_refused_not_searched_forever():
    # in a subprocess, so a search that never ends fails the test instead of hanging it
    src = str(Path(boxtree.__file__).resolve().parents[1])
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CYCLIC_TREE_SEARCH],
            capture_output=True, text=True, timeout=30, env={**os.environ, "PYTHONPATH": src},
        )
    except subprocess.TimeoutExpired:
        pytest.fail("run_search was still running after 30 s on a cyclic tree")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused:"), proc.stdout
