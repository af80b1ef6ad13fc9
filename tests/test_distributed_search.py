import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import boxtree
from boxtree import distributed_search, io
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

from conftest import BAD_TREES, PARSE_ERRORS, random_boxes


@pytest.fixture(scope="module")
def engine():
    with Engine(EngineConfig(workers=3)) as eng:
        yield eng


def search_dataset(engine, boxes):
    return engine.from_items([(b.name, b) for b in boxes])


def grouped_dict(result_ds):
    return {name: list(match) for name, match in result_ds.collect()}


def expand(blocks_ds, tree_ds):
    """Per partition, the blocks of a pass dataset in the search's tuple
    form, in order: a frontier block as (node name, (query name, query
    box)) tuples, a pair block as (query name, node name) tuples."""
    tree = distributed_search._columns(tree_ds).first()[1]
    node_names = tree.names.tolist()  # by position
    parts = []
    for part in blocks_ds.partitions:
        out = []
        for key, block in part:
            queries = block.queries
            names = queries.names[queries.ids[block.query]].tolist()
            if block.node is None:  # a first frontier block: every query at the root
                nodes = [node_names[tree.root]] * len(names)
            else:
                nodes = [node_names[p] for p in block.node.tolist()]
            if key is None:
                out.extend(zip(names, nodes))
            else:
                coordinates = queries.box[:, block.query].T.tolist()
                boxes = [Box(name, *xy) for name, xy in zip(names, coordinates)]
                out.extend((node, (name, box)) for node, name, box in zip(nodes, names, boxes))
        parts.append(out)
    return parts


def flat(parts):
    return [element for part in parts for element in part]


class TestRootName:
    def test_finds_unreferenced_entry(self, engine):
        boxes = random_boxes(15, seed=0)
        tree_ds = build_distributed_tree(boxes, engine, 0)
        entries = build_memory_tree(*presort(boxes))
        assert tree_root_name(tree_ds) == entries[0][0]

    def test_empty_tree(self, engine):
        assert tree_root_name(engine.from_items([])) is None

    def test_built_trees_and_the_empty_tree_pass(self):
        with Engine(EngineConfig(workers=2)) as engine:
            for n, cutoff in ((1, 0), (2, 0), (33, 2), (100, 64)):
                tree_ds = build_distributed_tree(random_boxes(n, seed=n), engine, cutoff)
                assert tree_root_name(tree_ds) is not None
            assert tree_root_name(engine.from_items([])) is None


def tight_region(boxes):
    return Region(min(b.x_min for b in boxes), min(b.y_min for b in boxes),
                  max(b.x_max for b in boxes), max(b.y_max for b in boxes))


def chain_entries(boxes):
    """A valid tree that is one chain: box i's child is box i + 1, on the
    lt side at even i and the gt side at odd i, with tight regions."""
    entries = []
    for i, b in enumerate(boxes):
        link = (None, None)
        if i + 1 < len(boxes):
            link = (boxes[i + 1].name, tight_region(boxes[i + 1 :]))
        lt, gt = (link, (None, None)) if i % 2 == 0 else ((None, None), link)
        entries.append((b.name, TreeNodeValue(b, *lt, *gt)))
    return entries


class TestAcceptedTrees:
    """Valid trees that a check of the wrong shape would refuse."""

    def test_loose_child_regions_are_searched(self, engine):
        # each child region is padded by more the deeper its child is, so
        # it still encloses its subtree but not the region above it
        boxes = random_boxes(200, seed=8, max_side=60.0)
        entries = build_memory_tree(*presort(boxes))
        depth = {entries[0][0]: 0}
        loose = []
        for name, value in entries:  # pre-order: a parent before its children
            links = []
            for child, region in ((value.lt_name, value.lt_region), (value.gt_name, value.gt_region)):
                if child is not None:
                    depth[child] = depth[name] + 1
                    pad = 10.0 * depth[child]
                    region = Region(region.x_min - pad, region.y_min - pad,
                                    region.x_max + pad, region.y_max + pad)
                links += [child, region]
            loose.append((name, TreeNodeValue(value.box, *links)))
        tree_ds = engine.from_items(loose)
        assert tree_root_name(tree_ds) == entries[0][0]
        result = run_search(search_dataset(engine, boxes), tree_ds)
        assert grouped_dict(result) == brute_force_intersections(boxes)

    def test_long_chain_is_searched(self, engine):
        boxes = random_boxes(2000, seed=9, max_side=80.0)
        tree_ds = engine.from_items(chain_entries(boxes))
        assert tree_root_name(tree_ds) == boxes[0].name
        queries = boxes[::50] + [Box(5000, 400.0, 400.0, 600.0, 600.0)]
        expected = {}
        for q in queries:
            hits = sorted(b.name for b in boxes if b != q and boxes_intersect(q, b))
            if hits:
                expected[q.name] = hits
        assert grouped_dict(run_search(search_dataset(engine, queries), tree_ds)) == expected


def subtree_boxes(by_name, name):
    value = by_name[name]
    return [value.box, *(box for child in (value.lt_name, value.gt_name) if child is not None
                         for box in subtree_boxes(by_name, child))]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 64), seed=st.integers(0, 2**16), pick=st.integers(0, 2**16),
       coordinate=st.integers(0, 3))
def test_child_region_short_of_its_subtree_is_named(engine, n, seed, pick, coordinate):
    # one child region's coordinate moved just inside its subtree's extreme
    # is refused, naming that parent and child; moved outward, it is searched
    entries = build_memory_tree(*presort(random_boxes(n, seed)))
    by_name = dict(entries)
    links = [(i, side) for i, (_, value) in enumerate(entries)
             for side in (0, 1) if (value.lt_name, value.gt_name)[side] is not None]
    i, side = links[pick % len(links)]
    name, value = entries[i]
    child = (value.lt_name, value.gt_name)[side]
    tight = list(tight_region(subtree_boxes(by_name, child)))
    outward = -1.0 if coordinate < 2 else 1.0  # a min widens down, a max up
    for moved, refused in ((math.nextafter(tight[coordinate], -outward * math.inf), True),
                           (tight[coordinate] + outward, False)):
        region = Region(*tight[:coordinate], moved, *tight[coordinate + 1:])
        changed = value._replace(**{("lt_region", "gt_region")[side]: region})
        tree_ds = engine.from_items(entries[:i] + [(name, changed)] + entries[i + 1:])
        if refused:
            message = f"node {name}: region of child {child} misses its subtree"
            with pytest.raises(ValueError, match=f"^{message}$"):
                tree_root_name(tree_ds)
        else:
            assert tree_root_name(tree_ds) == entries[0][0]


def test_names_beyond_64_bits_stay_out_of_the_frontier(engine):
    big = 99999999999999999999
    boxes = [Box(5, 0.0, 0.0, 2.0, 2.0), Box(big, 1.0, 1.0, 3.0, 3.0),
             Box(big + 1, 2.5, 2.5, 4.0, 4.0)]
    tree_ds = build_distributed_tree(boxes, engine, 0)
    queries = init_queries(search_dataset(engine, boxes), tree_root_name(tree_ds))
    blocks = []
    while not queries.is_empty():
        pairs, queries = search_iteration(queries, tree_ds)
        blocks += [block for _, block in pairs.collect() + queries.collect()]
    assert blocks
    for block in blocks:  # positions, never names
        assert block.query.dtype == block.node.dtype == np.intp
    result = run_search(search_dataset(engine, boxes), tree_ds)
    assert grouped_dict(result) == brute_force_intersections(boxes)
    assert {type(name) for name, _ in result.collect()} == {int}


def tree_entries(lines):
    """The (name, TreeNodeValue) entries of tree-file lines, built directly."""

    def child(link):
        return (None, None) if link is None else (link["name"], Region(*link["region"]))

    entries = []
    for obj in map(json.loads, lines):
        box = Box(obj["name"], *obj["box"])
        entries.append((obj["name"], TreeNodeValue(box, *child(obj["lt"]), *child(obj["gt"]))))
    return entries


@pytest.mark.parametrize("case", sorted(set(BAD_TREES) - PARSE_ERRORS))
def test_in_process_bad_tree_is_refused(engine, case):
    tree_ds = engine.from_items(tree_entries(BAD_TREES[case]))
    # overlaps every region of the bad trees, so a search would descend into each defect
    query = Box(50, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        run_search(search_dataset(engine, [query]), tree_ds)


@pytest.mark.parametrize("case", sorted(set(BAD_TREES) - PARSE_ERRORS))
def test_file_tree_is_refused_as_its_entries_are(engine, tmp_path, case):
    # spelled as write_tree_jsonl spells it, so the file is read whole
    # into columns, which take the same check as the entries
    path = tmp_path / "tree.jsonl"
    path.write_text("".join(json.dumps(json.loads(line), separators=(",", ":")) + "\n"
                            for line in BAD_TREES[case]))
    messages = []
    for tree_ds in (distributed_search.file_tree(engine, io.read_tree_jsonl(path)),
                    engine.from_items(tree_entries(BAD_TREES[case]))):
        with pytest.raises(ValueError) as refused:
            tree_root_name(tree_ds)
        messages.append(str(refused.value))
    assert messages[0] == messages[1]


def test_deepest_missed_region_is_named(engine, tmp_path):
    # bottom-up, as the regions are merged, though node 0's lt region
    # misses too and comes first in name order
    lines = BAD_TREES["two-regions-miss-subtrees"]
    path = tmp_path / "tree.jsonl"
    path.write_text("".join(json.dumps(json.loads(line), separators=(",", ":")) + "\n" for line in lines))
    for tree_ds in (distributed_search.file_tree(engine, io.read_tree_jsonl(path)),
                    engine.from_items(tree_entries(lines))):
        with pytest.raises(ValueError, match="^node 2: region of child 3 misses its subtree$"):
            tree_root_name(tree_ds)


def _unit_node(name, box_name=None, lt=(None, None)):
    return (name, TreeNodeValue(Box(name if box_name is None else box_name, 0.0, 0.0, 1.0, 1.0),
                                *lt, None, None))


# In-process trees that break TreeNodeValue's invariants; no tree file can
# hold them, since a file's child is a name and a region together and its
# box has no name of its own.
BAD_VALUES = {
    "child-without-region": [_unit_node(0, lt=(1, None)), _unit_node(1)],
    "region-without-child": [_unit_node(0, lt=(None, Region(0.0, 0.0, 1.0, 1.0)))],
    "key-not-box-name": [_unit_node(0, box_name=7)],
    # -1 is "no child" in the columns; a tree file's names are refused below 0
    "negative-name": [_unit_node(0, lt=(-1, Region(0.0, 0.0, 1.0, 1.0))), _unit_node(-1)],
    "negative-child-name": [_unit_node(0, lt=(-1, Region(0.0, 0.0, 1.0, 1.0)))],
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_in_process_bad_value_is_refused(engine, case):
    tree_ds = engine.from_items(BAD_VALUES[case])
    query = Box(7, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        run_search(search_dataset(engine, [query]), tree_ds)


class TestInitQueries:
    def test_single_query_keyed_by_root(self, engine):
        tree_ds = build_distributed_tree([Box(77, 0.0, 0.0, 5.0, 5.0)], engine, 0)
        b = Box(4, 0.0, 0.0, 1.0, 1.0)
        out = init_queries(search_dataset(engine, [b]), root_name=77)
        assert [key for key, _ in out.collect()] == [77]
        assert flat(expand(out, tree_ds)) == [(77, (4, b))]

    def test_empty_search_set(self, engine):
        out = init_queries(search_dataset(engine, []), root_name=77)
        assert out.collect() == []

    def test_all_queries_share_the_root_key(self, engine):
        boxes = random_boxes(9, seed=1)
        tree_ds = build_distributed_tree(boxes, engine, 0)
        root_name = tree_root_name(tree_ds)
        out = init_queries(search_dataset(engine, boxes), root_name)
        # one block per query partition, every block and query at the root
        assert [key for key, _ in out.collect()] == [root_name] * engine.config.workers
        assert flat(expand(out, tree_ds)) == [(root_name, (b.name, b)) for b in boxes]

    def test_empty_tree_with_queries_rejected(self, engine):
        with pytest.raises(ValueError):
            init_queries(search_dataset(engine, random_boxes(2, seed=2)), None)

    # as the box CSV reader refuses them, with validate_box's message
    @pytest.mark.parametrize("query, message", [
        (Box(6, 8.0, 8.0, 2.0, 2.0), "box 6 has inverted extents: (8.0, 8.0, 2.0, 2.0)"),
        (Box(6, 0.0, float("nan"), 1.0, 1.0), "box 6 has a non-finite coordinate: (0.0, nan, 1.0, 1.0)"),
        (Box(6, 0.0, 0.0, float("inf"), 1.0), "box 6 has a non-finite coordinate: (0.0, 0.0, inf, 1.0)"),
    ])
    def test_bad_query_box_is_refused(self, engine, query, message):
        tree_ds = build_distributed_tree([Box(0, 0.0, 0.0, 10.0, 10.0), Box(1, 20.0, 20.0, 30.0, 30.0)],
                                         engine, 0)
        queries = search_dataset(engine, [Box(5, 0.0, 0.0, 1.0, 1.0), query])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_search(queries, tree_ds)


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
        assert sorted(k for k, _ in flat(expand(next_queries, tree_ds))) == sorted(
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
        got = flat(expand(next_queries, tree_ds))
        assert sorted(got) == sorted(expected)


def reference_pass(query_ds, tree_ds):
    """Reference pass over the tuple form of the frontier, (node name,
    (query name, query box)): materialize every visit with a plain join,
    then walk the visits once for pairs and once for next-pass queries."""
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
def test_search_iteration_equals_join_then_two_flat_maps(workers, monkeypatch):
    boxes = random_boxes(300, seed=23, max_side=120.0)
    with Engine(EngineConfig(workers=workers)) as eng:
        tree_ds = build_distributed_tree(boxes, eng, 2)
        root_name = tree_root_name(tree_ds)
        search_ds = search_dataset(eng, boxes)
        # whole blocks in one slice, then slices that split every block
        for slice_size in (distributed_search._SLICE, 7):
            monkeypatch.setattr(distributed_search, "_SLICE", slice_size)
            queries = init_queries(search_ds, root_name)
            reference = search_ds.map(lambda item: (root_name, item))
            passes = 0
            while not reference.is_empty():
                expected_pairs, reference = reference_pass(reference, tree_ds)
                pairs, queries = search_iteration(queries, tree_ds)
                assert expand(pairs, tree_ds) == [list(p) for p in expected_pairs.partitions]
                assert expand(queries, tree_ds) == [list(p) for p in reference.partitions]
                assert all(key == root_name for key, _ in queries.collect())
                passes += 1
            assert queries.is_empty()
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
        """Run the search loop by hand, returning the tree and per-pass datasets."""
        tree_ds = build_distributed_tree(boxes, engine, cutoff)
        queries = init_queries(
            search_dataset(engine, boxes), tree_root_name(tree_ds)
        )
        passes = []
        while not queries.is_empty():
            intersections, queries = search_iteration(queries, tree_ds)
            passes.append((intersections, queries))
        return tree_ds, passes

    def test_iteration_count_bounded_by_levels(self, engine):
        for n, seed in ((1, 0), (2, 1), (33, 2), (128, 3), (500, 4)):
            boxes = random_boxes(n, seed=seed)
            levels = tree_depth(build_memory_tree(*presort(boxes)))
            assert len(self.drive(engine, boxes)[1]) <= levels

    def test_no_pair_reported_twice(self, engine):
        boxes = random_boxes(200, seed=5, max_side=150.0)
        tree_ds, passes = self.drive(engine, boxes)
        seen = []
        for intersections, _ in passes:
            seen.extend(flat(expand(intersections, tree_ds)))
        assert seen
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
