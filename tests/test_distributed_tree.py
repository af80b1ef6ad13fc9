import inspect
import math
import threading
from functools import reduce

import pytest

from boxtree import distributed_tree
from boxtree.bench import FULL_DEPTH
from boxtree.engine import Engine, EngineConfig, PartitionedDataset
from boxtree.geometry import (
    AXIS_XMAX,
    AXIS_XMIN,
    AXIS_YMAX,
    AXIS_YMIN,
    Box,
    DuplicateNameError,
    Region,
    superkey,
)
from boxtree.memory_tree import build_memory_tree, presort
from boxtree.distributed_tree import (
    build_distributed_tree,
    flatten_memory_subtree,
    four_way_presort,
    region_from_sorted,
)

from conftest import merge_region, random_boxes


@pytest.fixture(scope="module")
def engine():
    with Engine(EngineConfig(workers=3)) as eng:
        yield eng


def memory_entries(boxes):
    return set(build_memory_tree(*presort(boxes)))


class TestFourWayPresort:
    def test_orders_match_reference_sorts(self, engine):
        boxes = random_boxes(3, seed=2)
        ds4 = four_way_presort(engine, boxes)
        for ds, axis in zip(ds4, (AXIS_XMIN, AXIS_YMIN, AXIS_XMAX, AXIS_YMAX)):
            assert ds.collect() == sorted(boxes, key=lambda b: superkey(b, axis))

    def test_single_box(self, engine):
        b = Box(0, 1.0, 2.0, 3.0, 4.0)
        assert all(ds.collect() == [b] for ds in four_way_presort(engine, [b]))

    def test_identical_coordinates_fall_back_to_name_order(self, engine):
        boxes = [Box(n, 1.0, 2.0, 3.0, 4.0) for n in (5, 3, 9, 1)]
        for ds in four_way_presort(engine, boxes):
            assert [b.name for b in ds.collect()] == [1, 3, 5, 9]

    def test_duplicate_names_rejected(self, engine):
        with pytest.raises(DuplicateNameError):
            four_way_presort(engine, [Box(1, 0, 0, 1, 1), Box(1, 2, 2, 3, 3)])


class TestRegionFromSorted:
    def test_two_boxes(self, engine):
        boxes = [Box(0, 0.0, 0.0, 1.0, 1.0), Box(1, 2.0, 2.0, 3.0, 3.0)]
        region = region_from_sorted(*four_way_presort(engine, boxes))
        assert region == Region(0.0, 0.0, 3.0, 3.0)

    def test_single_box_equals_box(self, engine):
        b = Box(0, 1.0, 2.0, 3.0, 4.0)
        assert region_from_sorted(*four_way_presort(engine, [b])) == Region(1.0, 2.0, 3.0, 4.0)

    def test_matches_merge_region_fold(self, engine):
        boxes = random_boxes(50, seed=13)
        got = region_from_sorted(*four_way_presort(engine, boxes))
        expect = reduce(lambda r, b: merge_region(b, [r]), boxes[1:], merge_region(boxes[0]))
        assert got == expect

    def test_empty_dataset_errors(self, engine):
        empty = engine.from_items([])
        with pytest.raises(IndexError):
            region_from_sorted(empty, empty, empty, empty)


class TestCutoffDepth:
    def test_paper_measured_constants_force_collect_at_root(self):
        # the paper's bound d > log2(n) - c_r / (c_a * w) - 1 with its measured
        # c_r = 200 s and c_a = 122 ms on 4 workers stays below zero for any
        # n up to 2^40, so the default cutoff collects at the root
        for n in (2**12, 2**40):
            assert math.log2(n) - 200.0 / (0.122 * 4) - 1.0 < 0
        default = inspect.signature(build_distributed_tree).parameters["cutoff"].default
        assert default == 0


class TestBuild:
    def test_single_box(self, engine):
        b = Box(0, 1.0, 2.0, 3.0, 4.0)
        for cutoff in (0, 5):
            entries = build_distributed_tree([b], engine, cutoff).collect()
            assert len(entries) == 1
            name, value = entries[0]
            assert name == 0 and value.box == b
            assert value.lt_name is None and value.lt_region is None
            assert value.gt_name is None and value.gt_region is None

    def test_empty_input(self, engine):
        assert build_distributed_tree([], engine, 0).collect() == []

    def test_cutoff_invariance_small(self, engine):
        boxes = random_boxes(7, seed=4)
        sets = [
            set(build_distributed_tree(boxes, engine, cutoff).collect())
            for cutoff in (0, 3, 10)
        ]
        assert sets[0] == sets[1] == sets[2]

    @pytest.mark.parametrize("n", [*range(1, 33), 64])
    def test_equals_memory_tree_exhaustive_small(self, engine, n):
        boxes = random_boxes(n, seed=100 + n)
        expect = memory_entries(boxes)
        for cutoff in (0, 1, 2, 64):
            got = set(build_distributed_tree(boxes, engine, cutoff).collect())
            assert got == expect, f"n={n} cutoff={cutoff}"

    def test_equals_memory_tree_1024(self, engine):
        boxes = random_boxes(2**10, seed=77)
        expect = memory_entries(boxes)
        assert set(build_distributed_tree(boxes, engine, 3).collect()) == expect

    def test_negative_cutoff_rejected(self, engine):
        with pytest.raises(ValueError):
            build_distributed_tree(random_boxes(4, seed=0), engine, -1)

    def test_worker_invariance(self):
        boxes = random_boxes(200, seed=21)
        outputs = []
        for w in (1, 2, 4, 8):
            with Engine(EngineConfig(workers=w)) as eng:
                outputs.append(build_distributed_tree(boxes, eng, 2).collect())
        assert all(out == outputs[0] for out in outputs)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_cutoff_0_runs_no_engine_presort(self, monkeypatch, workers):
        calls = []

        def counting_presort(engine, boxes):
            calls.append(len(boxes))
            return four_way_presort(engine, boxes)

        monkeypatch.setattr(distributed_tree, "four_way_presort", counting_presort)
        boxes = random_boxes(300, seed=31)
        with Engine(EngineConfig(workers=workers)) as eng:
            assert set(build_distributed_tree(boxes, eng, 0).collect()) == memory_entries(boxes)
            assert calls == []
            # a cutoff that subdivides on the engine does presort, once
            assert set(build_distributed_tree(boxes, eng, 1).collect()) == memory_entries(boxes)
            assert calls == [300]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_cutoff_0_builds_in_the_calling_thread(self, monkeypatch, workers):
        # a build on an engine thread leaves its numpy temporaries in that
        # thread's malloc arena, which raises the peak memory
        threads = []

        def recording_build(*args):
            threads.append(threading.current_thread())
            return build_memory_tree(*args)

        monkeypatch.setattr(distributed_tree, "build_memory_tree", recording_build)
        boxes = random_boxes(300, seed=32)
        with Engine(EngineConfig(workers=workers)) as eng:
            assert set(build_distributed_tree(boxes, eng, 0).collect()) == memory_entries(boxes)
        assert threads == [threading.current_thread()]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_engine_build_does_not_look_ahead(self, monkeypatch, workers):
        calls = {"element_at": 0, "region_from_sorted": 0}
        element_at = PartitionedDataset.element_at

        def counting_element_at(ds, index):
            calls["element_at"] += 1
            return element_at(ds, index)

        def counting_region(*ds4):
            calls["region_from_sorted"] += 1
            return region_from_sorted(*ds4)

        monkeypatch.setattr(PartitionedDataset, "element_at", counting_element_at)
        monkeypatch.setattr(distributed_tree, "region_from_sorted", counting_region)
        boxes = random_boxes(300, seed=33)
        with Engine(EngineConfig(workers=workers)) as eng:
            entries = set(build_distributed_tree(boxes, eng, FULL_DEPTH).collect())
        assert entries == memory_entries(boxes)
        # each node reads its region once, from its own datasets, and no
        # node reads its children's medians ahead of their own split
        assert calls == {"element_at": 0, "region_from_sorted": 300}


class TestGraphShape:
    def test_well_formed_tree_graph(self, engine):
        boxes = random_boxes(150, seed=30)
        entries = build_distributed_tree(boxes, engine, 2).collect()
        by_name = dict(entries)
        assert len(by_name) == len(entries) == len(boxes)

        referenced = []
        for _, value in entries:
            for child in (value.lt_name, value.gt_name):
                if child is not None:
                    referenced.append(child)
                    assert child in by_name
        # every non-root referenced exactly once
        assert len(referenced) == len(set(referenced)) == len(boxes) - 1
        (root,) = set(by_name) - set(referenced)

        # walking from the root reaches every entry exactly once: no cycles
        seen = set()
        stack = [root]
        while stack:
            name = stack.pop()
            assert name not in seen
            seen.add(name)
            value = by_name[name]
            stack.extend(c for c in (value.lt_name, value.gt_name) if c is not None)
        assert seen == set(by_name)

    def test_child_fields_paired(self, engine):
        boxes = random_boxes(63, seed=31)
        for _, value in build_distributed_tree(boxes, engine, 1).collect():
            assert (value.lt_name is None) == (value.lt_region is None)
            assert (value.gt_name is None) == (value.gt_region is None)

    def test_child_regions_contain_reachable_boxes(self, engine):
        boxes = random_boxes(100, seed=32)
        entries = build_distributed_tree(boxes, engine, 2).collect()
        by_name = dict(entries)

        def boxes_below(name):
            value = by_name[name]
            out = [value.box]
            for child in (value.lt_name, value.gt_name):
                if child is not None:
                    out.extend(boxes_below(child))
            return out

        for _, value in entries:
            for child_name, child_region in (
                (value.lt_name, value.lt_region),
                (value.gt_name, value.gt_region),
            ):
                if child_name is None:
                    continue
                for b in boxes_below(child_name):
                    assert child_region.x_min <= b.x_min and child_region.y_min <= b.y_min
                    assert b.x_max <= child_region.x_max and b.y_max <= child_region.y_max


class TestFlatten:
    def test_leaf(self):
        root = build_memory_tree(*presort([Box(5, 0.0, 0.0, 1.0, 1.0)]))
        entries = flatten_memory_subtree(root)
        assert len(entries) == 1
        assert entries[0][0] == 5 and entries[0][1].lt_name is None

    def test_three_node_tree_root_links_both(self):
        boxes = [Box(0, 1.0, 0, 2, 1), Box(1, 5.0, 0, 6, 1), Box(2, 3.0, 0, 4, 1)]
        root = build_memory_tree(*presort(boxes))
        entries = dict(flatten_memory_subtree(root))
        assert len(entries) == 3
        assert entries[2].lt_name == 0 and entries[2].gt_name == 1
