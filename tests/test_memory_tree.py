import math
import random

import pytest

from boxtree.engine import Engine, EngineConfig
from boxtree.geometry import AXIS_XMIN, Box, DuplicateNameError, Region, superkey
from boxtree.memory_tree import (
    TreeNodeValue,
    build_memory_tree,
    presort,
    sweep_and_partition,
    tree_depth,
)

from conftest import random_boxes


def build(boxes):
    x_sorted, y_sorted = presort(boxes)
    return build_memory_tree(x_sorted, y_sorted)


def subtree_names(by_name, name):
    """Names of the subtree below ``name`` (itself included), in pre-order."""
    if name is None:
        return []
    value = by_name[name]
    return [name, *subtree_names(by_name, value.lt_name), *subtree_names(by_name, value.gt_name)]


class TestPresort:
    def test_sorts_by_x_coordinate(self):
        boxes = [Box(10, 3.0, 0, 4, 1), Box(11, 1.0, 0, 2, 1), Box(12, 2.0, 0, 3, 1)]
        x_sorted, _ = presort(boxes)
        assert [b.name for b in x_sorted] == [11, 12, 10]

    def test_tie_broken_by_name(self):
        boxes = [Box(2, 5.0, 0, 6, 1), Box(1, 5.0, 9, 6, 10)]
        x_sorted, y_sorted = presort(boxes)
        assert [b.name for b in x_sorted] == [1, 2]
        assert [b.name for b in y_sorted] == [2, 1]

    def test_empty(self):
        assert presort([]) == ([], [])

    def test_outputs_are_permutations(self):
        boxes = random_boxes(50, seed=1)
        x_sorted, y_sorted = presort(boxes)
        assert sorted(x_sorted) == sorted(boxes) == sorted(y_sorted)

    def test_duplicate_names_rejected(self):
        with pytest.raises(DuplicateNameError):
            presort([Box(1, 0, 0, 1, 1), Box(1, 2, 2, 3, 3)])


class TestSweepAndPartition:
    def test_one_element_per_side(self):
        a = Box(0, 5.0, 0.0, 6, 1)
        b = Box(1, 1.0, 2.0, 2, 3)
        c = Box(2, 9.0, 4.0, 10, 5)
        arr = sorted([a, b, c], key=lambda x: (x.y_min, x.name))  # y-sorted
        less, greater = sweep_and_partition(arr, superkey(a, AXIS_XMIN), AXIS_XMIN)
        assert [x.name for x in less] == [1]
        assert [x.name for x in greater] == [2]

    def test_pivot_only_gives_empty_sides(self):
        a = Box(0, 5.0, 0.0, 6, 1)
        assert sweep_and_partition([a], superkey(a, AXIS_XMIN), AXIS_XMIN) == ([], [])

    def test_matches_filter_oracle_and_stability(self):
        boxes = random_boxes(20, seed=7)
        _, y_sorted = presort(boxes)
        pivot_box = boxes[11]
        pivot = superkey(pivot_box, AXIS_XMIN)
        less, greater = sweep_and_partition(y_sorted, pivot, AXIS_XMIN)
        assert less == [b for b in y_sorted if superkey(b, AXIS_XMIN) < pivot]
        assert greater == [b for b in y_sorted if superkey(b, AXIS_XMIN) > pivot]
        # outputs are subsequences of the input
        positions = {id(b): i for i, b in enumerate(y_sorted)}
        for part in (less, greater):
            idx = [positions[id(b)] for b in part]
            assert idx == sorted(idx)


class TestBuild:
    def test_single_box_leaf(self):
        b = Box(3, 1.0, 2.0, 3.0, 4.0)
        assert build([b]) == [(3, TreeNodeValue(b, None, None, None, None))]

    def test_empty_input(self):
        assert build([]) == []

    def test_three_boxes_median_root(self):
        boxes = [Box(0, 1.0, 0, 2, 1), Box(1, 5.0, 0, 6, 1), Box(2, 3.0, 0, 4, 1)]
        entries = build(boxes)
        assert [name for name, _ in entries] == [2, 0, 1]  # middle x_min first
        by_name = dict(entries)
        assert by_name[2].lt_name == 0 and by_name[2].gt_name == 1
        assert by_name[0].lt_name is None and by_name[1].gt_name is None

    def test_seven_boxes_depth_and_subtree_ordering(self):
        boxes = random_boxes(7, seed=3)
        entries = build(boxes)
        assert tree_depth(entries) == 3
        by_name = dict(entries)

        def check(name, depth):
            if name is None:
                return
            value = by_name[name]
            axis = depth % 2
            pivot = superkey(value.box, axis)
            for desc in subtree_names(by_name, value.lt_name):
                assert superkey(by_name[desc].box, axis) < pivot
            for desc in subtree_names(by_name, value.gt_name):
                assert superkey(by_name[desc].box, axis) > pivot
            check(value.lt_name, depth + 1)
            check(value.gt_name, depth + 1)

        check(entries[0][0], 0)

    def test_pre_order_root_first(self):
        boxes = random_boxes(100, seed=4)
        entries = build(boxes)
        names = [name for name, _ in entries]
        assert sorted(names) == [b.name for b in boxes]
        assert names == subtree_names(dict(entries), names[0])

    def test_balance_bound(self):
        for n in [*range(1, 65), 100, 255, 256, 257, 1000, 2**10, 2**12]:
            entries = build(random_boxes(n, seed=n))
            assert tree_depth(entries) <= math.floor(math.log2(n)) + 1, f"unbalanced at n={n}"

    def test_region_contains_all_subtree_boxes(self):
        by_name = dict(build(random_boxes(200, seed=5)))
        for value in by_name.values():
            for child, r in ((value.lt_name, value.lt_region), (value.gt_name, value.gt_region)):
                assert (child is None) == (r is None)
                for desc in subtree_names(by_name, child):
                    b = by_name[desc].box
                    assert r.x_min <= b.x_min and r.y_min <= b.y_min
                    assert b.x_max <= r.x_max and b.y_max <= r.y_max

    def test_deterministic_and_parallel_identical(self):
        boxes = random_boxes(300, seed=11)
        t1 = build(boxes)
        t2 = build(boxes)
        # the distributed build runs subtree builds on the engine's threads
        with Engine(EngineConfig(workers=4)) as engine:
            jobs = engine.from_items([presort(boxes)] * 4)
            parallel = jobs.map(lambda xy: build_memory_tree(*xy)).collect()
        assert all(t == t1 for t in (t2, *parallel))


class TestTreeDepth:
    @pytest.mark.parametrize("n, levels", [(0, 0), (1, 1), (2, 2), (3, 2), (7, 3)])
    def test_levels_of_built_tree(self, n, levels):
        assert tree_depth(build(random_boxes(n, seed=n))) == levels

    def test_counts_levels_of_an_unbalanced_chain(self):
        # the depth is walked from the first entry, not derived from the size
        unit = Region(0.0, 0.0, 1.0, 1.0)
        chain = [
            (0, TreeNodeValue(Box(0, *unit), None, None, 1, unit)),
            (1, TreeNodeValue(Box(1, *unit), 2, unit, None, None)),
            (2, TreeNodeValue(Box(2, *unit), None, None, None, None)),
        ]
        assert tree_depth(chain) == 3


class CountingFloat(float):
    """Float that counts comparison operations, for complexity checks."""

    comparisons = 0

    def __lt__(self, other):
        CountingFloat.comparisons += 1
        return float.__lt__(self, other)

    def __gt__(self, other):
        CountingFloat.comparisons += 1
        return float.__gt__(self, other)

    def __eq__(self, other):
        CountingFloat.comparisons += 1
        return float.__eq__(self, other)

    __hash__ = float.__hash__


def test_build_comparison_growth_is_nlogn_like():
    # across a doubling of n, comparison counts should grow by less than
    # 2.4x once n is large enough, consistent with n log n
    counts = {}
    for exp in (10, 11, 12):
        n = 2**exp
        rng = random.Random(exp)
        boxes = [
            Box(
                name,
                CountingFloat(rng.uniform(0, 1000)),
                CountingFloat(rng.uniform(0, 1000)),
                CountingFloat(rng.uniform(1000, 2000)),
                CountingFloat(rng.uniform(1000, 2000)),
            )
            for name in range(n)
        ]
        CountingFloat.comparisons = 0
        build(boxes)
        counts[n] = CountingFloat.comparisons
    assert counts[2**11] / counts[2**10] < 2.4
    assert counts[2**12] / counts[2**11] < 2.4
