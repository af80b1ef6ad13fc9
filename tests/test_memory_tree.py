import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from boxtree import memory_tree
from boxtree.engine import Engine, EngineConfig
from boxtree.geometry import AXIS_XMIN, Box, DuplicateNameError, Region, superkey
from boxtree.distributed_search import entry_columns
from boxtree.memory_tree import (
    BoxColumns,
    TreeNodeValue,
    build_memory_tree,
    column_tree,
    name_column,
    presort,
    tree_depth,
)

from conftest import merge_region, random_boxes


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


def sweep_and_partition(arr, pivot, pivot_axis):
    """Stable one-pass split of ``arr`` around the ``pivot`` super key.

    Boxes below the pivot go to the first output, above it to the second,
    and the pivot's own box is dropped; both keep their order in ``arr``.
    """
    coord = pivot_axis + 1
    less, greater = [], []
    for b in arr:
        key = (b[coord], b[0])
        if key < pivot:
            less.append(b)
        elif key > pivot:
            greater.append(b)
    return less, greater


def reference_build(x_sorted, y_sorted, depth=0):
    """The memory build one node at a time, as a recursion over Box lists.

    The median of the split order is the node; the other order is swept
    around it. Each node fills its pre-order slot once its children have
    returned their names and regions, merged by ``merge_region``.
    """
    entries = []

    def build(x_sorted, y_sorted, depth):
        if not x_sorted:
            return None, None
        axis = depth & 1
        split_arr, other_arr = (x_sorted, y_sorted) if axis == AXIS_XMIN else (y_sorted, x_sorted)
        m = len(split_arr) // 2
        median = split_arr[m]
        other_less, other_greater = sweep_and_partition(other_arr, superkey(median, axis), axis)
        less, greater = (split_arr[:m], other_less), (split_arr[m + 1:], other_greater)
        if axis != AXIS_XMIN:
            less, greater = less[::-1], greater[::-1]
        slot = len(entries)
        entries.append(None)
        lt_name, lt_region = build(*less, depth + 1)
        gt_name, gt_region = build(*greater, depth + 1)
        entries[slot] = (median.name, TreeNodeValue(median, lt_name, lt_region, gt_name, gt_region))
        children = [r for r in (lt_region, gt_region) if r is not None]
        return median.name, merge_region(median, children)

    build(x_sorted, y_sorted, depth)
    return entries


def tied_boxes(n, seed):
    """Boxes on a few coordinates, ints and both zeros among them."""
    rng = random.Random(seed)
    values = [0.0, -0.0, 0, 1, 1.0, 2.5]
    out = []
    for name in range(n):
        x0, y0 = rng.choice(values), rng.choice(values)
        out.append(Box(name, x0, y0, x0 + rng.choice(values), y0 + rng.choice(values)))
    return out


def int_boxes(n, seed):
    rng = random.Random(seed)
    out = []
    for name in range(n):
        x0, y0 = rng.randint(-5, 5), rng.randint(-5, 5)
        out.append(Box(name, x0, y0, x0 + rng.randint(0, 3), y0 + rng.randint(0, 3)))
    return out


def beyond_double_boxes(n, seed):
    # ints from 2^53 up, which a double would round to equal values
    return [Box(b.name, *(2**53 + c for c in b[1:])) for b in int_boxes(n, seed)]


def big_name_boxes(n, seed):
    # names from 2^63 up, interleaved with small ones, on tied coordinates
    return [Box(2**63 + 3 * b.name if b.name % 2 else b.name, *b[1:])
            for b in tied_boxes(n, seed)]


def float_regions(entries):
    """The entries with every region's coordinates as floats."""
    def region(r):
        return None if r is None else Region(*map(float, r))
    return [(name, TreeNodeValue(v.box, v.lt_name, region(v.lt_region), v.gt_name, region(v.gt_region)))
            for name, v in entries]


class TestEqualsReferenceBuild:
    # the array build returns the recursion's entries: the same list, order
    # and box objects, and the same regions in floats, by value and type (so
    # -0.0 stays -0.0, and an int extreme is its float)
    @pytest.mark.parametrize(
        "make", [random_boxes, tied_boxes, int_boxes, beyond_double_boxes, big_name_boxes])
    def test_same_entries_in_the_same_order(self, make):
        for n in [*range(65), 2**10]:
            x_sorted, y_sorted = presort(make(n, seed=n))
            for depth in (0, 1):
                got = build_memory_tree(x_sorted, y_sorted, depth)
                want = float_regions(reference_build(x_sorted, y_sorted, depth))
                assert got == want, f"n={n} depth={depth}"
                assert repr(got) == repr(want), f"n={n} depth={depth}"

    def test_region_keeps_the_first_of_equal_extremes(self):
        # merge_region replaces an extreme only when strictly beyond it: node
        # 1's x_min 0.0 stays ahead of its children's equal -0.0
        boxes = [Box(0, -0.0, 0.0, 1.0, 1.0), Box(1, 0.0, 1.0, 1.0, 2.0), Box(2, -0.0, 2.0, 1.0, 3.0),
                 Box(3, 5.0, 0.0, 6.0, 1.0), Box(4, 6.0, 0.0, 7.0, 1.0), Box(5, 7.0, 0.0, 8.0, 1.0)]
        entries = build(boxes)
        root = entries[0][1]
        assert (entries[0][0], root.lt_name) == (3, 1)
        assert math.copysign(1.0, root.lt_region.x_min) == 1.0
        assert repr(entries) == repr(reference_build(*presort(boxes)))


def box_columns(boxes):
    """The columns of float boxes, as the box CSV reader returns them."""
    coords = np.array([b[1:] for b in boxes], float).reshape(-1, 4).T.copy()
    return BoxColumns(name_column([b.name for b in boxes]), coords)


def float_boxes(make):
    def boxes(n, seed):
        return [Box(b.name, *map(float, b[1:])) for b in make(n, seed)]
    return boxes


class TestColumnTree:
    # the column build makes the tree of the entry build, in name order:
    # the same names, boxes, child names and regions (-0.0 apart from 0.0)
    @pytest.mark.parametrize("make", [random_boxes, tied_boxes, int_boxes, float_boxes(tied_boxes),
                                      float_boxes(big_name_boxes)])
    def test_equals_the_entry_build(self, make):
        for n in [*range(65), 2**10]:
            boxes = make(n, seed=n)
            got = column_tree(box_columns(boxes))
            want = entry_columns(build_memory_tree(*presort(boxes)))
            assert got.names.dtype == got.children.dtype == want.names.dtype == want.children.dtype
            assert got.names.tolist() == want.names.tolist(), f"n={n}"
            assert got.children.tolist() == want.children.tolist()
            assert np.array_equal(got.rects, want.rects, equal_nan=True)
            assert np.array_equal(np.signbit(got.rects), np.signbit(want.rects))

    def test_int64_names_for_int64_input(self):
        got = column_tree(box_columns(random_boxes(5, seed=1)))
        assert got.names.dtype == got.children.dtype == np.int64

    def test_empty_input(self):
        got = column_tree(box_columns([]))
        assert got.names.shape == (0,) and got.rects.shape == (4, 3, 0)
        assert got.children.shape == (0, 2)


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


# 0 -> 1 -> 0, each box and region [0, 0, 1, 1]
CYCLIC_TREE_DEPTH = """
from boxtree.geometry import Box, Region
from boxtree.memory_tree import TreeNodeValue, tree_depth

unit = Region(0.0, 0.0, 1.0, 1.0)
entries = [(name, TreeNodeValue(Box(name, *unit), child, unit, None, None))
           for name, child in ((0, 1), (1, 0))]
try:
    tree_depth(entries)
except ValueError as exc:
    print("refused:", exc)
"""


def test_cyclic_entries_are_refused_not_walked_forever():
    # in a subprocess, so a walk that never ends fails the test instead of hanging it
    src = str(Path(memory_tree.__file__).resolve().parents[1])
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CYCLIC_TREE_DEPTH],
            capture_output=True, text=True, timeout=30, env={**os.environ, "PYTHONPATH": src},
        )
    except subprocess.TimeoutExpired:
        pytest.fail("tree_depth was still walking after 30 s on a cyclic entry list")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused:"), proc.stdout


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


def test_array_build_work_is_nlogn(monkeypatch):
    # CountingFloat above sees only presort's comparisons: the array build
    # compares float64 copies. Its work is the boxes each level partitions:
    # at most n per level, over at most floor(log2 n) + 1 levels
    handled = []
    partition = memory_tree._partition_level

    def counting(order, *args):
        handled.append(order.size)
        return partition(order, *args)

    monkeypatch.setattr(memory_tree, "_partition_level", counting)
    work = {}
    for exp in (10, 11, 12):
        n = 2**exp
        handled.clear()
        build(random_boxes(n, seed=exp))
        work[n] = sum(handled)
        assert n <= work[n] <= n * (exp + 1)
    assert work[2**11] / work[2**10] < 2.4
    assert work[2**12] / work[2**11] < 2.4
