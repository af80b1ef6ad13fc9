"""Distributed tree build: the tree as a pair dataset of named nodes.

The upper tree is built by subdividing four presorted datasets (x_min,
y_min, x_max and y_max super-key order). Keeping all four orders lets a
node's bounding region be read off the first/last elements of the child
datasets, so nothing has to be returned as the recursion unwinds. At a
cutoff depth the current datasets are collected to arrays, and the
subtrees below are built by the memory-resident algorithm, which is
several orders of magnitude faster per element, as one ``flat_map`` over
a dataset of subtree jobs on the engine's workers.
"""

from __future__ import annotations

from operator import itemgetter
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .engine import Engine, PairDataset, PartitionedDataset
from .geometry import (
    AXIS_XMAX,
    AXIS_XMIN,
    AXIS_YMAX,
    AXIS_YMIN,
    Box,
    Region,
    ensure_unique_names,
    superkey,
)
from .memory_tree import KdNode, build_memory_tree

__all__ = [
    "TreeNodeValue",
    "TreeGraphEntry",
    "four_way_presort",
    "region_from_sorted",
    "build_distributed_tree",
    "flatten_memory_subtree",
]

SORT_AXES = (AXIS_XMIN, AXIS_YMIN, AXIS_XMAX, AXIS_YMAX)


class TreeNodeValue(NamedTuple):
    """Value part of a tree entry: the node's box plus child links.

    Child names refer to other entries' keys; a box's name doubles as its
    node name since each box occupies exactly one node. Child regions are
    the bounding regions of the linked subtrees; absent children are None
    on both fields.
    """

    box: Box
    lt_name: Optional[int]
    lt_region: Optional[Region]
    gt_name: Optional[int]
    gt_region: Optional[Region]


# One element of the tree dataset: (node name, node value).
TreeGraphEntry = Tuple[int, TreeNodeValue]

# A branch collected at the cutoff: (x_min-sorted boxes, y_min-sorted
# boxes, depth of the branch root).
_SubtreeJob = Tuple[List[Box], List[Box], int]


def four_way_presort(
    engine: Engine, boxes: Sequence[Box]
) -> Tuple[PartitionedDataset, ...]:
    """Four datasets holding ``boxes`` sorted by each coordinate's super key."""
    ensure_unique_names(boxes)
    base = engine.from_items(boxes)
    out = []
    for axis in SORT_AXES:
        keyed = base.map(lambda b, a=axis: (superkey(b, a), b))
        out.append(keyed.sort_by_key().map(itemgetter(1)))
    return tuple(out)


def region_from_sorted(
    ds_xmin: PartitionedDataset,
    ds_ymin: PartitionedDataset,
    ds_xmax: PartitionedDataset,
    ds_ymax: PartitionedDataset,
) -> Region:
    """Bounding region of a box set, read off its four sorted datasets.

    First element of each min-sorted dataset, last element of each
    max-sorted one. Raises IndexError on empty datasets.
    """
    return Region(
        ds_xmin.first().x_min,
        ds_ymin.first().y_min,
        ds_xmax.last().x_max,
        ds_ymax.last().y_max,
    )


def _subdivide(ds4: Tuple, n: int, axis: int):
    """Split the axis dataset at its median and filter the other three."""
    m = n // 2
    split_less, median, split_greater = ds4[axis].split_at(m)
    pivot = superkey(median, axis)
    coord = axis + 1
    less4: List[Optional[PartitionedDataset]] = [None] * 4
    greater4: List[Optional[PartitionedDataset]] = [None] * 4
    less4[axis], greater4[axis] = split_less, split_greater
    for other in SORT_AXES:
        if other == axis:
            continue
        ds = ds4[other]
        less4[other] = ds.filter(lambda b, p=pivot, c=coord: (b[c], b[0]) < p)
        greater4[other] = ds.filter(lambda b, p=pivot, c=coord: (b[c], b[0]) > p)
    return tuple(less4), median, tuple(greater4)


def build_distributed_tree(
    boxes: Sequence[Box], engine: Engine, cutoff: int = 0
) -> PairDataset:
    """Build the tree as a pair dataset of (name, TreeNodeValue) entries.

    Depths above ``cutoff`` are built by subdividing the four sorted
    datasets; at the cutoff the x_min/y_min datasets are collected to
    arrays, and every such branch becomes one subtree job that the engine
    builds in memory. The default of 0 collects at the root. The entry set
    is identical for every cutoff and worker count, and matches the
    flattened memory-resident tree.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff depth must be >= 0, got {cutoff}")
    boxes = list(boxes)
    if not boxes:
        return engine.from_items([])
    ds4 = four_way_presort(engine, boxes)
    entries: List[TreeGraphEntry] = []
    jobs: List[_SubtreeJob] = []
    _build(ds4, len(boxes), 0, cutoff, entries, jobs)
    subtrees = engine.from_items(jobs).flat_map(_memory_subtree_entries)
    return engine.from_items(entries + subtrees.collect())


def _build(
    ds4: Tuple,
    n: int,
    depth: int,
    cutoff: int,
    entries: List[TreeGraphEntry],
    jobs: List[_SubtreeJob],
) -> None:
    if n == 0:
        return
    if depth >= cutoff:
        # small enough: hand the rest of this branch to the array path
        jobs.append((ds4[AXIS_XMIN].collect(), ds4[AXIS_YMIN].collect(), depth))
        return

    axis = depth & 1
    less4, median, greater4 = _subdivide(ds4, n, axis)
    n_less = n // 2
    n_greater = n - n_less - 1

    # child names/regions are read from the child datasets up front, so no
    # information ever needs to flow back up the recursion
    child_axis = (depth + 1) & 1
    lt_name = lt_region = gt_name = gt_region = None
    if n_less:
        lt_region = region_from_sorted(*less4)
        lt_name = less4[child_axis].element_at(n_less // 2).name
    if n_greater:
        gt_region = region_from_sorted(*greater4)
        gt_name = greater4[child_axis].element_at(n_greater // 2).name
    entries.append(
        (median.name, TreeNodeValue(median, lt_name, lt_region, gt_name, gt_region))
    )

    _build(less4, n_less, depth + 1, cutoff, entries, jobs)
    _build(greater4, n_greater, depth + 1, cutoff, entries, jobs)


def _memory_subtree_entries(job: _SubtreeJob) -> List[TreeGraphEntry]:
    return flatten_memory_subtree(build_memory_tree(*job))


def flatten_memory_subtree(root: KdNode) -> List[TreeGraphEntry]:
    """One (name, TreeNodeValue) entry per node of a memory-resident tree."""
    entries: List[TreeGraphEntry] = []
    stack = [root]
    while stack:
        node = stack.pop()
        less, greater = node.less, node.greater
        entries.append(
            (
                node.box.name,
                TreeNodeValue(
                    node.box,
                    less.box.name if less else None,
                    less.region if less else None,
                    greater.box.name if greater else None,
                    greater.region if greater else None,
                ),
            )
        )
        # pre-order: push greater first so the less branch is emitted first
        if greater is not None:
            stack.append(greater)
        if less is not None:
            stack.append(less)
    return entries
