"""Distributed tree build: the tree as a pair dataset of named nodes.

The upper tree is built by subdividing four presorted datasets (x_min,
y_min, x_max and y_max super-key order) with the memory build's
recursion: each node splits its datasets at the median, recurses into
both children and returns its name and region, read off the first/last
elements of its own four datasets as the memory build's float64 values,
to its parent. At a cutoff depth the current datasets are collected to
arrays, and the subtrees below are built by the memory-resident
algorithm, which is several orders of magnitude faster per element, as
one ``flat_map`` over a dataset of subtree jobs on the engine's workers.
At cutoff 0 nothing is subdivided, so there is no four-way presort and
no job: the caller's thread presorts the boxes in memory and builds the
whole tree (on a worker thread, the allocator would keep the build's
numpy temporaries in that thread's arena and raise the peak memory).
"""

from __future__ import annotations

from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

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
from .memory_tree import TreeGraphEntry, TreeNodeValue, build_memory_tree, presort

__all__ = [
    "four_way_presort",
    "region_from_sorted",
    "build_distributed_tree",
    "flatten_memory_subtree",
]

SORT_AXES = (AXIS_XMIN, AXIS_YMIN, AXIS_XMAX, AXIS_YMAX)


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
    max-sorted one, as the memory build's regions are: float64, a zero
    extreme +0.0. Raises IndexError on empty datasets.
    """
    extremes = (ds_xmin.first().x_min, ds_ymin.first().y_min,
                ds_xmax.last().x_max, ds_ymax.last().y_max)
    return Region(*[float(v) or 0.0 for v in extremes])


def build_distributed_tree(
    boxes: Sequence[Box], engine: Engine, cutoff: int = 0
) -> PairDataset:
    """Build the tree as a pair dataset of (name, TreeNodeValue) entries.

    Depths above ``cutoff`` are built by subdividing the four sorted
    datasets, each branch returning its root's name and region upward as
    the memory build does; at the cutoff the x_min/y_min datasets are
    collected to arrays, and every such branch becomes one subtree job
    that the engine builds in memory. The default of 0 subdivides nothing:
    the boxes are presorted in memory, with no four-way presort, and built
    in the calling thread, not on the engine. The entry set is identical
    for every cutoff and worker count, and equals ``build_memory_tree``'s.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff depth must be >= 0, got {cutoff}")
    boxes = list(boxes)
    if not boxes:
        return engine.from_items([])
    if cutoff == 0:
        # nothing is subdivided on the engine: sort only what the memory build
        # reads, and build in this thread, whose heap the build's arrays reuse
        return engine.from_items(build_memory_tree(*presort(boxes)))
    entries: List[TreeGraphEntry] = []
    jobs: List[_SubtreeJob] = []
    _build(four_way_presort(engine, boxes), len(boxes), 0, cutoff, entries, jobs)
    subtrees = engine.from_items(jobs).flat_map(lambda job: build_memory_tree(*job))
    return engine.from_items(entries + subtrees.collect())


def _build(ds4, n, depth, cutoff, entries, jobs) -> Tuple[Optional[int], Optional[Region]]:
    """Append a branch's entries and jobs; return its root's name and its region."""
    if n == 0:
        return None, None
    region = region_from_sorted(*ds4)
    axis = depth & 1
    if depth >= cutoff:
        # small enough: hand the rest of this branch to the array path, whose
        # root is the median of the collected split order
        job = (ds4[AXIS_XMIN].collect(), ds4[AXIS_YMIN].collect(), depth)
        jobs.append(job)
        return job[axis][n // 2].name, region

    # split the axis dataset at its median and filter the other three
    split_less, median, split_greater = ds4[axis].split_at(n // 2)
    pivot, coord = superkey(median, axis), axis + 1
    less4 = tuple(
        split_less if a == axis else ds.filter(lambda b, p=pivot, c=coord: (b[c], b[0]) < p)
        for a, ds in zip(SORT_AXES, ds4)
    )
    greater4 = tuple(
        split_greater if a == axis else ds.filter(lambda b, p=pivot, c=coord: (b[c], b[0]) > p)
        for a, ds in zip(SORT_AXES, ds4)
    )

    # the node takes its pre-order slot now and fills it once the children
    # have returned their names and regions
    slot = len(entries)
    entries.append(None)
    lt_name, lt_region = _build(less4, n // 2, depth + 1, cutoff, entries, jobs)
    gt_name, gt_region = _build(greater4, n - n // 2 - 1, depth + 1, cutoff, entries, jobs)
    entries[slot] = (median.name, TreeNodeValue(median, lt_name, lt_region, gt_name, gt_region))
    return median.name, region


def flatten_memory_subtree(entries: Sequence[TreeGraphEntry]) -> List[TreeGraphEntry]:
    """A memory build's entries as a list: it already emits the tree's entries."""
    return list(entries)
