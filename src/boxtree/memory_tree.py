"""Memory-resident balanced k-d tree build, by presorting.

The boxes are presorted once by the x_min and y_min super keys
(coordinate, then name). The build then follows Brown's presort
algorithm on numpy index arrays, one tree level at a time: a box's index
is its position in the x_min order, and both orders hold the level's
segments, one per node, with the same bounds. Each segment's median in
the split order is its node's box; the other order is partitioned
stably around it by rank, which preserves both sort orders all the way
down and gives an O(n log n) build without median finding. The regions
are then merged bottom-up, one vectorized pass per level, carrying the
index of the box that holds each extreme, so a region holds the boxes'
own coordinate objects. The build emits the program's one tree
representation: (name, TreeNodeValue) entries in pre-order that name
each node's children and their regions.
"""

from __future__ import annotations

from operator import itemgetter
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .geometry import AXIS_XMIN, AXIS_YMIN, Box, Region, ensure_unique_names

__all__ = [
    "TreeNodeValue",
    "TreeGraphEntry",
    "presort",
    "build_memory_tree",
    "tree_depth",
]


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


# One node of the tree: (node name, node value).
TreeGraphEntry = Tuple[int, TreeNodeValue]


def presort(boxes: Sequence[Box]) -> Tuple[List[Box], List[Box]]:
    """Sort the boxes independently by the x_min and y_min super keys.

    Raises DuplicateNameError when two boxes share a name, because the
    super-key order is only total for unique names.
    """
    ensure_unique_names(boxes)
    x_sorted = sorted(boxes, key=lambda b: (b[1], b[0]))
    y_sorted = sorted(boxes, key=lambda b: (b[2], b[0]))
    return x_sorted, y_sorted


def build_memory_tree(
    x_sorted: Sequence[Box],
    y_sorted: Sequence[Box],
    depth: int = 0,
) -> List[TreeGraphEntry]:
    """Build the balanced tree from the two presorted arrays.

    The split axis cycles x_min, y_min with depth (x_min at even depths).
    The median of a length-n array is index n // 2. Every region holds
    the boxes' own coordinate objects, compared and chosen as
    ``merge_region`` would.

    Returns the (name, TreeNodeValue) entries in pre-order, root first;
    an empty list for empty input.
    """
    n = len(x_sorted)
    if n == 0:
        return []
    ranks, y_order = _ranks(x_sorted, y_sorted)
    node_box, links, levels = _subdivide(ranks, y_order, depth)
    # each ends in a None, which a link of -1 picks
    regions = np.append(_subtree_regions(x_sorted, node_box, links, levels), None)
    names = np.append(np.fromiter(map(itemgetter(0), x_sorted), object, n)[node_box], None)
    boxes = np.fromiter(x_sorted, object, n)[node_box]
    children = [column[link] for link in links for column in (names, regions)]
    return list(zip(names[:n], map(TreeNodeValue, boxes, *children)))


def _ranks(x_sorted, y_sorted):
    """Each box's rank in the x and in the y order, and the y order.

    A box's index is its position in ``x_sorted``, so the x order is
    0..n-1 and a box's x rank is its index.
    """
    n = len(x_sorted)
    index = dict(zip(map(itemgetter(0), x_sorted), range(n)))
    y_order = np.fromiter(map(index.__getitem__, map(itemgetter(0), y_sorted)), np.intp, n)
    ranks = (np.arange(n), np.empty(n, np.intp))
    ranks[AXIS_YMIN][y_order] = ranks[AXIS_XMIN]
    return ranks, y_order


def _subdivide(ranks, y_order, depth):
    """The tree's shape, one level at a time, by pre-order position.

    Both orders hold the level's segments one after another, one segment
    per node of the level, with the same bounds in both. A segment's
    median in the split order is its node's box; the other order is
    partitioned stably around it, and the median is dropped from both,
    which leaves the children's segments, lt before gt, sorted in both
    orders. A node's lt child is at pre-order position ``pre + 1``, its
    gt child after the lt subtree.

    Returns the box index of each node, the lt and gt positions of each
    node (-1 where there is no child) and the positions of each level's
    nodes, root level first.
    """
    n = y_order.size
    node_box = np.empty(n, np.intp)
    links = (np.full(n, -1, np.intp), np.full(n, -1, np.intp))
    levels = []
    orders = [ranks[AXIS_XMIN], y_order]
    sizes, pre = np.array([n]), np.array([0])
    while sizes.size:
        axis = depth & 1
        half = sizes // 2
        medians = np.cumsum(sizes) - sizes + half
        pivots = orders[axis][medians]
        node_box[pre] = pivots
        orders[axis] = np.delete(orders[axis], medians)
        orders[1 - axis] = _partition_level(orders[1 - axis], ranks[axis], pivots, sizes)
        lt_pre, gt_pre = pre + 1, pre + 1 + half
        has_lt, has_gt = half > 0, sizes - half > 1
        links[0][pre[has_lt]] = lt_pre[has_lt]
        links[1][pre[has_gt]] = gt_pre[has_gt]
        levels.append(pre)
        sizes = np.column_stack((half, sizes - half - 1)).ravel()
        pre = np.column_stack((lt_pre, gt_pre)).ravel()
        nonempty = sizes > 0
        sizes, pre = sizes[nonempty], pre[nonempty]
        depth += 1
    return node_box, links, levels


def _partition_level(order, rank, pivots, sizes):
    """Every segment of ``order`` split stably around its pivot, the pivot dropped.

    ``order`` holds consecutive segments of ``sizes`` box indices, and
    segment s holds ``pivots[s]``. Per segment, the boxes ranked below the
    pivot come first, then those ranked above, each in their order.
    """
    segment = np.repeat(np.arange(sizes.size), sizes)
    side = np.sign(rank[order] - rank[pivots][segment])
    # a segment's pivot sorts between its two sides, at its median
    moved = order[np.argsort(3 * segment + side, kind="stable")]
    return np.delete(moved, np.cumsum(sizes) - sizes + sizes // 2)


def _subtree_regions(x_sorted, node_box, links, levels):
    """Each node's subtree region, by pre-order position.

    Merged bottom-up, one level at a time, as ``merge_region`` merges: a
    node's own box, then its lt and its gt subtree, each replacing an
    extreme found so far only when strictly beyond it. What is carried is
    the index of the box holding each extreme, and the comparisons are
    the coordinate objects' own (a double would round an int beyond
    2^53), so a region holds the boxes' own coordinate objects.
    """
    n = node_box.size
    coords = np.stack([np.fromiter(map(itemgetter(k + 1), x_sorted), object, n)
                       for k in range(4)])
    extremes = np.empty((4, n), np.intp)
    for pre in reversed(levels):
        best = np.tile(node_box[pre], (4, 1))
        for link in links:
            child = link[pre]
            has = child >= 0
            found, candidate = best[:, has], extremes[:, child[has]]
            now = np.take_along_axis(coords, found, 1)
            new = np.take_along_axis(coords, candidate, 1)
            beyond = np.vstack((new[:2] < now[:2], new[2:] > now[2:]))
            best[:, has] = np.where(beyond, candidate, found)
        extremes[:, pre] = best
    return np.fromiter(map(Region, *np.take_along_axis(coords, extremes, 1)), object, n)


def tree_depth(entries: Sequence[TreeGraphEntry]) -> int:
    """Levels of the tree rooted at the first entry (0 for none, 1 for a leaf)."""
    by_name = dict(entries)
    level = [entries[0][0]] if entries else []
    depth = 0
    while level:
        values = [by_name[name] for name in level]
        level = [c for v in values for c in (v.lt_name, v.gt_name) if c is not None]
        depth += 1
    return depth
