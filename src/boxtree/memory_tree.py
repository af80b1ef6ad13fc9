"""Memory-resident balanced k-d tree build, by presorting.

The boxes are presorted once by the x_min and y_min super keys
(coordinate, then name). The build then follows Brown's presort
algorithm on numpy index arrays, one tree level at a time: both orders
hold the level's segments, one per node, with the same bounds. Each
segment's median in the split order is its node's box; the other order
is partitioned stably around it by rank, which preserves both sort
orders all the way down and gives an O(n log n) build without median
finding. The regions are then merged bottom-up in float64, one
vectorized pass per level (``subtree_regions``): a region is its
subtree's float64 extremes, a zero extreme +0.0, in every build.

That one build core (``_build``) has two outputs:

- ``column_tree``: boxes as columns (``BoxColumns``, as
  ``io.read_boxes_csv`` reads them), presorted by ``np.lexsort``, to the
  tree's raw columns in name order (``TreeColumns``), which
  ``io.write_tree_jsonl`` formats and the search checks. No Python
  object is made per box or node; ``boxtree build`` takes this path.
  Every name column, wherever it is made, follows ``name_column``:
  int64, or Python ints once a name reaches 2^63, with -1 for "no
  child" in either.
- ``build_memory_tree``: boxes presorted by ``presort`` to
  (name, TreeNodeValue) entries in pre-order, root first, which name
  each node's children and their regions. It is the view the engine
  build and in-process trees use; its boxes are the caller's objects,
  and its regions hold Python floats, as every search reads them.
"""

from __future__ import annotations

from operator import itemgetter
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .geometry import AXIS_XMIN, AXIS_YMIN, Box, Region, ensure_unique_names

__all__ = [
    "BoxColumns",
    "TreeColumns",
    "TreeNodeValue",
    "TreeGraphEntry",
    "name_column",
    "column_tree",
    "subtree_regions",
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


def name_column(names: Sequence[int]) -> np.ndarray:
    """Non-negative int names as a column: int64, or dtype object (the
    Python ints) once a name reaches 2^63, which int64 cannot hold.

    A column of node names and their child names must be made in one call,
    so that a child named beyond int64 makes the node names objects too.
    """
    return np.array(names, dtype=object if len(names) and max(names) >= 2**63 else np.int64)


class BoxColumns(NamedTuple):
    """Boxes as columns, as ``io.read_boxes_csv`` reads them in file order."""

    names: np.ndarray  # (n,), a name_column
    coords: np.ndarray  # (4, n) float64: x_min, y_min, x_max, y_max

    def boxes(self) -> List[Box]:
        """The boxes as ``Box`` objects, for the callers that need them."""
        return list(map(Box, self.names.tolist(), *self.coords.tolist()))


class TreeColumns(NamedTuple):
    """A tree's nodes as raw columns, names ascending, not yet checked.

    The names and child names are one ``name_column``, -1 where there is
    no child, whether read from a tree file, built by ``column_tree`` or
    zipped from in-process entries (``distributed_search.entry_columns``).
    """

    names: np.ndarray  # (n,)
    # (4, 3, n): per coordinate, of the box, lt region and gt region (NaN
    # where there is no child), so a search pass gathers contiguous rows
    rects: np.ndarray
    children: np.ndarray  # (n, 2): the lt and gt child names


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
    The median of a length-n array is index n // 2. The entries' boxes
    are the caller's objects; every region holds the float64 extremes of
    its subtree as Python floats, zero as +0.0 (``subtree_regions``).

    Returns the (name, TreeNodeValue) entries in pre-order, root first;
    an empty list for empty input.
    """
    n = len(x_sorted)
    if n == 0:
        return []
    # a box's index is its position in x_sorted
    index = dict(zip(map(itemgetter(0), x_sorted), range(n)))
    y_order = np.fromiter(map(index.__getitem__, map(itemgetter(0), y_sorted)), np.intp, n)
    coords = np.array([box[1:] for box in x_sorted], float).T
    node_box, links, regions = _build(coords, np.arange(n), y_order, depth)
    # each ends in a None, which a link of -1 picks
    regions = np.append(np.fromiter(map(Region, *regions.tolist()), object, n), None)
    names = np.append(np.fromiter(map(itemgetter(0), x_sorted), object, n)[node_box], None)
    boxes = np.fromiter(x_sorted, object, n)[node_box]
    children = [column[link] for link in links for column in (names, regions)]
    return list(zip(names[:n], map(TreeNodeValue, boxes, *children)))


def column_tree(boxes: BoxColumns) -> TreeColumns:
    """Build the balanced tree of boxes with unique names, as raw columns
    in name order.

    The tree of ``build_memory_tree(*presort(boxes.boxes()))``:
    ``np.lexsort`` presorts the columns, the build's box indices pick
    each node's name and box, and its regions the child regions.
    """
    names, coords = boxes
    n = len(names)
    rects = np.full((4, 3, n), np.nan)
    children = np.full((n, 2), -1, dtype=names.dtype)
    if n == 0:
        return TreeColumns(names, rects, children)
    x_order = np.lexsort((names, coords[AXIS_XMIN]))
    y_order = np.lexsort((names, coords[AXIS_YMIN]))
    node_box, links, regions = _build(coords, x_order, y_order, 0)
    pre_names = names[node_box]
    by_name = np.argsort(pre_names, kind="stable")  # pre-order positions in name order
    rects[:, 0] = coords[:, node_box[by_name]]
    for side, link in enumerate(links):
        child = link[by_name]
        has = child >= 0
        rects[:, 1 + side, has] = regions[:, child[has]]
        children[has, side] = pre_names[child[has]]
    return TreeColumns(pre_names[by_name], rects, children)


def _build(coords, x_order, y_order, depth):
    """The tree of the boxes ``coords[:, i]``, given their x and y
    super-key orders (box indices, ascending).

    The build core of both outputs. Returns, by pre-order position, each
    node's box index, its lt and gt positions (-1 where there is no
    child) and its subtree's region (4, n).
    """
    n = x_order.size
    # the subdivision takes a box's position in the x order as its index
    x_rank = np.empty(n, np.intp)
    x_rank[x_order] = np.arange(n)
    y_in_x = x_rank[y_order]
    ranks = (np.arange(n), np.empty(n, np.intp))
    ranks[AXIS_YMIN][y_in_x] = ranks[AXIS_XMIN]
    at, links, levels = _subdivide(ranks, y_in_x, depth)
    node_box = x_order[at]
    return node_box, links, subtree_regions(coords[:, node_box], links, levels)


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


def subtree_regions(boxes: np.ndarray, links: Sequence, levels: Sequence) -> np.ndarray:
    """The region of each node's subtree, (4, n) float64, by node position;
    merged in place when ``boxes`` are float64.

    ``boxes`` (4, n) holds each node's box, ``links`` its lt and gt
    positions (-1 where there is no child) and ``levels`` the positions
    of each level's nodes, root level first. A region is one value
    whatever the merge order: the float64 min and max of its subtree's
    coordinates, merged bottom-up one level at a time, with a zero
    extreme always +0.0.
    """
    regions = np.asarray(boxes, float)
    for level in reversed(levels):
        for link in links:
            child = link[level]
            parent, child = level[child >= 0], child[child >= 0]
            regions[:2, parent] = np.minimum(regions[:2, parent], regions[:2, child])
            regions[2:, parent] = np.maximum(regions[2:, parent], regions[2:, child])
    regions += 0.0  # -0.0 + 0.0 is +0.0
    return regions


def tree_depth(entries: Sequence[TreeGraphEntry]) -> int:
    """Levels of the tree rooted at the first entry (0 for none, 1 for a leaf).

    Raises ValueError once the walk down passes ``len(entries)`` levels,
    which only a cycle makes it do.
    """
    by_name = dict(entries)
    level = [entries[0][0]] if entries else []
    depth = 0
    while level:
        if depth == len(entries):
            raise ValueError(f"the entries below node {entries[0][0]} form a cycle")
        values = [by_name[name] for name in level]
        level = [c for v in values for c in (v.lt_name, v.gt_name) if c is not None]
        depth += 1
    return depth
