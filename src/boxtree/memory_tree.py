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

- the tree's raw columns in name order (``TreeColumns``), which
  ``io.write_tree_jsonl`` formats and the search checks, with no Python
  object per node. ``column_tree`` builds them from boxes as columns
  (``BoxColumns``, as ``io.read_boxes_csv`` reads them), presorted by
  ``np.lexsort``, with no object per box either; ``boxtree build`` takes
  this path. ``box_tree`` builds them from ``Box`` objects on
  ``presort``'s orders, which compare the caller's values exactly; the
  in-process build takes this path.
- ``build_memory_tree``: boxes presorted by ``presort`` to
  (name, TreeNodeValue) entries in pre-order, root first, which name
  each node's children and their regions. The engine build's subtree
  jobs return them; its boxes are the caller's objects, and its regions
  hold Python floats, as every search reads them.

``tree_columns`` lays out every ``TreeColumns`` from nodes in any
order: the builds', the tree file's and those of entries
(``entry_columns``). ``tree_entries`` is its inverse: the entries of
columns, in name order, which the tree dataset of a cutoff-0 build or of
a tree file makes only when they are read. Every name column follows
``name_column``: int64, or Python ints once a name reaches 2^63, with -1
for "no child" in either.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import is_not, itemgetter
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .geometry import AXIS_XMIN, AXIS_YMIN, Box, Region, ensure_unique_names

__all__ = [
    "BoxColumns",
    "TreeColumns",
    "TreeNodeValue",
    "TreeGraphEntry",
    "name_column",
    "coordinate_block",
    "tree_columns",
    "column_tree",
    "box_tree",
    "entry_columns",
    "tree_entries",
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
    no child, as ``tree_columns`` lays them out.
    """

    names: np.ndarray  # (n,)
    # (4, 3, n): per coordinate, of the box, lt region and gt region (NaN
    # where there is no child), so a search pass gathers contiguous rows
    rects: np.ndarray
    children: np.ndarray  # (n, 2): the lt and gt child names


def coordinate_block(rects: Iterable[Sequence], k: int) -> np.ndarray:
    """k rectangles of four numbers (``Region``s, ``box[1:]``s) as a (4, k)
    float64 view (F order); an int a float cannot hold raises OverflowError."""
    return np.fromiter(chain.from_iterable(rects), float, 4 * k).reshape(k, 4).T


def tree_columns(names: np.ndarray, boxes: np.ndarray, links: Iterable[Tuple]) -> TreeColumns:
    """The raw columns of nodes in any order: their names, (4, n) boxes and,
    lt side first, which nodes have that child (bool, (n,)) and those
    children's names and (4, k) regions, read a side at a time so that
    each side can be gathered when it is reached. Repeated names stay."""
    by_name = np.argsort(names, kind="stable")
    rank = np.argsort(by_name)  # each node's position in name order
    rects = np.full((4, 3, len(names)), np.nan)
    rects[:, 0] = boxes[:, by_name]
    children = np.full((len(names), 2), -1, dtype=names.dtype)
    side = 0
    for has, child_names, regions in links:
        at = rank[has]
        rects[:, 1 + side, at] = regions
        children[at, side] = child_names
        side += 1
        del has, child_names, regions, at  # freed before the next side is gathered
    return TreeColumns(names[by_name], rects, children)


def presort(boxes: Sequence[Box]) -> Tuple[List[Box], List[Box]]:
    """Sort the boxes independently by the x_min and y_min super keys.

    Raises DuplicateNameError when two boxes share a name, because the
    super-key order is only total for unique names.
    """
    return tuple(list(map(boxes.__getitem__, order)) for order in _presort_orders(boxes))


def _presort_orders(boxes: Sequence[Box]) -> Tuple[List[int], List[int]]:
    """``presort``'s two orders, as indices into ``boxes``: the super keys
    of the caller's coordinates and names, compared exactly."""
    ensure_unique_names(boxes)
    names = list(map(itemgetter(0), boxes))
    orders = []
    for axis in (AXIS_XMIN, AXIS_YMIN):
        keys = list(zip(map(itemgetter(1 + axis), boxes), names))
        orders.append(sorted(range(len(boxes)), key=keys.__getitem__))
    return orders[0], orders[1]


def build_memory_tree(
    x_sorted: Sequence[Box], y_sorted: Sequence[Box], depth: int = 0
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
    # a box's index is its position in x_sorted
    index = dict(zip(map(itemgetter(0), x_sorted), range(n)))
    y_order = np.fromiter(map(index.__getitem__, map(itemgetter(0), y_sorted)), np.intp, n)
    coords = coordinate_block(map(itemgetter(slice(1, None)), x_sorted), n)
    node_box, links, regions = _build(coords, np.arange(n), y_order, depth)
    # each ends in a None, which a link of -1 picks
    regions = np.append(np.fromiter(map(Region, *regions.tolist()), object, n), None)
    names = np.append(np.fromiter(map(itemgetter(0), x_sorted), object, n)[node_box], None)
    boxes = np.fromiter(x_sorted, object, n)[node_box]
    children = [column[link] for link in links for column in (names, regions)]
    return list(zip(names[:n], map(TreeNodeValue, boxes, *children)))


def entry_columns(entries: Sequence[TreeGraphEntry]) -> TreeColumns:
    """The raw columns of (name, TreeNodeValue) entries in any order, in
    name order: the inverse of ``build_memory_tree``.

    Refuses an entry whose box has another name, a child that has a name
    without a region or the reverse, and a negative name, which -1, "no
    child", would shadow; the search's check does the rest.
    """
    names, values = zip(*entries) if entries else ((), ())
    boxes, lt_names, lt_regions, gt_names, gt_regions = zip(*values) if values else [()] * 5
    if names != tuple(map(itemgetter(0), boxes)):
        name, box = next((name, box) for name, box in zip(names, boxes) if name != box[0])
        raise ValueError(f"tree entry {name} holds the box of node {box[0]}")
    sides = ((lt_names, lt_regions), (gt_names, gt_regions))
    present = [list(map(is_not, child_names, repeat(None))) for child_names, _ in sides]
    for has, (child_names, regions) in zip(present, sides):
        if has != list(map(is_not, regions, repeat(None))):
            i = next(i for i, (c, r) in enumerate(zip(child_names, regions)) if (c is None) != (r is None))
            raise ValueError(f"node {names[i]}: child {child_names[i]} has region {regions[i]}")
    # one column, so that a child named beyond int64 widens the names too
    column = name_column([*names, *compress(lt_names, present[0]), *compress(gt_names, present[1])])
    if (column < 0).any():
        raise ValueError(f"tree node name {min(column.tolist())} is negative")
    n = len(names)
    child_columns = np.split(column[n:], [sum(present[0])])
    links = ((np.array(has, bool), kids, coordinate_block(compress(regions, has), len(kids)))
             for has, kids, (_, regions) in zip(present, child_columns, sides))
    return tree_columns(column[:n], coordinate_block(map(itemgetter(slice(1, None)), boxes), n), links)


def column_tree(boxes: BoxColumns) -> TreeColumns:
    """Build the balanced tree of boxes with unique names, as raw columns
    in name order.

    The tree of ``build_memory_tree(*presort(boxes.boxes()))``:
    ``np.lexsort`` presorts the float64 columns.
    """
    names, coords = boxes
    x_order = np.lexsort((names, coords[AXIS_XMIN]))
    y_order = np.lexsort((names, coords[AXIS_YMIN]))
    return _laid_out(names, coords, x_order, y_order)


def box_tree(boxes: Sequence[Box]) -> TreeColumns:
    """The tree of ``build_memory_tree(*presort(boxes))`` as raw columns in
    name order, with no object made per node.

    The build takes ``presort``'s orders, which compare the caller's
    values exactly: a float64 presort, as ``column_tree``'s, ties the
    ints from 2^53 that a double rounds to one value, and builds another
    tree. Raises DuplicateNameError as ``presort`` does.
    """
    x_order, y_order = (np.array(order, np.intp) for order in _presort_orders(boxes))
    names = name_column(list(map(itemgetter(0), boxes)))
    coords = coordinate_block(map(itemgetter(slice(1, None)), boxes), len(boxes))
    return _laid_out(names, coords, x_order, y_order)


def _laid_out(names, coords, x_order, y_order) -> TreeColumns:
    """The raw columns of the tree of the boxes ``names``, ``coords`` (4, n),
    given their x and y super-key orders: the build's box indices and
    regions give each box's child names and regions."""
    node_box, links, regions = _build(coords, x_order, y_order, 0)
    # each box's pre-order position: the nodes go in box order, so the boxes need no gather
    pre = np.empty_like(node_box)
    pre[node_box] = np.arange(len(names))
    sides = ((kid >= 0, names[node_box[kid[kid >= 0]]], regions[:, kid[kid >= 0]])
             for kid in (link[pre] for link in links))
    return tree_columns(names, coords, sides)


def tree_entries(columns: TreeColumns, boxes: Optional[Sequence[Box]] = None) -> List[TreeGraphEntry]:
    """The (name, TreeNodeValue) entries of raw columns, in their order:
    the inverse of ``entry_columns``.

    ``boxes`` are the nodes' boxes, one per name, in any order; by
    default they are made from the columns. The regions hold Python
    floats, as ``build_memory_tree``'s.
    """
    names, rects, children = columns
    n = len(names)
    if boxes is None:
        boxes = map(Box, names.tolist(), *rects[:, 0].tolist())
    else:
        boxes = sorted(boxes, key=itemgetter(0))
    links = []
    for side in (0, 1):
        has = children[:, side] >= 0
        child_names, regions = np.full(n, None, object), np.full(n, None, object)
        child_names[has] = children[has, side]  # Python ints from int64
        regions[has] = np.fromiter(map(Region, *rects[:, 1 + side, has].tolist()), object, int(has.sum()))
        links += [child_names, regions]
    return list(zip(names.tolist(), map(TreeNodeValue, boxes, *links)))


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
    while sizes.any():  # only the root's segment can be empty
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
    """Levels of the tree (0 for none, 1 for a leaf), walked down from its
    root: the one entry that no entry names as a child, in any order.

    Raises ValueError for a child name with no entry, for entries with
    no root or several, and once the walk down passes ``len(entries)``
    levels, which only a cycle makes it do.
    """
    by_name = dict(entries)
    children = set()
    for name, value in entries:
        for child in (value.lt_name, value.gt_name):
            if child is not None:
                if child not in by_name:
                    raise ValueError(f"node {name}: child {child} has no entry")
                children.add(child)
    roots = [name for name, _ in entries if name not in children]
    if entries and len(roots) != 1:
        raise ValueError(f"the entries have {len(roots)} roots, expected 1")
    level, depth = roots, 0
    while level:
        if depth == len(entries):
            raise ValueError(f"the entries below node {roots[0]} form a cycle")
        values = [by_name[name] for name in level]
        level = [c for v in values for c in (v.lt_name, v.gt_name) if c is not None]
        depth += 1
    return depth
