"""Memory-resident balanced k-d tree build, by presorting.

The tree is built from two arrays presorted by the x_min and y_min super
keys. At each level the array sorted by the split axis is partitioned
trivially at its median element, and the other array is swept once and
partitioned around the same pivot, which preserves both sort orders all
the way down and gives an O(n log n) build without median finding.
The build emits the program's one tree representation: (name,
TreeNodeValue) entries that name each node's children and their regions.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from .geometry import (
    AXIS_XMIN,
    Box,
    Region,
    SuperKey,
    ensure_unique_names,
    merge_region,
    superkey,
)

__all__ = [
    "TreeNodeValue",
    "TreeGraphEntry",
    "presort",
    "sweep_and_partition",
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


def sweep_and_partition(
    arr: Sequence[Box], pivot: SuperKey, pivot_axis: int
) -> Tuple[List[Box], List[Box]]:
    """Stable one-pass split of ``arr`` around ``pivot`` in ``pivot_axis``.

    ``arr`` is swept from lowest to highest address; elements whose
    ``pivot_axis`` super key is below the pivot go to the first output,
    above to the second, and the single equal element (the pivot's own box)
    is dropped. Relative order is preserved in both outputs, so an array
    sorted in the other axis stays sorted.
    """
    coord = pivot_axis + 1
    less: List[Box] = []
    greater: List[Box] = []
    for b in arr:
        key = (b[coord], b[0])
        if key < pivot:
            less.append(b)
        elif key > pivot:
            greater.append(b)
    return less, greater


def build_memory_tree(
    x_sorted: Sequence[Box],
    y_sorted: Sequence[Box],
    depth: int = 0,
) -> List[TreeGraphEntry]:
    """Build the balanced tree from the two presorted arrays.

    The split axis cycles x_min, y_min with depth (x_min at even depths).
    The median of a length-n array is index n // 2.

    Returns the (name, TreeNodeValue) entries in pre-order, root first;
    an empty list for empty input.
    """
    entries: List[TreeGraphEntry] = []
    _build(x_sorted, y_sorted, depth, entries)
    return entries


def _build(x_sorted, y_sorted, depth, entries) -> Tuple[Optional[int], Optional[Region]]:
    """Append a subtree's entries; return its root's name and its region."""
    if not x_sorted:
        return None, None
    axis = depth & 1
    if axis == AXIS_XMIN:
        split_arr, other_arr = x_sorted, y_sorted
    else:
        split_arr, other_arr = y_sorted, x_sorted

    m = len(split_arr) // 2
    median = split_arr[m]
    pivot = superkey(median, axis)
    other_less, other_greater = sweep_and_partition(other_arr, pivot, axis)
    split_less, split_greater = split_arr[:m], split_arr[m + 1 :]

    if axis == AXIS_XMIN:
        less_args = (split_less, other_less)
        greater_args = (split_greater, other_greater)
    else:
        less_args = (other_less, split_less)
        greater_args = (other_greater, split_greater)

    # the node takes its pre-order slot now and fills it once the children
    # have returned their names and regions
    slot = len(entries)
    entries.append(None)
    lt_name, lt_region = _build(*less_args, depth + 1, entries)
    gt_name, gt_region = _build(*greater_args, depth + 1, entries)
    entries[slot] = (median.name, TreeNodeValue(median, lt_name, lt_region, gt_name, gt_region))
    children = [r for r in (lt_region, gt_region) if r is not None]
    return median.name, merge_region(median, children)


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
