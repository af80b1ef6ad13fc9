"""Memory-resident balanced k-d tree over boxes, built by presorting.

The tree is built from two arrays presorted by the x_min and y_min super
keys. At each level the array sorted by the split axis is partitioned
trivially at its median element, and the other array is swept once and
partitioned around the same pivot, which preserves both sort orders all
the way down and gives an O(n log n) build without median finding.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from .geometry import (
    AXIS_XMIN,
    Box,
    Region,
    SuperKey,
    boxes_intersect,
    ensure_unique_names,
    intersects_region,
    merge_region,
    superkey,
)

__all__ = [
    "KdNode",
    "presort",
    "sweep_and_partition",
    "build_memory_tree",
    "search_memory_tree",
    "tree_depth",
]


class KdNode(NamedTuple):
    """One tree node: its box, optional children, and bounding region."""

    box: Box
    less: Optional["KdNode"]
    greater: Optional["KdNode"]
    region: Region


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
) -> Optional[KdNode]:
    """Build the balanced tree from the two presorted arrays.

    The split axis cycles x_min, y_min with depth (x_min at even depths).
    The median of a length-n array is index n // 2.

    Returns None for empty input.
    """
    if not x_sorted:
        return None
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

    less = build_memory_tree(*less_args, depth + 1)
    greater = build_memory_tree(*greater_args, depth + 1)

    # Bounding regions are computed as the recursion unwinds.
    children = [c.region for c in (less, greater) if c is not None]
    return KdNode(median, less, greater, merge_region(median, children))


def search_memory_tree(root: Optional[KdNode], query: Box) -> List[int]:
    """Names of all tree boxes intersecting ``query``, except a box equal to it.

    A subtree is descended only when the query intersects its bounding
    region. Output is sorted ascending by name.
    """
    found: List[int] = []
    if root is not None:
        _search(root, query, found)
    found.sort()
    return found


def _search(node: KdNode, query: Box, found: List[int]) -> None:
    box = node.box
    if boxes_intersect(query, box) and box != query:
        found.append(box.name)
    less, greater = node.less, node.greater
    if less is not None and intersects_region(query, less.region):
        _search(less, query, found)
    if greater is not None and intersects_region(query, greater.region):
        _search(greater, query, found)


def tree_depth(root: Optional[KdNode]) -> int:
    """Number of levels in the tree (0 for an empty tree, 1 for a leaf)."""
    if root is None:
        return 0
    return 1 + max(tree_depth(root.less), tree_depth(root.greater))
