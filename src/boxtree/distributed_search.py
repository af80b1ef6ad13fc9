"""Iterative breadth-first intersection search of the distributed tree.

The search first finds the root with ``tree_root_name``, which is also
the one place that checks the tree: a tree that is not one walkable tree
(bad box, duplicate or missing node, several roots, a cycle, a region
that misses its subtree) raises ValueError before any query runs,
whether it was read from a file or built in-process.

Every query starts at the root. Each pass is one join of the live queries
to the tree dataset by node name; the visitor run on each match tests the
visited node's box against the query and re-keys the query by the child
names whose bounding regions it intersects. The tree is hashed on the
first pass only (the engine keeps the index on the tree dataset), and no
visit tuples are materialized. The search terminates when no queries
remain, after at most tree-depth passes, and the accumulated (query, node)
intersection pairs are grouped per query.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .distributed_tree import TreeNodeValue
from .engine import PairDataset
from .geometry import boxes_intersect, validate_box

__all__ = [
    "tree_root_name",
    "init_queries",
    "search_iteration",
    "run_search",
]


def tree_root_name(tree_ds: PairDataset) -> Optional[int]:
    """Name of the tree's root; None if ``tree_ds`` is empty.

    Raises ValueError unless the entries form one tree a search can walk:
    every box is valid and every name unique; every child name has an
    entry; exactly one entry is no entry's child; the walk down from it
    reaches every entry exactly once; and every child region encloses the
    boxes of its subtree.
    """
    by_name: Dict[int, TreeNodeValue] = {}
    children = set()
    for name, value in tree_ds.collect():
        validate_box(value.box)
        if name in by_name:
            raise ValueError(f"duplicate tree node {name}")
        by_name[name] = value
        if value.lt_name is not None:
            children.add(value.lt_name)
        if value.gt_name is not None:
            children.add(value.gt_name)
    missing = children - by_name.keys()
    if missing:
        raise ValueError(f"child node {min(missing)} has no entry")
    if not by_name:
        return None
    roots = by_name.keys() - children
    if len(roots) != 1:
        raise ValueError(f"tree has {len(roots)} roots, expected 1")
    (root,) = roots

    order: List[int] = []  # pre-order, so children come after their parent
    seen = set()
    stack = [root]
    while stack:
        name = stack.pop()
        if name in seen:
            raise ValueError(f"node {name} is reached twice from the root")
        seen.add(name)
        order.append(name)
        value = by_name[name]
        if value.lt_name is not None:
            stack.append(value.lt_name)
        if value.gt_name is not None:
            stack.append(value.gt_name)
    if len(order) != len(by_name):
        raise ValueError(f"{len(by_name) - len(order)} nodes are unreachable from the root")

    # tightest region around each subtree, children before parents. The
    # pass allocates one tuple per node: each allocation counts towards a
    # collection that walks the whole tree.
    tight: Dict[int, Tuple[float, float, float, float]] = {}
    for name in reversed(order):
        value = by_name[name]
        _, x0, y0, x1, y1 = value.box
        for i in (1, 3):  # lt_name, lt_region and gt_name, gt_region
            child = value[i]
            if child is None:
                continue
            region = value[i + 1]
            c0, d0, c1, d1 = tight[child]
            if not (region[0] <= c0 and region[1] <= d0 and c1 <= region[2] and d1 <= region[3]):
                raise ValueError(f"node {name}: region of child {child} misses its subtree")
            if c0 < x0:
                x0 = c0
            if d0 < y0:
                y0 = d0
            if c1 > x1:
                x1 = c1
            if d1 > y1:
                y1 = d1
        tight[name] = (x0, y0, x1, y1)
    return root


def init_queries(search_ds: PairDataset, root_name: Optional[int]) -> PairDataset:
    """Key every (name, box) query by the root so all queries visit it first."""
    if root_name is None:
        if search_ds.is_empty():
            return search_ds
        raise ValueError("cannot start a non-empty search against an empty tree")
    return search_ds.map(lambda item, root=root_name: (root, item))


def search_iteration(
    query_ds: PairDataset, tree_ds: PairDataset
) -> Tuple[PairDataset, PairDataset]:
    """One breadth-first pass: visit, test, descend.

    Joins the queries to the tree with ``_visit`` run on each match, then
    splits the join's output into the intersection pairs (query name, node
    name) and the next-pass queries (child name, (query name, query box)),
    each in visit order.
    """
    found = query_ds.join(tree_ds, _visit)
    return found.filter(_is_pair), found.filter(_is_next_query)


def _visit(node_name, query, value):
    """A pair when the boxes intersect and the node's box is not the query
    box itself; a next-pass query per child whose region the query meets."""
    query_name, query_box = query
    out = []
    if boxes_intersect(query_box, value.box) and query_box != value.box:
        out.append((query_name, node_name))
    if value.lt_name is not None and boxes_intersect(query_box, value.lt_region):
        out.append((value.lt_name, query))
    if value.gt_name is not None and boxes_intersect(query_box, value.gt_region):
        out.append((value.gt_name, query))
    return out


# A pair's value is a node name (an int); a next-pass query's is the
# (name, box) query tuple.
def _is_pair(element) -> bool:
    return not isinstance(element[1], tuple)


def _is_next_query(element) -> bool:
    return isinstance(element[1], tuple)


def run_search(search_ds: PairDataset, tree_ds: PairDataset) -> PairDataset:
    """Search the tree with every query box; group matches per query.

    Returns a pair dataset of (query name, ascending tuple of intersecting
    node names), keys ascending, queries without matches omitted.
    Emptiness of the next-pass queries is tested before joining, so the
    final pass does no work. ``tree_root_name`` checks the tree first and
    raises ValueError for one a search cannot walk, so the loop ends
    after at most one pass per tree level.
    """
    queries = init_queries(search_ds, tree_root_name(tree_ds))
    cumulative = search_ds.engine.from_items([])
    while not queries.is_empty():
        intersections, queries = search_iteration(queries, tree_ds)
        cumulative = cumulative.union(intersections)
    grouped = cumulative.group_by_key()
    return grouped.map(lambda kv: (kv[0], tuple(sorted(set(kv[1])))))
