"""Iterative breadth-first intersection search of the distributed tree.

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

from typing import Optional, Tuple

from .engine import PairDataset
from .geometry import boxes_intersect, intersects_region

__all__ = [
    "tree_root_name",
    "init_queries",
    "search_iteration",
    "run_search",
]


def tree_root_name(tree_ds: PairDataset) -> Optional[int]:
    """Name of the unique entry no other entry references; None if empty."""
    keys = set()
    referenced = set()
    for name, value in tree_ds.collect():
        keys.add(name)
        if value.lt_name is not None:
            referenced.add(value.lt_name)
        if value.gt_name is not None:
            referenced.add(value.gt_name)
    if not keys:
        return None
    roots = keys - referenced
    if len(roots) != 1:
        raise ValueError(f"tree dataset has {len(roots)} roots, expected 1")
    return roots.pop()


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
    if value.lt_name is not None and intersects_region(query_box, value.lt_region):
        out.append((value.lt_name, query))
    if value.gt_name is not None and intersects_region(query_box, value.gt_region):
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
    final pass does no work. A valid tree needs at most one pass per
    entry; queries still live after that many passes mean the tree has a
    cycle, and raise ValueError.
    """
    queries = init_queries(search_ds, tree_root_name(tree_ds))
    max_passes = sum(len(part) for part in tree_ds.partitions)
    cumulative = search_ds.engine.from_items([])
    passes = 0
    while not queries.is_empty():
        if passes == max_passes:
            raise ValueError(f"search still live after {passes} passes: the tree has a cycle")
        intersections, queries = search_iteration(queries, tree_ds)
        cumulative = cumulative.union(intersections)
        passes += 1
    grouped = cumulative.group_by_key()
    return grouped.map(lambda kv: (kv[0], tuple(sorted(set(kv[1])))))
