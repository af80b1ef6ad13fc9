"""Iterative breadth-first intersection search of the distributed tree.

Every query starts at the root. Each pass joins the live queries to the
tree dataset by node name, tests the visited node's box against each
query, and re-keys the surviving queries by the child names whose
bounding regions the query intersects. The search terminates when no
queries remain, after at most tree-depth passes, and the accumulated
(query, node) intersection pairs are grouped per query.
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

    Joining the queries to the tree yields the visit dataset. Each visit
    emits an intersection pair (query name, node name) when the boxes
    intersect and the node's box is not the query box itself, and emits a
    next-pass query keyed by a child's name for each child whose region the
    query box intersects.
    """
    visit = query_ds.join(tree_ds)
    return visit.flat_map(_emit_intersections), visit.flat_map(_emit_next_queries)


def _emit_intersections(element):
    node_name, ((query_name, query_box), value) = element
    if boxes_intersect(query_box, value.box) and query_box != value.box:
        return ((query_name, node_name),)
    return ()


def _emit_next_queries(element):
    _, (query, value) = element
    query_box = query[1]
    out = []
    if value.lt_name is not None and intersects_region(query_box, value.lt_region):
        out.append((value.lt_name, query))
    if value.gt_name is not None and intersects_region(query_box, value.gt_region):
        out.append((value.gt_name, query))
    return out


def run_search(search_ds: PairDataset, tree_ds: PairDataset) -> PairDataset:
    """Search the tree with every query box; group matches per query.

    Returns a pair dataset of (query name, ascending tuple of intersecting
    node names), keys ascending, queries without matches omitted.
    Emptiness of the next-pass queries is tested before joining, so the
    final pass does no work.
    """
    engine = search_ds.engine
    root = tree_root_name(tree_ds)
    if root is None and not search_ds.is_empty():
        raise ValueError("cannot search an empty tree")
    queries = init_queries(search_ds, root)
    cumulative = engine.from_items([])
    while not queries.is_empty():
        intersections, queries = search_iteration(queries, tree_ds)
        cumulative = cumulative.union(intersections)
    grouped = cumulative.group_by_key()
    return grouped.map(lambda kv: (kv[0], tuple(sorted(set(kv[1])))))
