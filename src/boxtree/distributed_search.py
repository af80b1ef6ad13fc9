"""Iterative breadth-first intersection search of the distributed tree.

The search first finds the root with ``tree_root_name``, which is also
the one place that checks the tree: a tree that is not one walkable tree
(bad box, duplicate or missing node, several roots, a cycle, a region
that misses its subtree) raises ValueError before any query runs,
whether it was read from a file or built in-process.

Every tree is a ``distributed_tree.TreeDataset``, which holds the tree's
raw columns: the build's, or a tree file's (``io.read_tree_jsonl``). The
search reads only those columns, never the dataset's entries, and refuses
any other dataset. The columns are numpy arrays over node positions
(name order, so a node's position is its name's rank) of the names, the
boxes with the child regions, and the child names, -1 for no child, as
``memory_tree.tree_columns`` lays them out. The check maps child names
to positions by binary search and checks the columns with array passes:
in-degrees by ``bincount``, reachability by a level walk down from the
root, and the subtrees' regions by the build's merge, ``subtree_regions``.
The checked columns are kept on the tree dataset
(``PartitionedDataset.cached``) as a one-element dataset keyed by the
root's name, so every later pass and search of the same dataset reuses
them.

The queries come as (name, box) items, or as box columns
(``column_queries``, as ``boxtree search`` reads its query file). Both
become box columns, and travel as frontier blocks, at first one per
worker: positions of live queries in the search's query arrays and of
the nodes they visit next (none in the first blocks, which start at the
root), every block keyed by the root's name. Each pass is one join of
the frontier blocks to the column block (a broadcast join). Its visitor
tests the visits with numpy gathers, one coordinate at a time, and emits
blocks of (query, node) intersection pairs and next frontier blocks: for
each visit, the lt child and then the gt child, where the query meets
the child's region. No Python object is made per visit. The search
terminates when no frontier blocks remain, after at most tree-depth
passes, and the accumulated pairs are grouped per query.
"""

from __future__ import annotations

from itertools import product
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .distributed_tree import TreeDataset
from .engine import Engine, PairDataset, PartitionedDataset
from .geometry import Box, validate_box
from .memory_tree import BoxColumns, TreeColumns, coordinate_block, name_column, subtree_regions

__all__ = [
    "column_queries",
    "tree_root_name",
    "init_queries",
    "search_iteration",
    "run_search",
]

# Visits tested at once by a pass's visitor. It bounds the numpy
# temporaries of each worker (the calling thread or a pool thread), which
# the allocator keeps after a pass ends: testing whole frontier blocks
# (~60k visits) instead left the peak RSS of a grid search at n = 2^15
# about 3 MB higher (2 workers).
_SLICE = 8192


class _Tree(NamedTuple):
    """A checked tree as columns over node positions, in name order."""

    rects: np.ndarray  # (4, 3, n): TreeColumns.rects
    children: np.ndarray  # (n, 2): lt and gt positions, -1 where no child
    names: np.ndarray  # the node names ascending, TreeColumns.names
    root: int  # the root's position


class _Queries:
    """One search's queries as arrays, shared by all of its blocks."""

    __slots__ = ("names", "ids", "box")

    def __init__(self, names: np.ndarray, box: np.ndarray):
        # the distinct names ascending: the result's row order; and the
        # index of each query's name among them
        self.names, self.ids = np.unique(names, return_inverse=True)
        self.box = np.ascontiguousarray(box, float)  # (4, m)


class _Block(NamedTuple):
    """Visits: query ``query[i]`` at node ``node[i]`` (a tree position).

    A frontier block holds the visits of the next pass, a pair block the
    visits that found an intersection. The first frontier blocks have no
    node array: all of their queries are at the root.
    """

    queries: _Queries
    query: np.ndarray  # positions in the search's query arrays
    node: Optional[np.ndarray]


def column_queries(engine: Engine, boxes: BoxColumns) -> PairDataset:
    """A query dataset of boxes as columns, searched like (name, box) items.

    Its one element holds ``boxes``; ``init_queries`` splits them into
    one frontier block per worker, as ``engine.from_items`` would split
    the items, with no Python object per query.
    """
    return engine.from_items([(None, boxes)], 1)


def _columns(tree_ds: TreeDataset) -> PairDataset:
    """The tree's one (root name, _Tree) block, checked and kept on ``tree_ds``."""
    return tree_ds.cached("distributed_search.columns", _to_columns)


def _to_columns(tree_ds: TreeDataset) -> PairDataset:
    if not isinstance(tree_ds, TreeDataset):
        raise ValueError("a tree must be a TreeDataset, as build_distributed_tree builds it"
                         " and TreeDataset(engine, columns) holds a tree file's columns")
    columns = tree_ds.columns
    if not len(columns.names):
        return tree_ds.engine.from_items([])
    tree = _check(columns)
    root_name = tree.names[tree.root : tree.root + 1].tolist()[0]  # a Python int for int64 names
    return tree_ds.engine.from_items([(root_name, tree)], 1)


def _check(columns: TreeColumns) -> _Tree:
    """The checked tree of non-empty raw columns; see ``tree_root_name``."""
    names, rects, child_names = columns
    n = len(names)
    _check_boxes(names, rects[:, 0])
    repeated = names[1:] == names[:-1]
    if repeated.any():
        raise ValueError(f"duplicate tree node {names[int(np.argmax(repeated))]}")

    children = _child_positions(names, child_names)
    if (children == -2).any():
        raise ValueError(f"child node {min(child_names[children == -2].tolist())} has no entry")

    linked = children[children >= 0]
    parents = np.bincount(linked, minlength=n)
    roots = np.flatnonzero(parents == 0)
    if len(roots) != 1:
        raise ValueError(f"tree has {len(roots)} roots, expected 1")
    if len(linked) > n - 1:  # one root, so some node has two parents
        node = int(np.argmax(parents > 1))
        raise ValueError(f"node {names[node]} is the child of {parents[node]} nodes")

    # walk down to an empty level. Every node but the root has one parent, so
    # no node is reached twice and the walk ends; a cycle is never reached.
    levels = [roots]
    while len(levels[-1]):
        below = children[levels[-1]].ravel()
        levels.append(below[below >= 0])
    unreachable = n - sum(map(len, levels))
    if unreachable:
        raise ValueError(f"{unreachable} nodes are unreachable from the root")

    # every child region must hold its subtree's, tested in one pass; only
    # when one misses are the levels walked, to name the first miss bottom-up
    tight = subtree_regions(rects[:, 0].copy(), children.T, levels)
    if _misses(rects, tight, children, *np.nonzero(children >= 0)).any():
        for level, side in product(reversed(levels), (0, 1)):
            parent = level[children[level, side] >= 0]
            missed = _misses(rects, tight, children, parent, side)
            if missed.any():
                bad = parent[np.argmax(missed)]
                parent_name, kid_name = names[bad], names[children[bad, side]]
                raise ValueError(f"node {parent_name}: region of child {kid_name} misses its subtree")
    return _Tree(rects, children, names, int(roots[0]))


def _misses(rects: np.ndarray, tight: np.ndarray, children: np.ndarray, parent, side) -> np.ndarray:
    """Whether each child region (``parent``, ``side``) misses its subtree's region ``tight``."""
    region, sub = rects[:, 1 + side, parent], tight[:, children[parent, side]]
    return ~((region[:2] <= sub[:2]).all(axis=0) & (sub[2:] <= region[2:]).all(axis=0))


def _check_boxes(names: np.ndarray, box: np.ndarray) -> None:
    """Raise ``validate_box``'s ValueError for the first bad box of the columns (4, n)."""
    valid = np.isfinite(box).all(axis=0) & (box[0] <= box[2]) & (box[1] <= box[3])
    if not valid.all():
        i = int(np.argmin(valid))
        validate_box(Box(names[i], *box[:, i].tolist()))


def _child_positions(names: np.ndarray, child_names: np.ndarray) -> np.ndarray:
    """(n, 2) child positions: -1 for no child, -2 for a name without an entry.

    Looked up by binary search in the ascending names, of either dtype.
    """
    n = len(names)
    at = np.searchsorted(names, child_names).clip(max=n - 1)
    return np.where(names[at] == child_names, at, np.where(child_names < 0, -1, -2))


def tree_root_name(tree_ds: TreeDataset) -> Optional[int]:
    """Name of the tree's root; None if ``tree_ds`` is empty.

    Raises ValueError unless ``tree_ds`` is a ``TreeDataset`` whose
    columns form one tree a search can walk: every box is valid, and
    every name is unique; every child name has a node; exactly one node
    is no node's child; the walk down from it reaches every node exactly
    once; and every child region encloses the boxes of its subtree. The
    checked columns are kept on ``tree_ds``.
    """
    columns = _columns(tree_ds)
    return None if columns.is_empty() else columns.first()[0]


def init_queries(search_ds: PairDataset, root_name: Optional[int]) -> PairDataset:
    """Turn the (name, box) queries, or a ``column_queries`` dataset's
    boxes, into one frontier block per worker, keyed by the root's name,
    with no node array: every query is at the root. A query box that is
    not finite or is inverted is refused as ``validate_box`` refuses it.
    """
    items = search_ds.collect()
    if len(items) == 1 and isinstance(items[0][1], BoxColumns):
        boxes = items[0][1]
    else:
        coords = coordinate_block((box[1:] for _, box in items), len(items))
        boxes = BoxColumns(name_column([name for name, _ in items]), coords)
    _check_boxes(*boxes)
    count = len(boxes.names)
    if count and root_name is None:
        raise ValueError("cannot start a non-empty search against an empty tree")
    queries = _Queries(*boxes)
    blocks = [
        ((root_name, _Block(queries, block, None)),) if len(block) else ()
        for block in np.array_split(np.arange(count), search_ds.engine.config.workers)
    ]
    return PartitionedDataset(search_ds.engine, blocks)


def search_iteration(
    query_ds: PairDataset, tree_ds: TreeDataset
) -> Tuple[PairDataset, PairDataset]:
    """One breadth-first pass: visit, test, descend.

    Joins the frontier blocks to the tree's column block with
    ``_visit_block`` run on each, then splits the join's output into the
    pair blocks and the next frontier blocks, each in visit order.
    """
    found = query_ds.join(_columns(tree_ds), _visit_block)
    return found.filter(_is_pairs), found.filter(_is_frontier)


def _visit_block(root_name: int, block: _Block, tree: _Tree) -> List[Tuple]:
    """The pair blocks, keyed by None, and the next frontier blocks, keyed
    by the root's name, of a frontier block's visits, in visit order.

    A visit is a pair when the boxes intersect and the node's box is not
    the query box itself (same name and coordinates); it descends into
    each child whose region the query meets. The visits are tested
    ``_SLICE`` at a time, so each worker's temporaries stay small whatever
    the frontier's size; each slice emits at most one block of each kind.
    """
    queries = block.queries
    nodes = np.full(len(block.query), tree.root) if block.node is None else block.node
    out = []
    for start in range(0, len(block.query), _SLICE):
        query = block.query[start : start + _SLICE]
        node = nodes[start : start + _SLICE]
        # rows: the node's box, its lt region, its gt region (NaN, met by
        # no query, where there is no child). Closed overlap: each min is
        # at most the other rectangle's max.
        meets = np.ones((3, len(query)), dtype=bool)
        for k in range(4):
            coordinate = queries.box[k][query]
            if k < 2:
                meets &= coordinate <= tree.rects[k + 2].take(node, axis=1)
            else:
                meets &= tree.rects[k - 2].take(node, axis=1) <= coordinate
        pair = meets[0]
        hit = np.flatnonzero(pair)
        box = tree.rects[:, 0].take(node[hit], axis=1)
        own = hit[(box == queries.box[:, query[hit]]).all(axis=0)]
        pair[own[tree.names[node[own]] == queries.names[queries.ids[query[own]]]]] = False
        descend = meets[1:].T.ravel()  # per visit, lt then gt
        if pair.any():
            out.append((None, _Block(queries, query[pair], node[pair])))
        if descend.any():
            next_node = tree.children.take(node, axis=0).ravel()[descend]
            out.append((root_name, _Block(queries, np.repeat(query, 2)[descend], next_node)))
    return out


def _is_pairs(element) -> bool:
    return element[0] is None


def _is_frontier(element) -> bool:
    return element[0] is not None


def run_search(search_ds: PairDataset, tree_ds: TreeDataset) -> PairDataset:
    """Search the tree with every query box; group matches per query.

    Returns a pair dataset of (query name, ascending tuple of intersecting
    node names), keys ascending, queries without matches omitted.
    Emptiness of the next frontier is tested before joining, so the final
    pass does no work. ``tree_root_name`` checks the tree first and raises
    ValueError for one a search cannot walk, so the loop ends after at
    most one pass per tree level.
    """
    queries = init_queries(search_ds, tree_root_name(tree_ds))
    found = []
    while not queries.is_empty():
        pairs, queries = search_iteration(queries, tree_ds)
        found.append(pairs)
    blocks = [block for pairs in found for _, block in pairs.collect()]
    return search_ds.engine.from_items(_group(blocks, tree_ds))


def _group(blocks: List[_Block], tree_ds: TreeDataset) -> List[Tuple[int, tuple]]:
    """(query name, ascending tuple of node names) per query, by query name.

    Queries that share a name share a row, each node named once.
    """
    if not blocks:
        return []
    tree: _Tree = _columns(tree_ds).first()[1]
    queries = blocks[0].queries
    n = len(tree.names)
    ids = queries.ids[np.concatenate([b.query for b in blocks])]
    nodes = np.concatenate([b.node for b in blocks])
    # one int64 key per pair, sorted and unique, nodes in name order; ids *
    # n stays below 2^63 for any query and tree count that fits in memory
    ids, nodes = np.divmod(np.unique(ids * n + nodes), n)
    names = tree.names[nodes].tolist()  # the entries' own name objects
    firsts = np.flatnonzero(np.diff(ids, prepend=-1))
    bounds = firsts.tolist() + [len(names)]
    return [
        (query_name, tuple(names[start:end]))
        for query_name, start, end in zip(queries.names[ids[firsts]].tolist(), bounds, bounds[1:])
    ]
