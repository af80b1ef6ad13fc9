"""Iterative breadth-first intersection search of the distributed tree.

The search first finds the root with ``tree_root_name``, which is also
the one place that checks the tree: a tree that is not one walkable tree
(bad box, duplicate or missing node, several roots, a cycle, a region
that misses its subtree) raises ValueError before any query runs,
whether it was read from a file or built in-process.

The check reads the entries once into columns: numpy arrays over node
positions (entry order, with the root moved to position 0) of the boxes,
the child regions and the child positions. It checks them with array
passes: in-degrees by ``bincount``, reachability by a level walk down
from the root, and each subtree's tight region bottom-up, one level at a
time. The columns are kept on the tree dataset
(``PartitionedDataset.cached``) as a one-element dataset keyed by the
root's name, so every later pass and search of the same dataset reuses
them.

The queries travel as frontier blocks, at first one per query partition:
positions of live queries in the search's query arrays and of the nodes
they visit next, every block keyed by the root's name. Each pass is one
join of the frontier blocks to the column block (a broadcast join). Its
visitor tests the visits with numpy gathers, one coordinate at a time,
and emits blocks of (query, node) intersection pairs and next frontier
blocks: for each visit, the lt child and then the gt child, where the
query meets the child's region. No Python object is made per visit. The
search terminates when no frontier blocks remain, after at most
tree-depth passes, and the accumulated pairs are grouped per query.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import is_not, itemgetter
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .engine import PairDataset, PartitionedDataset
from .geometry import validate_box

__all__ = [
    "tree_root_name",
    "init_queries",
    "search_iteration",
    "run_search",
]

# Visits tested at once by a pass's visitor. It bounds the numpy
# temporaries of each worker thread, which the allocator keeps after a
# pass ends: testing whole frontier blocks (~60k visits) instead left the
# peak RSS of a grid search at n = 2^15 about 3 MB higher (2 workers).
_SLICE = 8192


class _Tree(NamedTuple):
    """A checked tree as columns over node positions (root at 0)."""

    rects: np.ndarray  # (4, 3, n): per coordinate, of the box, lt region and gt
    # region (NaN where there is no child), so a pass gathers contiguous rows
    children: np.ndarray  # (n, 2): lt and gt positions, -1 where no child
    rank: np.ndarray  # position -> rank of the node's name in ascending order
    by_rank: np.ndarray  # rank -> position
    names_by_rank: np.ndarray  # the node names ascending, as Python objects


class _Queries:
    """One search's queries as arrays, shared by all of its blocks."""

    __slots__ = ("names", "ids", "box", "_own")

    def __init__(self, items: Sequence[Tuple[int, tuple]]):
        # the distinct names ascending, the result's row order, and the
        # index of each query's name among them
        names, self.ids = np.unique(np.array([name for name, _ in items], dtype=object),
                                    return_inverse=True)
        self.names = names.tolist()
        coordinates = chain.from_iterable(map(itemgetter(slice(1, None)), map(itemgetter(1), items)))
        self.box = np.fromiter(coordinates, float, 4 * len(items)).reshape(-1, 4).T.copy()  # (4, m)
        self._own: Optional[Tuple[_Tree, np.ndarray]] = None

    def own_nodes(self, tree: _Tree) -> np.ndarray:
        """Per query, the position of the tree node with the query's name, or -1.

        Kept for the last tree asked about; two threads racing here both
        compute the same array.
        """
        own = self._own
        if own is None or own[0] is not tree:
            # a dict for this search only: the tree keeps none, to save memory
            get = dict(zip(tree.names_by_rank.tolist(), tree.by_rank.tolist())).get
            nodes = np.array([get(name, -1) for name in self.names], dtype=np.intp)
            own = self._own = (tree, nodes[self.ids])
        return own[1]


class _Block(NamedTuple):
    """Visits: query ``query[i]`` at node ``node[i]`` (a tree position).

    A frontier block holds the visits of the next pass, a pair block the
    visits that found an intersection.
    """

    queries: _Queries
    query: np.ndarray  # positions in the search's query arrays
    node: np.ndarray


def _columns(tree_ds: PairDataset) -> PairDataset:
    """The tree's one (root name, _Tree) block, checked and kept on ``tree_ds``."""
    return tree_ds.cached("distributed_search.columns", _to_columns)


def _to_columns(tree_ds: PairDataset) -> PairDataset:
    entries = tree_ds.collect()
    if not entries:
        return tree_ds.engine.from_items([])
    names, values = zip(*entries)
    boxes, lt_names, lt_regions, gt_names, gt_regions = zip(*values)
    n = len(names)

    rects = np.full((4, 3, n), np.nan)
    coordinates = chain.from_iterable(map(itemgetter(slice(1, None)), boxes))
    rects[:, 0] = np.fromiter(coordinates, float, 4 * n).reshape(n, 4).T
    box = rects[:, 0]
    valid = np.isfinite(box).all(axis=0) & (box[0] <= box[2]) & (box[1] <= box[3])
    if not valid.all():
        validate_box(boxes[int(np.argmin(valid))])  # raises with the box's own message

    position = dict(zip(names, range(n)))
    if len(position) < n:
        duplicate = next(name for i, name in enumerate(names) if position[name] != i)
        raise ValueError(f"duplicate tree node {duplicate}")

    children = np.stack(
        (_links(lt_names, lt_regions, position, rects[:, 1]),
         _links(gt_names, gt_regions, position, rects[:, 2])),
        axis=1,
    )
    if (children == -2).any():
        missing = min(c for c in lt_names + gt_names if c is not None and c not in position)
        raise ValueError(f"child node {missing} has no entry")

    linked = children[children >= 0]
    parents = np.bincount(linked, minlength=n)
    roots = np.flatnonzero(parents == 0)
    if len(roots) != 1:
        raise ValueError(f"tree has {len(roots)} roots, expected 1")
    if len(linked) > n - 1:  # one root, so some node has two parents
        node = int(np.argmax(parents > 1))
        raise ValueError(f"node {names[node]} is the child of {parents[node]} nodes")

    # walk down level by level. Every node but the root has one parent, so
    # no node is reached twice and the walk ends; a cycle is never reached.
    levels = [roots]
    while True:
        below = children[levels[-1]].ravel()
        below = below[below >= 0]
        if not len(below):
            break
        levels.append(below)
    unreachable = n - sum(map(len, levels))
    if unreachable:
        raise ValueError(f"{unreachable} nodes are unreachable from the root")

    # tightest region around each subtree, bottom-up one level at a time:
    # every child region must enclose its child's
    tight = box.copy()
    for level in reversed(levels):
        for side in (0, 1):
            kid = children[level, side]
            parent, kid = level[kid >= 0], kid[kid >= 0]
            region, sub = rects[:, 1 + side, parent], tight[:, kid]
            inside = (region[:2] <= sub[:2]).all(axis=0) & (sub[2:] <= region[2:]).all(axis=0)
            if not inside.all():
                bad = int(np.argmin(inside))
                parent_name, kid_name = names[parent[bad]], names[kid[bad]]
                raise ValueError(f"node {parent_name}: region of child {kid_name} misses its subtree")
            tight[:2, parent] = np.minimum(tight[:2, parent], sub[:2])
            tight[2:, parent] = np.maximum(tight[2:, parent], sub[2:])

    # the root trades places with the first entry, so that every search
    # starts at position 0; the extra last slot maps -1, no node, to itself
    root = int(roots[0])
    renumber = np.arange(n + 1)
    renumber[[0, root, n]] = root, 0, -1
    children = renumber[children[renumber[:n]]]
    rects[:, :, [0, root]] = rects[:, :, [root, 0]]
    position[names[0]], position[names[root]] = root, 0
    names_by_rank = sorted(names)
    by_rank = np.fromiter(map(position.__getitem__, names_by_rank), np.intp, n)
    rank = np.empty(n, dtype=np.intp)
    rank[by_rank] = np.arange(n)
    tree = _Tree(rects, children, rank, by_rank, np.array(names_by_rank, dtype=object))
    return tree_ds.engine.from_items([(names[root], tree)], 1)


def _links(child_names, regions, position, region_columns) -> np.ndarray:
    """Child positions: -1 for no child, -2 for a name without an entry.
    Writes each child's region to its parent's column of ``region_columns``."""
    present = list(map(is_not, child_names, repeat(None)))
    has = np.array(present, dtype=bool)
    link = np.fromiter(map(position.get, child_names, repeat(-2)), np.intp, len(present))
    link[~has] = -1
    coordinates = chain.from_iterable(compress(regions, present))
    region_columns[:, has] = np.fromiter(coordinates, float, 4 * int(has.sum())).reshape(-1, 4).T
    return link


def tree_root_name(tree_ds: PairDataset) -> Optional[int]:
    """Name of the tree's root; None if ``tree_ds`` is empty.

    Raises ValueError unless the entries form one tree a search can walk:
    every box is valid and every name unique; every child name has an
    entry; exactly one entry is no entry's child; the walk down from it
    reaches every entry exactly once; and every child region encloses the
    boxes of its subtree. The checked columns are kept on ``tree_ds``.
    """
    columns = _columns(tree_ds)
    return None if columns.is_empty() else columns.first()[0]


def init_queries(search_ds: PairDataset, root_name: Optional[int]) -> PairDataset:
    """Turn each partition of (name, box) queries into one frontier block
    keyed by the root's name, every query at the root (position 0)."""
    if search_ds.is_empty():
        return search_ds
    if root_name is None:
        raise ValueError("cannot start a non-empty search against an empty tree")
    queries = _Queries(search_ds.collect())
    blocks = []
    start = 0
    for part in search_ds.partitions:
        end = start + len(part)
        at_root = np.zeros(end - start, dtype=np.intp)
        blocks.append(((root_name, _Block(queries, np.arange(start, end), at_root)),) if part else ())
        start = end
    return PartitionedDataset(search_ds.engine, blocks)


def search_iteration(
    query_ds: PairDataset, tree_ds: PairDataset
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
    own_nodes = queries.own_nodes(tree)
    out = []
    for start in range(0, len(block.query), _SLICE):
        query = block.query[start : start + _SLICE]
        node = block.node[start : start + _SLICE]
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
        own = np.flatnonzero(pair & (node == own_nodes[query]))
        if len(own):
            box = tree.rects[:, 0].take(node[own], axis=1)
            pair[own[(box == queries.box[:, query[own]]).all(axis=0)]] = False
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


def run_search(search_ds: PairDataset, tree_ds: PairDataset) -> PairDataset:
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


def _group(blocks: List[_Block], tree_ds: PairDataset) -> List[Tuple[int, tuple]]:
    """(query name, ascending tuple of node names) per query, by query name.

    Queries that share a name share a row, each node named once.
    """
    if not blocks:
        return []
    tree: _Tree = _columns(tree_ds).first()[1]
    queries = blocks[0].queries
    n = len(tree.rank)
    ids = queries.ids[np.concatenate([b.query for b in blocks])]
    ranks = tree.rank[np.concatenate([b.node for b in blocks])]
    # one int64 key per pair, sorted and unique; ids * n stays below 2^63
    # for any query and tree count that fits in memory
    ids, ranks = np.divmod(np.unique(ids * n + ranks), n)
    names = tree.names_by_rank[ranks].tolist()  # the entries' own name objects
    firsts = np.flatnonzero(np.diff(ids, prepend=-1))
    bounds = firsts.tolist() + [len(names)]
    query_names = queries.names
    return [
        (query_names[i], tuple(names[start:end]))
        for i, start, end in zip(ids[firsts].tolist(), bounds, bounds[1:])
    ]
