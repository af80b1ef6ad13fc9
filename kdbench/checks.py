"""Output checks made apart from the program under test.

Nothing here imports ``boxtree``: trees and search results arrive as plain
Python values (parsed from the program's files, or converted from its
datasets by ``run.py``), and every expected answer is computed afresh,
either by brute force with numpy or from the tree's defining properties.

A tree is a dict ``name -> (box, lt_name, lt_region, gt_name, gt_region)``
where ``box`` and the regions are ``(x_min, y_min, x_max, y_max)`` tuples
and an absent child has ``None`` for both its name and its region. A
search result is a dict ``query name -> ascending tuple of matched names``
holding only queries with at least one match.

Each check returns a list of problems; an empty list means the output
passed. At most ``MAX_PROBLEMS`` problems are listed per check.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

MAX_PROBLEMS = 10
BOXES_PER_SQUARE = 16  # the paper's square-grid data: 16 boxes per square
CHUNK = 256  # queries per numpy block in the brute force

Rect = Tuple[float, float, float, float]
Node = Tuple[Rect, Optional[int], Optional[Rect], Optional[int], Optional[Rect]]
Tree = Dict[int, Node]
Matches = Dict[int, Tuple[int, ...]]


class _Problems(list):
    def add(self, msg: str) -> None:
        if len(self) < MAX_PROBLEMS:
            self.append(msg)


# ----------------------------------------------------------------------
# parsing the program's files


def parse_tree_jsonl(text: str) -> Tuple[Tree, List[str]]:
    """Tree file text -> (tree, problems). Duplicate or malformed lines are problems."""
    tree: Tree = {}
    problems = _Problems()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            name = obj["name"]
            node = (tuple(obj["box"]), *_child(obj["lt"]), *_child(obj["gt"]))
        except (KeyError, TypeError, ValueError) as exc:
            problems.add(f"tree line {lineno}: malformed: {exc}")
            continue
        if name in tree:
            problems.add(f"tree line {lineno}: node {name} appears twice")
        tree[name] = node
    return tree, problems


def _child(obj) -> Tuple[Optional[int], Optional[Rect]]:
    if obj is None:
        return None, None
    return obj["name"], tuple(obj["region"])


def parse_results_csv(text: str) -> Tuple[Matches, List[str]]:
    """Results file text -> (matches, problems)."""
    got: Matches = {}
    problems = _Problems()
    lines = text.splitlines()
    if not lines or lines[0] != "query,matches":
        problems.add(f"results header is {lines[:1]}")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        query, _, names = line.partition(",")
        try:
            key = int(query)
            if key in got:
                problems.add(f"results line {lineno}: query {key} appears twice")
            got[key] = tuple(int(m) for m in names.split(";")) if names else ()
        except ValueError as exc:
            problems.add(f"results line {lineno}: malformed: {exc}")
    return got, problems


# ----------------------------------------------------------------------
# tree properties


def check_tree(tree: Tree, boxes: Dict[int, Rect]) -> List[str]:
    """Structure, depth, regions and the median split.

    - the node names are exactly the input names, and each node carries
      its input box;
    - one root; every other node is referenced exactly once and reached
      from the root;
    - depth <= floor(log2 n) + 1;
    - each child region encloses every box of the child's subtree;
    - on the split axis (x_min at even depths, y_min at
      odd), every super key (coordinate, name) of the lt subtree is below
      the node's, every one of the gt subtree above, and the two subtree
      sizes differ by at most one.
    """
    problems = _Problems()
    n = len(boxes)
    if set(tree) != set(boxes):
        missing = len(set(boxes) - set(tree))
        extra = len(set(tree) - set(boxes))
        problems.add(f"tree names differ from the input: {missing} missing, {extra} extra")
        return problems
    for name, node in tree.items():
        if tuple(node[0]) != tuple(boxes[name]):
            problems.add(f"node {name} box {node[0]} is not its input box {boxes[name]}")

    refs: Dict[int, int] = {}
    for name, (_, lt, lt_region, gt, gt_region) in tree.items():
        for child, region in ((lt, lt_region), (gt, gt_region)):
            if (child is None) != (region is None):
                problems.add(f"node {name} has a child name without a region or back")
            if child is None:
                continue
            if child not in tree:
                problems.add(f"node {name} links to missing node {child}")
                continue
            refs[child] = refs.get(child, 0) + 1
    roots = [name for name in tree if name not in refs]
    if len(roots) != 1:
        problems.add(f"tree has {len(roots)} roots")
    for child, count in refs.items():
        if count != 1:
            problems.add(f"node {child} is referenced {count} times")
    if problems or n == 0:
        return problems

    # pre-order walk from the root; every node is reached exactly once
    root = roots[0]
    order: List[Tuple[int, int]] = []
    depth_of = {root: 0}
    stack = [root]
    while stack:
        name = stack.pop()
        order.append((name, depth_of[name]))
        _, lt, _, gt, _ = tree[name]
        for child in (gt, lt):
            if child is not None:
                if child in depth_of:
                    problems.add(f"node {child} is reached twice")
                    return problems
                depth_of[child] = depth_of[name] + 1
                stack.append(child)
    if len(order) != n:
        problems.add(f"{n - len(order)} nodes are not reachable from root {root}")
        return problems
    depth = 1 + max(depth_of.values())
    limit = math.floor(math.log2(n)) + 1
    if depth > limit:
        problems.add(f"tree depth {depth} exceeds floor(log2 {n}) + 1 = {limit}")

    # subtree aggregates, children before parents: size, bounding box, and
    # the lowest and highest (coordinate, name) super key on each axis
    agg: Dict[int, tuple] = {}
    for name, d in reversed(order):
        box, lt, lt_region, gt, gt_region = tree[name]
        kx, ky = (box[0], name), (box[1], name)
        size, bbox = 1, box
        lo_x = hi_x = kx
        lo_y = hi_y = ky
        kids = []
        for child, region in ((lt, lt_region), (gt, gt_region)):
            if child is None:
                kids.append(None)
                continue
            c = agg[child]
            kids.append(c)
            c_box = c[1]
            if not (region[0] <= c_box[0] and region[1] <= c_box[1]
                    and region[2] >= c_box[2] and region[3] >= c_box[3]):
                problems.add(f"region {region} of node {child} does not enclose its subtree {c_box}")
            size += c[0]
            bbox = _union(bbox, c_box)
            lo_x, hi_x = min(lo_x, c[2]), max(hi_x, c[3])
            lo_y, hi_y = min(lo_y, c[4]), max(hi_y, c[5])
        agg[name] = (size, bbox, lo_x, hi_x, lo_y, hi_y)
        _check_median(problems, name, d, kx if d % 2 == 0 else ky, kids)
    return problems


def _union(a: Rect, b: Rect) -> Rect:
    return (min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3]))


def _check_median(problems: _Problems, name: int, depth: int, key, kids) -> None:
    lo, hi = (2, 3) if depth % 2 == 0 else (4, 5)
    lt, gt = kids
    if lt is not None and not lt[hi] < key:
        problems.add(f"node {name}: lt subtree key {lt[hi]} is not below {key}")
    if gt is not None and not gt[lo] > key:
        problems.add(f"node {name}: gt subtree key {gt[lo]} is not above {key}")
    n_lt = lt[0] if lt is not None else 0
    n_gt = gt[0] if gt is not None else 0
    if abs(n_lt - n_gt) > 1:
        problems.add(f"node {name}: unbalanced split, subtree sizes {n_lt} and {n_gt}")


# ----------------------------------------------------------------------
# search results


def expected_grid_matches(boxes: Sequence[Tuple[int, float, float, float, float]]
                          ) -> Tuple[Matches, List[str]]:
    """Self-join of square-grid data, brute-forced one square at a time.

    Square s holds the names k*s .. k*(s+1)-1, k = BOXES_PER_SQUARE.
    Pairs across squares are ruled out by checking that the squares'
    x-extents are disjoint and ordered, so only the k x k pairs inside
    each square are tested.
    """
    k = BOXES_PER_SQUARE
    problems = _Problems()
    rows = sorted(boxes)
    n = len(rows)
    if n % k or [r[0] for r in rows] != list(range(n)):
        problems.add(f"grid names are not 0..{n - 1} in whole squares")
        return {}, problems
    arr = np.array([r[1:] for r in rows], dtype=float).reshape(-1, k, 4)
    x_lo, x_hi = arr[:, :, 0].min(axis=1), arr[:, :, 2].max(axis=1)
    if not np.all(x_hi[:-1] < x_lo[1:]):
        problems.add("grid squares overlap in x, so per-square brute force is not enough")
        return {}, problems
    a = arr[:, :, None, :]
    b = arr[:, None, :, :]
    hit = ((a[..., 0] <= b[..., 2]) & (b[..., 0] <= a[..., 2])
           & (a[..., 1] <= b[..., 3]) & (b[..., 1] <= a[..., 3]))
    hit &= ~np.eye(k, dtype=bool)
    # np.nonzero walks (square, i, j) in row-major order, so each
    # query's partners come out ascending
    found: Dict[int, List[int]] = {}
    s, i, j = np.nonzero(hit)
    for q, m in zip((k * s + i).tolist(), (k * s + j).tolist()):
        found.setdefault(q, []).append(m)
    return {q: tuple(ms) for q, ms in found.items()}, problems


def expected_matches(queries: Sequence[Tuple[int, float, float, float, float]],
                     tree: Sequence[Tuple[int, float, float, float, float]]) -> Matches:
    """Brute force: each query against every tree box, closed intervals.

    A tree box with the query's own name is not a match (self-join).
    """
    q = np.array([r[1:] for r in queries], dtype=float).reshape(-1, 4)
    q_names = np.array([r[0] for r in queries], dtype=np.int64)
    t = np.array([r[1:] for r in tree], dtype=float).reshape(-1, 4)
    t_names = np.array([r[0] for r in tree], dtype=np.int64)
    order = np.argsort(t_names, kind="stable")
    t, t_names = t[order], t_names[order]
    expected: Matches = {}
    for start in range(0, len(q), CHUNK):
        qc = q[start:start + CHUNK, None, :]
        hit = ((qc[..., 0] <= t[None, :, 2]) & (t[None, :, 0] <= qc[..., 2])
               & (qc[..., 1] <= t[None, :, 3]) & (t[None, :, 1] <= qc[..., 3]))
        hit &= q_names[start:start + CHUNK, None] != t_names[None, :]
        for row, cols in enumerate(hit):
            idx = np.flatnonzero(cols)
            if idx.size:
                expected[int(q_names[start + row])] = tuple(t_names[idx].tolist())
    return expected


def compare_matches(got: Matches, expected: Matches) -> List[str]:
    """Problems for every query whose match tuple differs from the expected one."""
    problems = _Problems()
    for q in sorted(set(got) | set(expected)):
        g, e = got.get(q), expected.get(q)
        if g != e:
            problems.add(f"query {q}: got {g}, expected {e}")
    if problems:
        wrong = sum(1 for q in set(got) | set(expected) if got.get(q) != expected.get(q))
        problems.append(f"{wrong} of {len(expected)} expected queries differ")
    return problems
