"""The search equals a brute force over (query, tree box) pairs on every build path."""

import pytest
from hypothesis import example, given, settings, strategies as st

from boxtree.bench import FULL_DEPTH
from boxtree.distributed_search import run_search
from boxtree.distributed_tree import build_distributed_tree
from boxtree.engine import Engine, EngineConfig
from boxtree.geometry import Box

BIG = 1e15

# a small pool makes identical coordinates and zero-area boxes common
coordinate = st.one_of(
    st.sampled_from([-BIG, -1.0, 0.0, 0.5, 1.0, 3.0, BIG]),
    st.floats(-BIG, BIG, allow_nan=False),
)


@st.composite
def rect(draw):
    x0, x1 = sorted((draw(coordinate), draw(coordinate)))
    y0, y1 = sorted((draw(coordinate), draw(coordinate)))
    return (x0, y0, x1, y1)


@st.composite
def search_case(draw):
    """A tree of 1..64 boxes, up to 16 queries with distinct names and an
    order of the n built entries.

    Query names below n reuse a tree name; a query's rectangle is either a
    tree box's (so a query can equal a tree box) or a fresh one. The order
    lays a built tree's entries out in neither pre-order nor name order.
    """
    n = draw(st.integers(1, 64))
    tree = [Box(i, *draw(rect())) for i in range(n)]
    names = draw(st.lists(st.integers(0, 2 * n), max_size=16, unique=True))
    queries = []
    for name in names:
        if draw(st.booleans()):
            queries.append(Box(name, *draw(st.sampled_from(tree))[1:]))
        else:
            queries.append(Box(name, *draw(rect())))
    return tree, queries, draw(st.permutations(range(n)))


def brute_force(tree, queries):
    """{query name: ascending names of the tree boxes it meets}, self excluded."""
    out = {}
    for q in queries:
        hits = sorted(
            t.name
            for t in tree
            if t != q
            and q.x_min <= t.x_max and t.x_min <= q.x_max
            and q.y_min <= t.y_max and t.y_min <= q.y_max
        )
        if hits:
            out[q.name] = hits
    return out


@pytest.fixture(scope="module")
def engines():
    with Engine(EngineConfig(workers=1)) as one, Engine(EngineConfig(workers=2)) as two:
        yield one, two


@settings(max_examples=40, deadline=None)
@given(case=search_case())
# n = 1, queried by itself and by a disjoint box
@example(case=([Box(0, 0.0, 0.0, 1.0, 1.0)],
               [Box(0, 0.0, 0.0, 1.0, 1.0), Box(1, 5.0, 5.0, 6.0, 6.0)], [0]))
# a query set disjoint from the tree
@example(case=([Box(0, -BIG, -BIG, 0.0, 0.0), Box(1, 0.0, 0.0, 0.0, 0.0)],
               [Box(2, BIG, BIG, BIG, BIG)], [1, 0]))
# a query that reuses a tree name with other coordinates
@example(case=([Box(0, 0.0, 0.0, 10.0, 10.0), Box(1, 50.0, 50.0, 60.0, 60.0)],
               [Box(0, 5.0, 5.0, 6.0, 6.0), Box(7, 5.0, 5.0, 6.0, 6.0)], [1, 0]))
def test_every_search_path_matches_brute_force(engines, case):
    tree, queries, order = case
    expected = brute_force(tree, queries)
    for engine in engines:
        search_ds = engine.from_items([(q.name, q) for q in queries])
        for cutoff in (0, 2, FULL_DEPTH):
            built = build_distributed_tree(tree, engine, cutoff)
            entries = built.collect()
            shuffled = engine.from_items([entries[i] for i in order])
            for layout, tree_ds in (("built", built), ("shuffled", shuffled)):
                got = {k: list(v) for k, v in run_search(search_ds, tree_ds).collect()}
                assert got == expected, (engine.config.workers, cutoff, layout)
