from boxtree import bench
from boxtree.distributed_search import run_search


def test_every_timed_search_hashes_its_tree(monkeypatch):
    # the search keeps the tree's checked columns on the dataset; a repeat
    # that reused the dataset would time a search without the check and
    # conversion the CLI pays
    trees = []

    def spy(search_ds, tree_ds):
        trees.append(tree_ds)
        assert tree_ds._cache == {}
        result = run_search(search_ds, tree_ds)
        assert "distributed_search.columns" in tree_ds._cache
        return result

    monkeypatch.setattr(bench, "run_search", spy)
    bench.run_search_bench(4, 5, workers=2, repeats=3)
    bench.run_scaling_bench(4, 3, repeats=2, phase="search")
    # the n sweep runs an untimed search before each timed one
    assert len(trees) == 2 * 3 * 2 + 2 * 3
    assert len({id(t) for t in trees}) == len(trees)
