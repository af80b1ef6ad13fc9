from boxtree import bench
from boxtree.distributed_search import run_search


def test_every_timed_search_hashes_its_tree(monkeypatch):
    # the engine caches a tree's key index on the dataset; a repeat that
    # reused the dataset would time a search without the hash the CLI pays
    trees = []

    def spy(search_ds, tree_ds):
        trees.append(tree_ds)
        assert tree_ds._index is None
        return run_search(search_ds, tree_ds)

    monkeypatch.setattr(bench, "run_search", spy)
    bench.run_search_bench(4, 5, workers=2, repeats=3)
    bench.run_scaling_bench(4, 3, repeats=2, phase="search")
    assert len(trees) == 2 * 3 + 2 * 3
    assert len({id(t) for t in trees}) == len(trees)
