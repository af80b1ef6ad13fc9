import random
import threading
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from boxtree.engine import Engine, EngineConfig, PartitionedDataset
from boxtree.geometry import AXIS_XMIN, Box, superkey
from boxtree.memory_tree import presort


@pytest.fixture(scope="module")
def engine():
    with Engine(EngineConfig(workers=3)) as eng:
        yield eng


@pytest.fixture(scope="module")
def engines_by_workers():
    engines = {w: Engine(EngineConfig(workers=w)) for w in (1, 2, 4, 8)}
    yield engines
    for eng in engines.values():
        eng.shutdown()


class TestConfig:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            EngineConfig(workers=0)

    def test_partitions_default_to_workers(self):
        with Engine(EngineConfig(workers=4)) as engine:
            assert engine.from_items(range(10)).num_partitions == 4
            assert engine.from_items(range(10), 7).num_partitions == 7


class TestFromItems:
    def test_contiguous_split(self, engine):
        ds = engine.from_items([1, 2, 3, 4, 5], 2)
        assert ds.partitions == ((1, 2, 3), (4, 5))

    def test_empty_items(self, engine):
        ds = engine.from_items([], 3)
        assert ds.partitions == ((), (), ())

    def test_even_split(self, engine):
        ds = engine.from_items(range(1, 9), 4)
        assert ds.partitions == ((1, 2), (3, 4), (5, 6), (7, 8))

    def test_collect_round_trip(self, engine):
        for p in (1, 2, 5, 9):
            items = list(range(17))
            assert engine.from_items(items, p).collect() == items

    def test_rejects_zero_partitions(self, engine):
        with pytest.raises(ValueError):
            engine.from_items([1], 0)


class TestSortByKey:
    def test_sorts(self, engine):
        ds = engine.from_items([(3, "c"), (1, "a"), (2, "b")])
        assert ds.sort_by_key().collect() == [(1, "a"), (2, "b"), (3, "c")]

    def test_idempotent(self, engine):
        ds = engine.from_items([(i, i * i) for i in range(20)])
        once = ds.sort_by_key()
        twice = once.sort_by_key()
        assert once.collect() == twice.collect() == ds.collect()

    def test_large_random_superkeys_match_reference_sort(self, engine):
        rng = random.Random(42)
        pairs = [((rng.uniform(0, 100), name), name) for name in range(10_000)]
        rng.shuffle(pairs)
        ds = engine.from_items(pairs, 7)
        assert ds.sort_by_key().collect() == sorted(pairs, key=lambda kv: kv[0])


class TestFilter:
    def test_keeps_matching_in_order(self, engine):
        ds = engine.from_items([1, 2, 3, 4, 5, 6])
        assert ds.filter(lambda x: x % 2 == 0).collect() == [2, 4, 6]

    def test_always_false(self, engine):
        ds = engine.from_items([1, 2, 3])
        out = ds.filter(lambda x: False)
        assert out.is_empty() and out.collect() == []
        assert out.num_partitions == ds.num_partitions

    def test_filter_equals_memory_sweep(self, engine):
        # filtering the y-sorted boxes by the pivot super key reproduces a
        # stable one-pass sweep that splits them around the pivot
        rng = random.Random(9)
        boxes = [
            Box(n, rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(100, 200), rng.uniform(100, 200))
            for n in range(30)
        ]
        _, y_sorted = presort(boxes)
        pivot = superkey(boxes[17], AXIS_XMIN)
        less_oracle, greater_oracle = [], []
        for b in y_sorted:
            key = superkey(b, AXIS_XMIN)
            if key != pivot:
                (less_oracle if key < pivot else greater_oracle).append(b)
        ds = engine.from_items(y_sorted)
        assert ds.filter(lambda b: superkey(b, AXIS_XMIN) < pivot).collect() == less_oracle
        assert ds.filter(lambda b: superkey(b, AXIS_XMIN) > pivot).collect() == greater_oracle


class TestSplitAt:
    def test_basic(self, engine):
        ds = engine.from_items(["a", "b", "c", "d", "e"], 2)
        less, element, greater = ds.split_at(2)
        assert less.collect() == ["a", "b"]
        assert element == "c"
        assert greater.collect() == ["d", "e"]

    def test_singleton(self, engine):
        less, element, greater = engine.from_items(["a"]).split_at(0)
        assert less.collect() == [] and element == "a" and greater.collect() == []

    def test_uneven_partitions_match_flatten_slice_oracle(self, engine):
        items = list(range(1000))
        sizes = [130, 1, 260, 0, 204, 5, 400]
        parts, start = [], 0
        for s in sizes:
            parts.append(items[start : start + s])
            start += s
        from boxtree.engine import PartitionedDataset

        ds = PartitionedDataset(engine, parts)
        less, element, greater = ds.split_at(499)
        assert less.collect() == items[:499]
        assert element == items[499]
        assert greater.collect() == items[500:]

    def test_out_of_range(self, engine):
        ds = engine.from_items([1, 2, 3])
        with pytest.raises(IndexError):
            ds.split_at(3)
        with pytest.raises(IndexError):
            ds.split_at(-1)

    def test_round_trip_property(self, engine):
        rng = random.Random(3)
        for _ in range(25):
            items = [rng.randrange(1000) for _ in range(rng.randrange(1, 40))]
            ds = engine.from_items(items, rng.randrange(1, 6))
            idx = rng.randrange(len(items))
            less, element, greater = ds.split_at(idx)
            assert less.collect() + [element] + greater.collect() == items

    def test_element_at(self, engine):
        ds = engine.from_items(list("abcdef"), 4)
        assert [ds.element_at(i) for i in range(6)] == list("abcdef")
        with pytest.raises(IndexError):
            ds.element_at(6)


class TestMapAndFlatMap:
    def test_flat_map_values_empty_fn(self, engine):
        ds = engine.from_items([(1, "a"), (2, "b")])
        assert ds.flat_map_values(lambda v: []).collect() == []

    def test_flat_map_values_identity(self, engine):
        pairs = [(1, "a"), (2, "b")]
        ds = engine.from_items(pairs)
        assert ds.flat_map_values(lambda v: [v]).collect() == pairs

    def test_flat_map_values_duplicates_adjacent(self, engine):
        ds = engine.from_items([(1, "a"), (2, "b")])
        out = ds.flat_map_values(lambda v: [v, v]).collect()
        assert out == [(1, "a"), (1, "a"), (2, "b"), (2, "b")]

    def test_map_preserves_order(self, engine):
        ds = engine.from_items(range(10), 3)
        assert ds.map(lambda x: x * 2).collect() == [x * 2 for x in range(10)]


class TestJoin:
    def test_inner_semantics(self, engine):
        a = engine.from_items([(1, "x"), (2, "y")])
        b = engine.from_items([(2, "P")])
        assert a.join(b).collect() == [(2, ("y", "P"))]

    def test_empty_left(self, engine):
        a = engine.from_items([])
        b = engine.from_items([(1, "P")])
        assert a.join(b).collect() == []

    def test_left_multiplicity(self, engine):
        a = engine.from_items([(1, "x"), (1, "y")])
        b = engine.from_items([(1, "P")])
        assert a.join(b).collect() == [(1, ("x", "P")), (1, ("y", "P"))]

    def test_cardinality_matches_nested_loop(self, engine):
        rng = random.Random(4)
        left = [(rng.randrange(6), i) for i in range(30)]
        right = [(rng.randrange(6), i * 100) for i in range(20)]
        joined = engine.from_items(left).join(engine.from_items(right)).collect()
        brute = [(k, (v, w)) for k, v in left for kk, w in right if kk == k]
        assert len(joined) == len(brute)
        assert sorted(joined) == sorted(brute)


# small key ranges make duplicate keys on both sides common
_pairs = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 99)), max_size=30)


def _per_match(k, v, w):
    """0-2 outputs per match, of two shapes, so order and multiplicity show."""
    return [(k, v + w)] * ((v + w) % 3) + ([("odd", k)] if w % 2 else [])


class TestFusedJoin:
    @settings(max_examples=60, deadline=None)
    @given(left=_pairs, right=_pairs,
           left_parts=st.integers(1, 8), right_parts=st.integers(1, 8))
    @example(left=[], right=[(1, 2)], left_parts=3, right_parts=1)
    @example(left=[(1, 2)], right=[], left_parts=1, right_parts=8)
    def test_equals_join_then_flat_map(self, engines_by_workers, left, right,
                                       left_parts, right_parts):
        for w in (1, 2, 4):
            eng = engines_by_workers[w]
            a = eng.from_items(left, left_parts)
            b = eng.from_items(right, right_parts)
            fused = a.join(b, _per_match)
            reference = a.join(b).flat_map(lambda kvw: _per_match(kvw[0], *kvw[1]))
            assert fused.partitions == reference.partitions

    def test_same_right_side_twice_gives_identical_output(self, engine):
        right = engine.from_items([(k % 4, k) for k in range(20)], 3)
        left = engine.from_items([(k % 5, -k) for k in range(12)], 2)
        first = left.join(right).collect()
        assert left.join(right).collect() == first
        assert left.join(right, _per_match).collect() == left.join(right, _per_match).collect()

    def test_derived_datasets_do_not_reuse_a_stale_index(self, engine):
        right = engine.from_items([(1, 10), (2, 20)])
        left = engine.from_items([(1, "a"), (2, "b"), (3, "c")])
        assert left.join(right).collect() == [(1, ("a", 10)), (2, ("b", 20))]
        grown = right.union(engine.from_items([(3, 30), (1, 11)]))
        assert left.join(grown).collect() == [
            (1, ("a", 10)), (1, ("a", 11)), (2, ("b", 20)), (3, ("c", 30))]
        shrunk = right.filter(lambda kv: kv[0] == 2)
        assert left.join(shrunk).collect() == [(2, ("b", 20))]
        same_parts = PartitionedDataset(engine, grown.partitions)
        assert left.join(same_parts).collect() == left.join(grown).collect()
        assert left.join(right).collect() == [(1, ("a", 10)), (2, ("b", 20))]


class TestCached:
    def test_derives_once_per_dataset_and_keeps_no_failure(self, engine):
        ds = engine.from_items([1, 2, 3])
        calls = []

        def total(d):
            calls.append(d)
            if len(calls) == 1:
                raise ValueError("refused")
            return sum(d.collect())

        with pytest.raises(ValueError):
            ds.cached("total", total)
        assert ds.cached("total", total) == 6
        assert ds.cached("total", total) == 6
        assert calls == [ds, ds]
        # a dataset with the same partitions is a new object, with its own cache
        assert PartitionedDataset(engine, ds.partitions).cached("total", total) == 6
        assert len(calls) == 3


class TestUnion:
    def test_concatenates(self, engine):
        a = engine.from_items([1, 2])
        b = engine.from_items([2, 3])
        assert a.union(b).collect() == [1, 2, 2, 3]

    def test_identity_with_empty(self, engine):
        a = engine.from_items([1, 2])
        empty = engine.from_items([])
        assert a.union(empty).collect() == [1, 2]
        assert empty.union(empty).collect() == []


class TestGroupByKey:
    def test_groups_in_first_appearance_order(self, engine):
        ds = engine.from_items([(1, "a"), (2, "b"), (1, "c")])
        assert ds.group_by_key().collect() == [(1, ("a", "c")), (2, ("b",))]

    def test_unique_keys_give_singletons(self, engine):
        ds = engine.from_items([(2, "b"), (1, "a")])
        assert ds.group_by_key().collect() == [(1, ("a",)), (2, ("b",))]

    def test_empty(self, engine):
        assert engine.from_items([]).group_by_key().collect() == []


class TestActions:
    def test_is_empty(self, engine):
        assert engine.from_items([]).is_empty()
        assert not engine.from_items([1, 2, 3], 2).is_empty()
        assert not engine.from_items([5], 4).is_empty()  # some partitions empty

    def test_first_last(self, engine):
        ds = engine.from_items([5, 6, 7], 5)  # some partitions empty
        assert ds.first() == 5 and ds.last() == 7
        with pytest.raises(IndexError):
            engine.from_items([]).first()
        with pytest.raises(IndexError):
            engine.from_items([]).last()



class TestPerPartition:
    @pytest.mark.parametrize("workers, partitions", [(1, 5), (4, 1)])
    def test_workers_1_or_one_partition_runs_inline_with_no_pool(self, workers, partitions):
        with Engine(EngineConfig(workers=workers)) as engine:
            ds = engine.from_items(range(10), partitions)
            threads = engine.per_partition(ds.partitions, lambda part: threading.current_thread())
            assert engine._pool is None
        assert threads == [threading.current_thread()] * partitions

    @pytest.mark.parametrize("workers", [2, 4])
    def test_first_partition_runs_on_the_calling_thread(self, workers):
        with Engine(EngineConfig(workers=workers)) as engine:
            parts = [(i,) for i in range(2 * workers)]
            for _ in range(5):
                threads = engine.per_partition(parts, lambda part: threading.current_thread())
                assert threads[0] is threading.current_thread()
                assert threading.current_thread() not in threads[1:]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_at_most_workers_partitions_run_at_once(self, workers):
        lock = threading.Lock()
        running = peak = 0

        def work(part):
            nonlocal running, peak
            with lock:
                running += 1
                peak = max(peak, running)
            time.sleep(0.01)
            with lock:
                running -= 1
            return part

        with Engine(EngineConfig(workers=workers)) as engine:
            ds = engine.from_items(range(6 * workers), 3 * workers)
            assert engine.per_partition(ds.partitions, work) == list(ds.partitions)
        assert peak <= workers

    def test_results_in_partition_order_when_a_later_one_finishes_first(self):
        finished = []

        def work(part):
            time.sleep(0.02 * (3 - part[0]))  # partition 3 first, partition 0 last
            finished.append(part[0])
            return part[0]

        with Engine(EngineConfig(workers=4)) as engine:
            assert engine.per_partition([(i,) for i in range(4)], work) == [0, 1, 2, 3]
        assert finished[0] != 0

    def test_failure_waits_for_every_partition(self):
        done = threading.Event()

        def work(part):
            if part == (0,):
                raise ValueError("partition 0")
            time.sleep(0.1)
            done.set()
            return part

        with Engine(EngineConfig(workers=2)) as engine:
            with pytest.raises(ValueError, match="partition 0"):
                engine.per_partition([(0,), (1,)], work)
            assert done.is_set()

    def test_failure_in_the_pool_waits_for_every_partition(self):
        done = threading.Event()

        def work(part):
            if part == (1,):
                raise ValueError("partition 1")
            if part == (2,):
                time.sleep(0.1)
                done.set()
            return part

        with Engine(EngineConfig(workers=3)) as engine:
            with pytest.raises(ValueError, match="partition 1"):
                engine.per_partition([(0,), (1,), (2,)], work)
            assert done.is_set()

    def test_first_failure_in_partition_order_is_raised(self):
        def work(part):
            if part == (1,):
                time.sleep(0.05)  # fails after partition 2 has failed
                raise ValueError("partition 1")
            if part == (2,):
                raise KeyError("partition 2")
            return part

        with Engine(EngineConfig(workers=3)) as engine:
            with pytest.raises(ValueError, match="partition 1"):
                engine.per_partition([(0,), (1,), (2,)], work)

def _apply_random_pipeline(engine, case_seed):
    rng = random.Random(case_seed)
    pairs = [(rng.randrange(20), rng.randrange(100)) for _ in range(rng.randrange(0, 50))]
    ds = engine.from_items(pairs, rng.randrange(1, 6))
    op = case_seed % 5
    if op == 0:
        out = ds.sort_by_key()
    elif op == 1:
        out = ds.filter(lambda kv: kv[0] % 3 == 0)
    elif op == 2:
        out = ds.flat_map_values(lambda v: [v] * (v % 3))
    elif op == 3:
        other = engine.from_items([(k, k) for k in range(0, 20, 2)])
        out = ds.join(other)
    else:
        out = ds.group_by_key()
    return out.collect()


def test_worker_count_independence(engines_by_workers):
    for seed in range(60):
        results = {w: _apply_random_pipeline(eng, seed) for w, eng in engines_by_workers.items()}
        baseline = results[1]
        assert all(r == baseline for r in results.values()), f"divergence at seed {seed}"


def test_partition_count_independence(engine):
    rng = random.Random(12)
    items = [(rng.randrange(10), i) for i in range(37)]
    collected = []
    for p in (1, 2, 3, 7, 37):
        ds = engine.from_items(items, p)
        collected.append(
            (
                ds.sort_by_key().collect(),
                ds.filter(lambda kv: kv[0] > 4).collect(),
                ds.group_by_key().collect(),
            )
        )
    assert all(c == collected[0] for c in collected)
