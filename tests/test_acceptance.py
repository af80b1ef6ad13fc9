"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines and timings as they happen. The timing-based criteria measure real
wall-clock behaviour of this machine, so they take a few minutes in
total; the pure-correctness criteria finish in seconds. The timing
criteria (4-7) carry the ``timing`` marker, so ``pytest -m "not timing"``
runs everything else.
"""

import math
import random
from time import perf_counter

import pytest

from boxtree.bench import FULL_DEPTH, run_build_bench, run_scaling_bench, run_search_bench
from boxtree.distributed_search import init_queries, run_search, search_iteration, tree_root_name
from boxtree.distributed_tree import build_distributed_tree, flatten_memory_subtree
from boxtree.engine import Engine, EngineConfig
from boxtree.fits import fit_scaling_model
from boxtree.memory_tree import build_memory_tree, presort, tree_depth
from boxtree.testdata import (
    SquareGridSpec,
    brute_force_intersections,
    generate_test_data,
)

from conftest import random_boxes


def report(num, ok, detail, warn=False):
    verdict = "WARN-PASS" if (ok and warn) else ("PASS" if ok else "FAIL")
    print(f"\ncriterion {num}: {verdict} - {detail}")
    return ok


def memory_entry_set(boxes):
    root = build_memory_tree(*presort(boxes))
    return set(flatten_memory_subtree(root)) if root else set()


def test_criterion_1_search_matches_oracle_for_square_grids():
    """9 intersecting boxes per square, full map equal to the O(n^2) oracle."""
    t0 = perf_counter()
    failures = []
    for squares in (1, 4, 16, 64):
        boxes = generate_test_data(SquareGridSpec(squares))
        oracle = brute_force_intersections(boxes)
        for workers in (1, 4):
            for cutoff in (0, 4):
                with Engine(EngineConfig(workers)) as engine:
                    tree_ds = build_distributed_tree(boxes, engine, cutoff)
                    search_ds = engine.from_items([(b.name, b) for b in boxes])
                    grouped = {
                        k: list(v) for k, v in run_search(search_ds, tree_ds).collect()
                    }
                if len(grouped) != 9 * squares or grouped != oracle:
                    failures.append((squares, workers, cutoff))
    ok = not failures
    assert report(
        1,
        ok,
        f"S in (1,4,16,64) x workers (1,4) x cutoff (0,4): "
        f"{'all grouped outputs equal the brute-force oracle' if ok else failures} "
        f"[{perf_counter() - t0:.1f}s]",
    )


def test_criterion_2_distributed_build_equals_memory_build():
    """Entry sets identical to the flattened memory tree for every cutoff/worker mix."""
    t0 = perf_counter()
    checked = 0
    failures = []
    cases = [(n, 1000 + n) for n in range(1, 65)]
    cases += [(2**8, 8), (2**10, 10), (2**12, 12)]
    engines = {w: Engine(EngineConfig(workers=w)) for w in (1, 4)}
    try:
        for n, seed in cases:
            boxes = random_boxes(n, seed=seed)
            expect = memory_entry_set(boxes)
            for workers, engine in engines.items():
                for cutoff in (0, 2, 4, FULL_DEPTH):
                    got = set(build_distributed_tree(boxes, engine, cutoff).collect())
                    checked += 1
                    if got != expect:
                        failures.append((n, workers, cutoff))
    finally:
        for engine in engines.values():
            engine.shutdown()
    ok = not failures
    assert report(
        2,
        ok,
        f"{checked} builds over n in 1..64 + (2^8, 2^10, 2^12), "
        f"cutoffs (0,2,4,full), workers (1,4): "
        f"{'all equal the memory-tree entry set' if ok else failures} "
        f"[{perf_counter() - t0:.1f}s]",
    )


def test_criterion_3_tree_depth_balanced():
    """Depth never exceeds floor(log2 n) + 1 on any tested size."""
    t0 = perf_counter()
    sizes = [*range(1, 65), 2**8, 2**10, 2**12]
    worst = []
    for n in sizes:
        root = build_memory_tree(*presort(random_boxes(n, seed=n)))
        depth, bound = tree_depth(root), math.floor(math.log2(n)) + 1
        if depth > bound:
            worst.append((n, depth, bound))
    ok = not worst
    assert report(
        3,
        ok,
        f"{len(sizes)} sizes, depth <= floor(log2 n) + 1: "
        f"{'holds everywhere' if ok else worst} [{perf_counter() - t0:.1f}s]",
    )


@pytest.mark.timing
def test_criterion_4_build_time_scales_as_nlogn():
    """Hybrid build (collect at root) timed over n = 2^8..2^15; r >= 0.98."""
    t0 = perf_counter()
    _, fit = run_build_bench(8, 15, workers=4, repeats=3, cutoff=0)
    ok = fit.r >= 0.98
    assert report(
        4,
        ok,
        f"t = m*n*log2(n) + t_S fit over 2^8..2^15: r = {fit.r:.4f} (need >= 0.98), "
        f"m = {fit.params['m']:.3e} s/step [{perf_counter() - t0:.1f}s]",
    )


@pytest.mark.timing
def test_criterion_5_search_time_scaling_informational():
    """Search sweep fit: pass at r >= 0.90, warn-pass down to 0.80."""
    t0 = perf_counter()
    _, fit = run_search_bench(8, 15, workers=4, repeats=3)
    ok = fit.r >= 0.80
    assert report(
        5,
        ok,
        f"search-time n log n fit over 2^8..2^15: r = {fit.r:.4f} "
        f"(>= 0.90 clean, 0.80..0.90 warn; source experiment was itself a "
        f"marginal fit) [{perf_counter() - t0:.1f}s]",
        warn=fit.r < 0.90,
    )


@pytest.mark.timing
def test_criterion_6_worker_scaling_model():
    """Exact recovery on synthetic data; r >= 0.95 on the measured w sweep."""
    t0 = perf_counter()
    synth = [(w, 1.5 + 8.0 / w + 0.25 * (w - 1)) for w in (1, 2, 3, 4, 6, 8)]
    fit = fit_scaling_model(synth)
    exact = (
        abs(fit.params["t_s"] - 1.5) <= 1e-9 * 1.5
        and abs(fit.params["t_p"] - 8.0) <= 1e-9 * 8.0
        and abs(fit.params["m_c"] - 0.25) <= 1e-9 * 0.25
        and abs(fit.r - 1.0) <= 1e-12
    )

    _, measured = run_scaling_bench(exp=12, max_workers=8, repeats=12)
    ok = exact and measured.r >= 0.95
    assert report(
        6,
        ok,
        f"synthetic recovery exact to 1e-9 ({exact}); measured build sweep "
        f"w=1..8 at n=2^12: r = {measured.r:.4f} (need >= 0.95), "
        f"t_s = {measured.params['t_s']:.3f}s, m_c = {measured.params['m_c']:.3f}s "
        f"[{perf_counter() - t0:.1f}s]",
    )


@pytest.mark.timing
def test_criterion_7_hybrid_cutoff_speedup_direction():
    """Collect-at-root build at least 10x faster than the pure dataset path."""
    t0 = perf_counter()
    n = 2**12
    boxes = generate_test_data(SquareGridSpec(n // 16))
    with Engine(EngineConfig(workers=4)) as engine:
        engine.from_items(range(16)).map(lambda x: x).collect()  # warm pool
        hybrid = min(
            _timed(build_distributed_tree, boxes, engine, 0) for _ in range(3)
        )
        dataset_path = min(
            _timed(build_distributed_tree, boxes, engine, FULL_DEPTH) for _ in range(2)
        )
    ratio = dataset_path / hybrid
    ok = ratio >= 10.0
    assert report(
        7,
        ok,
        f"n=2^12, 4 workers: cutoff-0 build {hybrid:.3f}s vs pure dataset path "
        f"{dataset_path:.3f}s -> {ratio:.1f}x (need >= 10x) "
        f"[{perf_counter() - t0:.1f}s]",
    )


def _timed(fn, *args):
    t0 = perf_counter()
    fn(*args)
    return perf_counter() - t0


def test_criterion_8_engine_determinism_across_worker_counts():
    """1000 randomized operator cases, collect() identical for w in 1,2,4,8."""
    t0 = perf_counter()
    engines = {w: Engine(EngineConfig(workers=w)) for w in (1, 2, 4, 8)}
    mismatches = 0
    try:
        for case in range(1000):
            rng = random.Random(case)
            pairs = [
                (rng.randrange(25), rng.randrange(1000))
                for _ in range(rng.randrange(0, 60))
            ]
            partitions = rng.randrange(1, 9)
            op = case % 7
            results = []
            for engine in engines.values():
                ds = engine.from_items(pairs, partitions)
                if op == 0:
                    out = ds.sort_by_key()
                elif op == 1:
                    out = ds.filter(lambda kv: kv[0] % 3 != 1)
                elif op == 2:
                    out = ds.map(lambda kv: (kv[1], kv[0]))
                elif op == 3:
                    out = ds.flat_map_values(lambda v: [v] * (v % 3))
                elif op == 4:
                    out = ds.join(engine.from_items([(k, -k) for k in range(0, 25, 2)]))
                elif op == 5:
                    out = ds.group_by_key()
                else:
                    out = ds.union(ds.filter(lambda kv: kv[0] < 5))
                collected = out.collect()
                if pairs and op != 3:
                    less, element, greater = ds.split_at(len(pairs) // 2)
                    collected = (collected, less.collect(), element, greater.collect())
                results.append(collected)
            if any(r != results[0] for r in results[1:]):
                mismatches += 1
    finally:
        for engine in engines.values():
            engine.shutdown()
    ok = mismatches == 0
    assert report(
        8,
        ok,
        f"1000 cases x workers (1,2,4,8): {mismatches} mismatches "
        f"[{perf_counter() - t0:.1f}s]",
    )


def test_criterion_9_search_terminates_within_tree_depth_passes():
    """Every search drains in at most depth + 1 join passes."""
    t0 = perf_counter()
    violations = []
    cases = [(16, 1), (100, 2), (256, 3), (1024, 4)]
    with Engine(EngineConfig(workers=2)) as engine:
        for n, seed in cases:
            boxes = random_boxes(n, seed=seed, max_side=120.0)
            levels = tree_depth(build_memory_tree(*presort(boxes)))
            tree_ds = build_distributed_tree(boxes, engine, 3)
            queries = init_queries(
                engine.from_items([(b.name, b) for b in boxes]),
                tree_root_name(tree_ds),
            )
            passes = 0
            while not queries.is_empty():
                _, queries = search_iteration(queries, tree_ds)
                passes += 1
            if passes > levels:
                violations.append((n, passes, levels))
    ok = not violations
    assert report(
        9,
        ok,
        f"{len(cases)} instances, passes <= tree levels (= edge depth + 1): "
        f"{'holds everywhere' if ok else violations} [{perf_counter() - t0:.1f}s]",
    )
