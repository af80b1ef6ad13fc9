"""Timing harness: build/search sweeps over n and worker-count sweeps.

Timings wrap the build or search call only (never data generation or
I/O) using a monotonic clock, the worker pool is warmed up beforehand so
thread startup is not billed to the first repeat, and the per-point
minimum over repeats is the statistic handed to the fits, which damps
scheduler noise at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from .distributed_search import run_search
from .distributed_tree import build_distributed_tree
from .engine import Engine, EngineConfig, PartitionedDataset
from .fits import FitResult, fit_linear_nlogn, fit_scaling_model
from .testdata import BOXES_PER_SQUARE, SquareGridSpec, generate_test_data

__all__ = [
    "FULL_DEPTH",
    "BenchRecord",
    "fastest_per_point",
    "run_build_bench",
    "run_search_bench",
    "run_scaling_bench",
]

# A cutoff no tree reaches: the pure dataset path, never collect-to-array.
FULL_DEPTH = 2**31


@dataclass(frozen=True)
class BenchRecord:
    phase: str  # "build" or "search"
    n: int
    workers: int
    repeat: int
    seconds: float


def _bench_boxes(n: int):
    if n < BOXES_PER_SQUARE or n % BOXES_PER_SQUARE:
        raise ValueError(f"benchmark sizes must be multiples of {BOXES_PER_SQUARE}, got {n}")
    return generate_test_data(SquareGridSpec(n // BOXES_PER_SQUARE))


def _timer(phase: str, engine: Engine, boxes, cutoff: int) -> Callable[[], float]:
    """Warm ``engine`` and return a function that runs one build (at
    ``cutoff``) or one search of ``boxes`` and returns its seconds.

    A search's tree and queries are made here, untimed, and each call
    times a search against a fresh copy of the tree.
    """
    # start the pool's workers - 1 threads (the calling thread is the other
    # worker) outside the timed region
    engine.from_items(range(engine.config.workers * 2)).map(lambda x: x).collect()
    if phase == "build":

        def once() -> float:
            t0 = perf_counter()
            build_distributed_tree(boxes, engine, cutoff)
            return perf_counter() - t0

        return once
    tree_ds = build_distributed_tree(boxes, engine, 0)
    search_ds = engine.from_items([(b.name, b) for b in boxes])

    def once() -> float:
        # the same entries without the columns an earlier search kept on
        # them, so each timed search pays the tree check and conversion as
        # a CLI search does
        fresh_tree = PartitionedDataset(engine, tree_ds.partitions)
        t0 = perf_counter()
        run_search(search_ds, fresh_tree)
        return perf_counter() - t0

    return once


def _check_repeats(repeats: int) -> None:
    # with no records, the fit would report too few points instead
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")


def fastest_per_point(records: List[BenchRecord], field: str) -> List[Tuple[int, float]]:
    """(value of ``field``, fastest seconds) per distinct value, ascending."""
    best: Dict[int, float] = {}
    for rec in records:
        x = getattr(rec, field)
        best[x] = min(best.get(x, float("inf")), rec.seconds)
    return sorted(best.items())


def _n_sweep(
    phase: str, min_exp: int, max_exp: int, workers: int, repeats: int, cutoff: int = 0
) -> Tuple[List[BenchRecord], FitResult]:
    """Time one phase for n = 2^min_exp .. 2^max_exp; fit n log n.

    The repeats go round-robin over n, as in ``run_scaling_bench``, so a
    stall of the machine hits one repeat of several sizes, which their
    minima drop, rather than every repeat of one size. Each timed call
    follows an untimed one at its size: after the other sizes' calls,
    the first call at a size pays for cold caches and fresh pages, which
    slowed the largest sizes most and bent the n log n fit.
    """
    if min_exp >= max_exp:
        raise ValueError(f"n log n fit needs at least 2 sizes, got min_exp {min_exp} >= max_exp {max_exp}")
    _check_repeats(repeats)
    sizes = [2**exp for exp in range(min_exp, max_exp + 1)]
    records: List[BenchRecord] = []
    with Engine(EngineConfig(workers)) as engine:
        timers = [_timer(phase, engine, _bench_boxes(n), cutoff) for n in sizes]
        for rep in range(repeats):
            for n, once in zip(sizes, timers):
                once()
                records.append(BenchRecord(phase, n, workers, rep, once()))
    return records, fit_linear_nlogn(fastest_per_point(records, "n"))


def run_build_bench(
    min_exp: int,
    max_exp: int,
    workers: int,
    repeats: int,
    cutoff: int = 0,
) -> Tuple[List[BenchRecord], FitResult]:
    """Time the hybrid build for n = 2^min_exp .. 2^max_exp; fit n log n.

    The default cutoff of 0 collects at the root, which times the
    memory-dominant hybrid path; pass FULL_DEPTH for the pure dataset path.
    """
    return _n_sweep("build", min_exp, max_exp, workers, repeats, cutoff)


def run_search_bench(
    min_exp: int,
    max_exp: int,
    workers: int,
    repeats: int,
) -> Tuple[List[BenchRecord], FitResult]:
    """Time searching every box against the tree of all boxes; fit n log n."""
    return _n_sweep("search", min_exp, max_exp, workers, repeats)


def run_scaling_bench(
    exp: int,
    max_workers: int,
    repeats: int,
    cutoff: int = FULL_DEPTH,
    phase: str = "build",
) -> Tuple[List[BenchRecord], FitResult]:
    """Time one phase at n = 2^exp for w = 1..max_workers; fit the worker model.

    The default times the pure dataset-path build, where the per-worker
    coordination cost is most visible.
    """
    if phase not in ("build", "search"):
        raise ValueError(f"unknown phase {phase!r}")
    _check_repeats(repeats)
    if max_workers < 3:
        raise ValueError("scaling fit needs at least 3 worker counts")
    n = 2**exp
    boxes = _bench_boxes(n)
    worker_counts = range(1, max_workers + 1)
    engines = {w: Engine(EngineConfig(w)) for w in worker_counts}
    records: List[BenchRecord] = []
    try:
        timers = {w: _timer(phase, engine, boxes, cutoff) for w, engine in engines.items()}
        if phase == "build":
            # one untimed run per engine: caches and pool fully hot
            for once in timers.values():
                once()
        # round-robin over worker counts so slow machine-load drift spreads
        # evenly across the sweep instead of biasing one end of it
        for rep in range(repeats):
            for w in worker_counts:
                records.append(BenchRecord(phase, n, w, rep, timers[w]()))
    finally:
        for engine in engines.values():
            engine.shutdown()
    return records, fit_scaling_model(fastest_per_point(records, "workers"))
