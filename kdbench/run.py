"""Benchmark of boxtree: one workload per call, printed as one JSON line.

    python3 kdbench/run.py --workload grid-cli --seed 1 --seconds 50 --trace 0

Run from anywhere inside a checkout of the repository: the program is
imported from ``src/`` next to this directory. Each call sets the inputs
up, runs one untimed warm-up round, then timed rounds of one set-up, one
build and one search until ``--seconds`` have passed, and checks every
output against ``checks.py``. Each metric is the median of its samples.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` installs the
per-layer wrappers of ``tracer.py``, prints the per-layer metrics (each
one per timed round) and writes the whole trace to
``kdbench/out/trace-<workload>.json``. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io as stdio
import json
import math
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKERS = 2  # nproc of the reference machine
SETUP_REPEATS = 5  # before the warm-up; one more before each timed round

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from tracer import Tracer  # noqa: E402


def _import_boxtree() -> Dict[str, Any]:
    src = ROOT / "src"
    if not (src / "boxtree" / "__init__.py").is_file():
        raise SystemExit(f"error: no boxtree sources under {src}")
    sys.path.insert(0, str(src))
    import boxtree
    from boxtree import bench, cli, distributed_search, distributed_tree, engine, io, testdata
    from boxtree.geometry import Box

    if Path(boxtree.__file__).resolve().parent != src / "boxtree":
        raise SystemExit(f"error: boxtree was imported from {boxtree.__file__}, not {src}")
    return {
        "bench": bench, "cli": cli, "distributed_search": distributed_search,
        "distributed_tree": distributed_tree, "engine": engine, "io": io,
        "testdata": testdata, "Box": Box,
    }


def _rect(box) -> Tuple[float, float, float, float]:
    return (box[1], box[2], box[3], box[4])


def _tree_from_entries(entries) -> checks.Tree:
    tree: checks.Tree = {}
    for name, v in entries:
        tree[name] = (
            _rect(v.box),
            v.lt_name, None if v.lt_region is None else tuple(v.lt_region),
            v.gt_name, None if v.gt_region is None else tuple(v.gt_region),
        )
    return tree


def random_boxes(rng: random.Random, Box, n: int, first_name: int, field: float,
                 side: Callable[[], float]) -> list:
    """n boxes placed uniformly in a field x field square, sides from ``side``."""
    out = []
    for name in range(first_name, first_name + n):
        w, h = side(), side()
        x, y = rng.uniform(0.0, field - w), rng.uniform(0.0, field - h)
        out.append(Box(name, x, y, x + w, y + h))
    return out


# ----------------------------------------------------------------------
# workloads


class GridCli:
    """The paper's square grid through the command line, io included."""

    n = 2**15

    def __init__(self, bt: Dict[str, Any], seed: int) -> None:
        self.bt = bt  # the grid is fixed by n: the seed is not used
        OUT.mkdir(exist_ok=True)
        self.csv = str(OUT / "grid-cli-boxes.csv")
        self.tree = str(OUT / "grid-cli-tree.jsonl")
        self.results = str(OUT / "grid-cli-results.csv")

    def setup(self) -> list:
        td = self.bt["testdata"]
        boxes = td.generate_test_data(td.SquareGridSpec(self.n // td.BOXES_PER_SQUARE))
        self.bt["io"].write_boxes_csv(self.csv, boxes)
        return boxes

    def _cli(self, argv: List[str]) -> None:
        with contextlib.redirect_stdout(stdio.StringIO()):
            rc = self.bt["cli"].main(argv)
        if rc != 0:
            raise RuntimeError(f"boxtree {argv[0]} exited with {rc}")

    def build(self) -> None:
        self._cli(["build", "--in", self.csv, "--workers", str(WORKERS), "--out", self.tree])

    def search(self, tree) -> None:
        self._cli(["search", "--tree", self.tree, "--queries", self.csv,
                   "--workers", str(WORKERS), "--out", self.results])

    def tree_output(self, tree) -> bytes:
        return Path(self.tree).read_bytes()

    def search_output(self, result) -> bytes:
        return Path(self.results).read_bytes()

    def check(self, tree_bytes: bytes, result_bytes: bytes) -> List[str]:
        tree, problems = checks.parse_tree_jsonl(tree_bytes.decode("ascii"))
        got, more = checks.parse_results_csv(result_bytes.decode("ascii"))
        boxes = {b.name: _rect(b) for b in self.inputs}
        expected, grid = checks.expected_grid_matches([tuple(b) for b in self.inputs])
        return (problems + more + grid + checks.check_tree(tree, boxes)
                + checks.compare_matches(got, expected))

    def close(self) -> None:
        pass


class _ApiWorkload:
    """Build and search through the library calls, on one engine per run."""

    cutoff: int

    def __init__(self, bt: Dict[str, Any], seed: int) -> None:
        self.bt = bt
        self.seed = seed
        self.engine = bt["engine"].Engine(bt["engine"].EngineConfig(workers=WORKERS))

    def build(self):
        return self.bt["distributed_tree"].build_distributed_tree(
            self.inputs[0], self.engine, self.cutoff)

    def search(self, tree_ds):
        search_ds = self.engine.from_items([(b.name, b) for b in self.inputs[1]])
        return self.bt["distributed_search"].run_search(search_ds, tree_ds).collect()

    def tree_output(self, tree_ds) -> list:
        # read the partitions directly, so a traced run does not count
        # this comparison as the program's engine.collect
        return [e for part in tree_ds.partitions for e in part]

    def search_output(self, grouped) -> list:
        return grouped

    def check(self, entries, grouped) -> List[str]:
        tree_boxes, queries = self.inputs
        boxes = {b.name: _rect(b) for b in tree_boxes}
        expected = checks.expected_matches(
            [tuple(b) for b in queries], [tuple(b) for b in tree_boxes])
        got = {q: tuple(ms) for q, ms in grouped}
        problems = checks.check_tree(_tree_from_entries(entries), boxes)
        if len(got) != len(grouped):
            problems.append("a query appears twice in the search result")
        return problems + checks.compare_matches(got, expected)

    def close(self) -> None:
        self.engine.shutdown()


class DatasetBuild(_ApiWorkload):
    """Every level subdivided on the engine: per-operator overhead dominates."""

    n = 2**12

    def __init__(self, bt, seed):
        super().__init__(bt, seed)
        self.cutoff = bt["bench"].FULL_DEPTH

    def setup(self) -> tuple:
        rng = random.Random(f"dataset-build/{self.seed}")
        boxes = random_boxes(rng, self.bt["Box"], self.n, 0, 1e4,
                             lambda: rng.uniform(1.0, 100.0))
        return boxes, boxes


class WindowSearch(_ApiWorkload):
    """A random tree searched with windows of log-uniform size."""

    n = 2**15
    m = 2**12
    cutoff = 0

    def setup(self) -> tuple:
        rng = random.Random(f"window-search/{self.seed}")
        Box = self.bt["Box"]
        tree_boxes = random_boxes(rng, Box, self.n, 0, 1e4,
                                  lambda: rng.uniform(1.0, 100.0))
        # names continue after the tree's, so no query shares a tree name
        return tree_boxes, random_boxes(rng, Box, self.m, self.n, 1e4,
                                        lambda: math.exp(rng.uniform(0.0, math.log(1000.0))))


WORKLOADS = {"grid-cli": GridCli, "dataset-build": DatasetBuild, "window-search": WindowSearch}


# ----------------------------------------------------------------------
# measurement


def _timed(fn: Callable, *args, tracer: Optional[Tracer] = None,
           phase: Optional[str] = None) -> Tuple[Any, float]:
    """``fn(*args)`` and its time, after an untimed ``gc.collect()``.

    With a tracer, the collector's pauses inside the timed call, and only
    those, are counted under ``phase``.
    """
    gc.collect()
    if tracer is not None:
        tracer.phase = phase
    t0 = perf_counter()
    try:
        result = fn(*args)
        dt = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.phase = None
    return result, dt


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    bt = _import_boxtree()
    wl = WORKLOADS[workload](bt, seed)
    tracer = Tracer() if trace else None
    try:
        # the first set-up's inputs are used throughout; later set-ups are
        # timed and dropped, so the measured heap is the same in every round
        wl.inputs, dt = _timed(wl.setup)
        setup_times = [dt] + [_timed(wl.setup)[1] for _ in range(SETUP_REPEATS - 1)]

        if tracer is not None:
            tracer.install(bt)
        # warm-up round: its outputs are the ones checked in full below
        tree, _ = _timed(wl.build)
        ref_tree = wl.tree_output(tree)
        ref_result = wl.search_output(_timed(wl.search, tree)[0])
        del tree
        if tracer is not None:
            tracer.reset()

        build_times: List[float] = []
        search_times: List[float] = []
        mismatched = 0

        def one_round() -> int:
            """Build, search, compare with the warm-up; returns the operations failed."""
            nonlocal mismatched
            built = False
            try:
                tree, dt = _timed(wl.build, tracer=tracer, phase="build")
                build_times.append(dt)
                built = True
                result, dt = _timed(wl.search, tree, tracer=tracer, phase="search")
                search_times.append(dt)
            except Exception:  # a failed operation is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                return 1 if built else 2
            mismatched += wl.tree_output(tree) != ref_tree
            mismatched += wl.search_output(result) != ref_result
            return 0

        rounds = failed = 0
        round_s = 0.0
        start = perf_counter()
        # a round starts only if one as long as the last still ends in time
        while not rounds or perf_counter() - start + round_s <= seconds:
            t0 = perf_counter()
            rounds += 1
            setup_times.append(_timed(wl.setup)[1])
            failed += one_round()
            round_s = perf_counter() - t0
        attempted = 2 * rounds
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        trace_data = tracer.snapshot() if tracer is not None else None
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.close()

    print(json.dumps({"setup_s": setup_times, "build_s": build_times,
                      "search_s": search_times}), file=sys.stderr)
    problems = wl.check(ref_tree, ref_result)
    if mismatched:
        problems.append(f"{mismatched} timed outputs differ from the warm-up output")
    for p in problems:
        print(f"check: {p}", file=sys.stderr)

    result = {"correct": not problems, "attempted": attempted, "failed": failed}
    if tracer is None:
        result["metrics"] = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "build_s": _metric(statistics.median(build_times), "s"),
            "search_s": _metric(statistics.median(search_times), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    else:
        trace_data.update(
            workload=workload, seed=seed, rounds=rounds, build_times_s=build_times,
            search_times_s=search_times,
            traced_build_s=statistics.median(build_times),
            traced_search_s=statistics.median(search_times),
        )
        result["metrics"] = layer_metrics(trace_data, rounds)
        OUT.mkdir(exist_ok=True)
        trace_data["metrics"] = result["metrics"]
        (OUT / f"trace-{workload}.json").write_text(json.dumps(trace_data, indent=1) + "\n")
    return result


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# per-layer metrics: (name, span or count, field, unit)
LAYER_METRICS = [
    ("distributed_tree.four_way_presort.s", "distributed_tree.four_way_presort", "total_s", "s"),
    ("memory_tree.build_memory_tree.s", "memory_tree.build_memory_tree", "total_s", "s"),
    ("distributed_tree.flatten_memory_subtree.s", "distributed_tree.flatten_memory_subtree", "total_s", "s"),
    ("distributed_tree.subtree_tasks", "distributed_tree.subtree_tasks", None, "count"),
    ("distributed_tree.region_from_sorted.s", "distributed_tree.region_from_sorted", "total_s", "s"),
    ("engine.per_partition.calls", "engine.per_partition", "calls", "count"),
    ("engine.per_partition.s", "engine.per_partition", "total_s", "s"),
    ("engine.filter.s", "engine.filter", "total_s", "s"),
    ("engine.filter.in", "engine.filter.in", None, "count"),
    ("engine.filter.out", "engine.filter.out", None, "count"),
    ("engine.split_at.s", "engine.split_at", "total_s", "s"),
    ("engine.split_at.calls", "engine.split_at", "calls", "count"),
    ("engine.element_at.s", "engine.element_at", "total_s", "s"),
    ("engine.sort_by_key.s", "engine.sort_by_key", "total_s", "s"),
    ("engine.from_items.s", "engine.from_items", "total_s", "s"),
    ("engine.collect.s", "engine.collect", "total_s", "s"),
    ("engine.join.s", "engine.join", "total_s", "s"),
    ("engine.join.left", "engine.join.left", None, "count"),
    ("engine.join.right", "engine.join.right", None, "count"),
    ("engine.join.out", "engine.join.out", None, "count"),
    ("engine.flat_map.s", "engine.flat_map", "total_s", "s"),
    ("engine.flat_map.out", "engine.flat_map.out", None, "count"),
    ("engine.group_by_key.s", "engine.group_by_key", "total_s", "s"),
    ("distributed_search.search_iteration.s", "distributed_search.search_iteration", "total_s", "s"),
    ("distributed_search.passes", "distributed_search.passes", None, "count"),
    ("distributed_search.visits", "distributed_search.visits", None, "count"),
    ("distributed_search.pairs", "distributed_search.pairs", None, "count"),
    ("distributed_search.group.s", "distributed_search.group.s", None, "s"),
    ("distributed_search.tree_root_name.s", "distributed_search.tree_root_name", "total_s", "s"),
    ("io.read_boxes_csv.s", "io.read_boxes_csv", "total_s", "s"),
    ("io.write_tree_jsonl.s", "io.write_tree_jsonl", "total_s", "s"),
    ("io.read_tree_jsonl.s", "io.read_tree_jsonl", "total_s", "s"),
    ("io.write_results_csv.s", "io.write_results_csv", "total_s", "s"),
    ("io.bytes_read", "io.bytes_read", None, "bytes"),
    ("io.bytes_written", "io.bytes_written", None, "bytes"),
    ("cli.self.s", "cli.main", "self_s", "s"),
    ("gc.build.pause_s", "gc.build.pause_s", None, "s"),
    ("gc.search.pause_s", "gc.search.pause_s", None, "s"),
    ("gc.gen2.collections", "gc.gen2.collections", None, "count"),
]


def layer_metrics(trace_data: dict, rounds: int) -> dict:
    """Every per-layer metric as a mean per timed round (one build, one search)."""
    spans, counts = trace_data["spans"], trace_data["counts"]
    out = {}
    for name, source, field, unit in LAYER_METRICS:
        if field is None:
            total = counts.get(source, 0.0)
        else:
            total = spans.get(source, {}).get(field, 0.0)
        out[name] = _metric(total / rounds, unit)
    visits = counts.get("distributed_search.visits", 0.0)
    pairs = counts.get("distributed_search.pairs", 0.0)
    out["distributed_search.pairs_per_visit"] = _metric(pairs / visits if visits else 0.0, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
