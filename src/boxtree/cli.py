"""Command-line interface: gen, build, search, bench, fit.

Exit codes: 0 on success, 1 when --verify fails, 2 for bad input or
arguments.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import io
from .bench import (
    FULL_DEPTH,
    fastest_per_point,
    run_build_bench,
    run_scaling_bench,
    run_search_bench,
)
from .distributed_search import column_queries, entry_columns, file_tree, run_search
from .distributed_tree import build_distributed_tree
from .engine import Engine, EngineConfig
from .fits import FitResult, fit_linear_nlogn, fit_scaling_model
from .memory_tree import column_tree
from .testdata import BOXES_PER_SQUARE, SquareGridSpec, generate_test_data, verify_search_results

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxtree",
        description="Balanced k-d tree over boxes: build, search and benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate test rectangles")
    p.add_argument("--squares", type=int, required=True, help="number of squares (16 boxes each)")
    p.add_argument("--side", type=float, default=100.0, help="square side length")
    p.add_argument("--out", required=True, help="output box CSV")

    p = sub.add_parser("build", help="build the distributed tree")
    p.add_argument("--in", dest="infile", required=True, help="input box CSV")
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--cutoff-depth", dest="cutoff", type=int, default=0,
                   help="depth at which to switch to in-memory subtree builds (default 0)")
    p.add_argument("--out", required=True, help="output tree file (JSON lines)")

    p = sub.add_parser("search", help="search a tree with query boxes")
    p.add_argument("--tree", required=True, help="tree file from build")
    p.add_argument("--queries", required=True, help="query box CSV")
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--out", required=True, help="output results CSV")
    p.add_argument("--verify", action="store_true",
                   help="check results against the oracle for the grid the queries fill")

    p = sub.add_parser("bench", help="timing sweeps")
    bench_sub = p.add_subparsers(dest="kind", required=True)
    for kind in ("build", "search"):
        b = bench_sub.add_parser(kind)
        b.add_argument("--min-exp", type=int, required=True)
        b.add_argument("--max-exp", type=int, required=True)
        b.add_argument("--workers", type=int, required=True)
        b.add_argument("--repeats", type=int, required=True)
        if kind == "build":
            b.add_argument("--cutoff-depth", dest="cutoff", type=int, default=0)
        b.add_argument("--out", required=True)
    b = bench_sub.add_parser("scaling")
    b.add_argument("--exp", type=int, required=True)
    b.add_argument("--max-workers", type=int, required=True)
    b.add_argument("--repeats", type=int, required=True)
    b.add_argument("--cutoff-depth", dest="cutoff", type=int, default=FULL_DEPTH)
    b.add_argument("--phase", choices=("build", "search"), default="build")
    b.add_argument("--out", required=True)

    p = sub.add_parser("fit", help="fit a model to a benchmark CSV")
    fit_sub = p.add_subparsers(dest="model", required=True)
    for model in ("nlogn", "scaling"):
        f = fit_sub.add_parser(model)
        f.add_argument("--in", dest="infile", required=True)

    return parser


def _print_fit(result: FitResult) -> None:
    for param, value in result.params.items():
        print(f"{result.model},{param},{value!r}")
    print(f"r,{result.r!r}")


def _cmd_gen(args) -> int:
    boxes = generate_test_data(SquareGridSpec(args.squares, args.side))
    io.write_boxes_csv(args.out, boxes)
    print(f"wrote {len(boxes)} boxes to {args.out}")
    return 0


def _cmd_build(args) -> int:
    """At cutoff 0, the box columns go through the array build to the
    writer; above it, through the engine build's entries."""
    boxes = io.read_boxes_csv(args.infile)
    with Engine(EngineConfig(args.workers)) as engine:
        if args.cutoff == 0:
            columns = column_tree(boxes)
        else:
            tree_ds = build_distributed_tree(boxes.boxes(), engine, args.cutoff)
            columns = entry_columns(tree_ds.collect())
    io.write_tree_jsonl(args.out, columns)
    print(f"wrote {len(columns.names)} tree nodes to {args.out}")
    return 0


def _cmd_search(args) -> int:
    columns = io.read_tree_jsonl(args.tree)
    queries = io.read_boxes_csv(args.queries)
    with Engine(EngineConfig(args.workers)) as engine:
        tree_ds = file_tree(engine, columns)
        grouped = run_search(column_queries(engine, queries), tree_ds).collect()
    io.write_results_csv(args.out, grouped)
    print(f"wrote {len(grouped)} result rows to {args.out}")
    if args.verify:
        squares, rest = divmod(len(queries.names), BOXES_PER_SQUARE)
        ok = not rest and verify_search_results(dict(grouped), squares)
        print(f"verification: {'ok' if ok else 'FAILED'}")
        return 0 if ok else 1
    return 0


def _cmd_bench(args) -> int:
    if args.kind == "build":
        records, fit = run_build_bench(
            args.min_exp, args.max_exp, args.workers, args.repeats, args.cutoff
        )
    elif args.kind == "search":
        records, fit = run_search_bench(
            args.min_exp, args.max_exp, args.workers, args.repeats
        )
    else:
        records, fit = run_scaling_bench(
            args.exp, args.max_workers, args.repeats, args.cutoff, args.phase
        )
    io.write_bench_csv(args.out, records)
    print(f"wrote {len(records)} records to {args.out}")
    _print_fit(fit)
    return 0


def _cmd_fit(args) -> int:
    records = io.read_bench_csv(args.infile)
    if not records:
        raise ValueError(f"{args.infile}: no benchmark records")
    if args.model == "nlogn":
        fit = fit_linear_nlogn(fastest_per_point(records, "n"))
    else:
        fit = fit_scaling_model(fastest_per_point(records, "workers"))
    _print_fit(fit)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "build": _cmd_build,
    "search": _cmd_search,
    "bench": _cmd_bench,
    "fit": _cmd_fit,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
