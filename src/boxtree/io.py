"""File formats: box CSV, tree JSON-lines, result CSV, benchmark CSV.

Floats are written with repr-style shortest round-trip formatting, so a
write/read cycle reproduces every value bit-exactly and generation is
byte-deterministic. Readers check each line's syntax and, for box CSVs,
each box; whether a tree file's entries form one searchable tree is
checked by the search itself (``distributed_search.tree_root_name``).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Sequence, Tuple

from .geometry import Box, Region, validate_box
from .distributed_tree import TreeGraphEntry, TreeNodeValue

__all__ = [
    "BOX_CSV_HEADER",
    "write_boxes_csv",
    "read_boxes_csv",
    "write_tree_jsonl",
    "read_tree_jsonl",
    "write_results_csv",
    "read_results_csv",
    "write_bench_csv",
    "read_bench_csv",
]

BOX_CSV_HEADER = "name,xmin,ymin,xmax,ymax"
RESULTS_CSV_HEADER = "query,matches"
BENCH_CSV_HEADER = "phase,n,workers,repeat,seconds"


def write_boxes_csv(path: str, boxes: Sequence[Box]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(BOX_CSV_HEADER + "\n")
        for b in boxes:
            fh.write(f"{b.name},{b.x_min!r},{b.y_min!r},{b.x_max!r},{b.y_max!r}\n")


def read_boxes_csv(path: str) -> List[Box]:
    boxes = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != BOX_CSV_HEADER:
            raise ValueError(f"{path}: expected header {BOX_CSV_HEADER!r}, got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 fields, got {len(fields)}")
            try:
                name = int(fields[0])
                coords = [float(f) for f in fields[1:]]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if name < 0:
                raise ValueError(f"{path}:{lineno}: names must be non-negative")
            box = Box(name, *coords)
            validate_box(box)
            boxes.append(box)
    return boxes


def _child_obj(name, region):
    if name is None:
        return None
    return {"name": name, "region": list(region)}


def write_tree_jsonl(path: str, entries: Iterable[TreeGraphEntry]) -> None:
    """One JSON object per tree node, lines sorted by node name."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for name, value in sorted(entries, key=lambda e: e[0]):
            obj = {
                "name": name,
                "box": [value.box.x_min, value.box.y_min, value.box.x_max, value.box.y_max],
                "lt": _child_obj(value.lt_name, value.lt_region),
                "gt": _child_obj(value.gt_name, value.gt_region),
            }
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _child_fields(obj) -> Tuple:
    if obj is None:
        return None, None
    return obj["name"], Region(*map(float, obj["region"]))


def read_tree_jsonl(path: str) -> List[TreeGraphEntry]:
    """Parse a tree file into (name, TreeNodeValue) entries, in file order.

    Only the syntax of each line is checked here; whether the entries form
    a tree a search can walk is checked where every search starts,
    ``distributed_search.tree_root_name``.
    """
    entries: List[TreeGraphEntry] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                box = Box(obj["name"], *map(float, obj["box"]))
                lt_name, lt_region = _child_fields(obj["lt"])
                gt_name, gt_region = _child_fields(obj["gt"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed tree entry: {exc}") from exc
            entries.append(
                (obj["name"], TreeNodeValue(box, lt_name, lt_region, gt_name, gt_region))
            )
    return entries


def write_results_csv(path: str, grouped: Iterable[Tuple[int, Sequence[int]]]) -> None:
    """Rows sorted by query name; matches ascending, ';'-separated."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(RESULTS_CSV_HEADER + "\n")
        for query, matches in sorted(grouped, key=lambda kv: kv[0]):
            fh.write(f"{query},{';'.join(str(m) for m in matches)}\n")


def read_results_csv(path: str) -> Dict[int, List[int]]:
    out: Dict[int, List[int]] = {}
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != RESULTS_CSV_HEADER:
            raise ValueError(f"{path}: expected header {RESULTS_CSV_HEADER!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            query, _, matches = line.partition(",")
            out[int(query)] = [int(m) for m in matches.split(";")] if matches else []
    return out


def write_bench_csv(path: str, records: Iterable) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(BENCH_CSV_HEADER + "\n")
        for rec in records:
            fh.write(f"{rec.phase},{rec.n},{rec.workers},{rec.repeat},{rec.seconds!r}\n")


def read_bench_csv(path: str):
    from .bench import BenchRecord

    records = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != BENCH_CSV_HEADER:
            raise ValueError(f"{path}: expected header {BENCH_CSV_HEADER!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            phase, n, workers, repeat, seconds = line.split(",")
            records.append(
                BenchRecord(phase, int(n), int(workers), int(repeat), float(seconds))
            )
    return records
