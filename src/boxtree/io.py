"""File formats: box CSV, tree JSON-lines, result CSV, benchmark CSV.

Floats are written with repr-style shortest round-trip formatting, so a
write/read cycle reproduces every value bit-exactly and generation is
byte-deterministic.
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
    "validate_tree",
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
    try:
        validate_tree(entries)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return entries


def validate_tree(entries: Sequence[TreeGraphEntry]) -> None:
    """Raise ValueError unless ``entries`` form one tree a search can walk.

    Every box is valid and every name unique; every child name has an
    entry; exactly one entry is no entry's child; the walk down from it
    reaches every entry exactly once; and every child region encloses the
    boxes of its subtree. No entries at all is the empty tree.
    """
    by_name: Dict[int, TreeNodeValue] = {}
    children = set()
    for name, value in entries:
        validate_box(value.box)
        if name in by_name:
            raise ValueError(f"duplicate tree node {name}")
        by_name[name] = value
        if value.lt_name is not None:
            children.add(value.lt_name)
        if value.gt_name is not None:
            children.add(value.gt_name)
    missing = children - by_name.keys()
    if missing:
        raise ValueError(f"child node {min(missing)} has no entry")
    if not by_name:
        return
    roots = by_name.keys() - children
    if len(roots) != 1:
        raise ValueError(f"tree has {len(roots)} roots, expected 1")

    order: List[int] = []  # pre-order, so children come after their parent
    seen = set()
    stack = list(roots)
    while stack:
        name = stack.pop()
        if name in seen:
            raise ValueError(f"node {name} is reached twice from the root")
        seen.add(name)
        order.append(name)
        value = by_name[name]
        if value.lt_name is not None:
            stack.append(value.lt_name)
        if value.gt_name is not None:
            stack.append(value.gt_name)
    if len(order) != len(by_name):
        raise ValueError(f"{len(by_name) - len(order)} nodes are unreachable from the root")

    # tightest region around each subtree, children before parents. The
    # pass allocates one tuple per node: each allocation counts towards a
    # collection that walks the whole loaded tree.
    tight: Dict[int, Tuple[float, float, float, float]] = {}
    for name in reversed(order):
        value = by_name[name]
        _, x0, y0, x1, y1 = value.box
        for i in (1, 3):  # lt_name, lt_region and gt_name, gt_region
            child = value[i]
            if child is None:
                continue
            region = value[i + 1]
            c0, d0, c1, d1 = tight[child]
            if not (region[0] <= c0 and region[1] <= d0 and c1 <= region[2] and d1 <= region[3]):
                raise ValueError(f"node {name}: region of child {child} misses its subtree")
            if c0 < x0:
                x0 = c0
            if d0 < y0:
                y0 = d0
            if c1 > x1:
                x1 = c1
            if d1 > y1:
                y1 = d1
        tight[name] = (x0, y0, x1, y1)


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
