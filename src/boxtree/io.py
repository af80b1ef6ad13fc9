"""File formats: box CSV, tree JSON-lines, result CSV, benchmark CSV.

Floats are written with repr-style shortest round-trip formatting, so a
write/read cycle reproduces every value bit-exactly and generation is
byte-deterministic. Every file is written in one pass, one f-string per
line; tree-file lines are JSON, with the bytes ``json.dumps`` would
write. Readers check each line's syntax and names, each box and that no
name repeats in box CSVs, and each record's values in bench CSVs;
whether a tree file's entries form one searchable tree is checked by the
search itself (``distributed_search.tree_root_name``).
"""

from __future__ import annotations

import json
import math
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from .geometry import Box, Region, validate_box
from .memory_tree import TreeGraphEntry, TreeNodeValue

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
_NUMBER = {int, float}  # bool, an int subclass, is not in it


def write_boxes_csv(path: str, boxes: Sequence[Box]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(BOX_CSV_HEADER + "\n")
        for b in boxes:
            fh.write(f"{b.name},{b.x_min!r},{b.y_min!r},{b.x_max!r},{b.y_max!r}\n")


def _read_rows(path: str, header: str, nfields: int, parse: Callable[[List[str]], Any]) -> List:
    """``parse`` applied to each row's fields, after the header; blank lines skipped.

    A wrong header is refused, and so is a row with the wrong field count,
    a ``_`` in a field (``int`` and ``float`` read ``1_0`` as 10) or one
    that ``parse`` refuses with ValueError, prefixed with ``path:line``.
    """
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        first = fh.readline().strip()
        if first != header:
            raise ValueError(f"{path}: expected header {header!r}, got {first!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            try:
                if len(fields) != nfields:
                    raise ValueError(f"expected {nfields} fields, got {len(fields)}")
                if "_" in line:
                    raise ValueError("'_' in a field")
                rows.append(parse(fields))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return rows


def _name(field: str) -> int:
    # int() would also take a sign and spaces; the file is ASCII, so
    # isdigit() allows 0-9 only
    if not field.isdigit():
        raise ValueError(f"a name must be ASCII digits, got {field!r}")
    return int(field)


def read_boxes_csv(path: str) -> List[Box]:
    """Parse a box CSV; a bad line, a bad box or a repeated name is refused."""
    seen = set()

    def parse(fields: List[str]) -> Box:
        name = _name(fields[0])
        if name in seen:
            raise ValueError(f"repeated box name {name}")
        seen.add(name)
        box = Box(name, float(fields[1]), float(fields[2]), float(fields[3]), float(fields[4]))
        validate_box(box)
        return box

    return _read_rows(path, BOX_CSV_HEADER, 5, parse)


def _child_json(name, region) -> str:
    if name is None:
        return "null"
    return f'{{"name":{name!r},"region":[{region[0]!r},{region[1]!r},{region[2]!r},{region[3]!r}]}}'


def _tree_line(entry: TreeGraphEntry) -> str:
    name, v = entry
    b = v.box
    line = (
        f'{{"name":{name!r},"box":[{b[1]!r},{b[2]!r},{b[3]!r},{b[4]!r}],'
        f'"lt":{_child_json(v.lt_name, v.lt_region)},'
        f'"gt":{_child_json(v.gt_name, v.gt_region)}}}\n'
    )
    # repr writes the non-finite floats as nan, inf and -inf, where JSON
    # writes NaN, Infinity and -Infinity; no key and no finite number
    # contains either spelling
    return line.replace("nan", "NaN").replace("inf", "Infinity")


def write_tree_jsonl(path: str, entries: Iterable[TreeGraphEntry]) -> None:
    """One JSON object per tree node, lines sorted by node name.

    Each line is formatted once, with ``repr`` for the names and the int
    or float coordinates, and the lines are streamed to the file; the
    bytes are those of ``json.dumps`` with ``separators=(",", ":")``.
    """
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(map(_tree_line, sorted(entries, key=itemgetter(0))))


def _node_name(value) -> int:
    # JSON true/false parse to bool, which is an int subclass: refused too
    if type(value) is not int or value < 0:
        raise ValueError(f"node name must be a non-negative integer, got {json.dumps(value)}")
    return value


def _four_numbers(value) -> List[float]:
    # float() would also take "0022", "6.0" or true: only JSON numbers may pass
    if type(value) is not list or len(value) != 4 or not _NUMBER.issuperset(map(type, value)):
        raise ValueError(f"expected a list of four numbers, got {json.dumps(value)}")
    try:
        return [float(v) for v in value]
    except OverflowError:
        raise ValueError("a coordinate is an integer beyond the range of a float") from None


def _child_fields(obj) -> Tuple:
    if obj is None:
        return None, None
    return _node_name(obj["name"]), Region(*_four_numbers(obj["region"]))


def read_tree_jsonl(path: str) -> List[TreeGraphEntry]:
    """Parse a tree file into (name, TreeNodeValue) entries, in file order.

    Only each line is checked here: its syntax, a box and regions of four
    JSON numbers each, and non-negative integer node names. Whether the
    entries form a tree a search can walk is checked where every search
    starts, ``distributed_search.tree_root_name``.
    """
    entries: List[TreeGraphEntry] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                name = _node_name(obj["name"])
                box = Box(name, *_four_numbers(obj["box"]))
                lt_name, lt_region = _child_fields(obj["lt"])
                gt_name, gt_region = _child_fields(obj["gt"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed tree entry: {exc}") from exc
            entries.append((name, TreeNodeValue(box, lt_name, lt_region, gt_name, gt_region)))
    return entries


def write_results_csv(path: str, grouped: Iterable[Tuple[int, Sequence[int]]]) -> None:
    """Rows sorted by query name; matches ascending, ';'-separated."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(RESULTS_CSV_HEADER + "\n")
        for query, matches in sorted(grouped, key=lambda kv: kv[0]):
            fh.write(f"{query},{';'.join(str(m) for m in matches)}\n")


def read_results_csv(path: str) -> Dict[int, List[int]]:
    def parse(fields: List[str]) -> Tuple[int, List[int]]:
        query, matches = fields
        return _name(query), [_name(m) for m in matches.split(";")] if matches else []

    return dict(_read_rows(path, RESULTS_CSV_HEADER, 2, parse))


def write_bench_csv(path: str, records: Iterable) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(BENCH_CSV_HEADER + "\n")
        for rec in records:
            fh.write(f"{rec.phase},{rec.n},{rec.workers},{rec.repeat},{rec.seconds!r}\n")


def read_bench_csv(path: str):
    """Parse a benchmark CSV; a row no sweep could have written is refused."""
    from .bench import BenchRecord

    def parse(fields: List[str]) -> BenchRecord:
        phase, n, workers, repeat, seconds = fields
        rec = BenchRecord(phase, int(n), int(workers), int(repeat), float(seconds))
        if rec.phase not in ("build", "search"):
            raise ValueError(f"unknown phase {rec.phase!r}")
        if rec.n < 1 or rec.workers < 1 or rec.repeat < 0:
            raise ValueError("n and workers must be >= 1 and repeat >= 0")
        if not (math.isfinite(rec.seconds) and rec.seconds >= 0):
            raise ValueError(f"seconds must be finite and non-negative, got {seconds}")
        return rec

    return _read_rows(path, BENCH_CSV_HEADER, 5, parse)
