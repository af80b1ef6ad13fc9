"""File formats: box CSV, tree JSON-lines, result CSV, benchmark CSV.

Floats are written with repr-style shortest round-trip formatting, so a
write/read cycle reproduces every value bit-exactly and generation is
byte-deterministic. Every file is written in one pass, one f-string per
line; tree-file lines are JSON, with the bytes ``json.dumps`` would
write. Readers refuse a non-ASCII byte, and check each line's syntax and
names, each box and that no name repeats in box CSVs, that no query
repeats in result CSVs, and each record's values in bench CSVs.

A box CSV is read into columns (``memory_tree.BoxColumns``) and a tree
file into the search's raw columns (``memory_tree.TreeColumns``),
not into per-row or per-node objects: a file as ``write_boxes_csv`` or
``write_tree_jsonl`` writes it is parsed whole with numpy, and any other
file, or one a check refuses, goes through a line-by-line parser, which
reports the first bad line with its number. Either way the names are a
``memory_tree.name_column`` (int64 below 2^63), with -1 for "no child".
The tree writer formats raw columns, as ``memory_tree.column_tree``
builds them, a chunk of lines at a time; it writes the float64 columns
only, so every box and region it writes must be finite, as those of a
box CSV are. Whether tree columns form one searchable tree is checked
by the search itself (``distributed_search.tree_root_name``).
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .distributed_search import entry_columns
from .geometry import Box, Region, validate_box
from .memory_tree import BoxColumns, TreeColumns, TreeGraphEntry, TreeNodeValue, name_column

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


def _ascii_lines(path: str) -> Iterator[Tuple[int, str]]:
    """The numbered lines of a text file, from 1; a line with a non-ASCII
    byte is refused with its ``path:line``."""
    # decoding the whole read-ahead buffer at once would refuse a bad byte
    # before its line is reached, with no line number
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                column = next(i for i, c in enumerate(line) if not c.isascii())
                byte = ord(line[column]) - 0xDC00  # surrogateescape's code for the byte
                raise ValueError(f"{path}:{lineno}: non-ASCII byte 0x{byte:02x} at column {column + 1}")
            yield lineno, line


def _read_rows(path: str, header: str, nfields: int, parse: Callable[[List[str]], Any]) -> List:
    """``parse`` applied to each row's fields, after the header; blank lines skipped.

    A wrong header is refused, and so is a row with the wrong field count,
    a ``_``, space or tab in a field (``int`` and ``float`` read ``1_0``
    as 10 and `` 1`` as 1) or one that ``parse`` refuses with ValueError,
    prefixed with ``path:line``.
    """
    rows = []
    lines = _ascii_lines(path)
    first = next(lines, (1, ""))[1].strip()
    if first != header:
        raise ValueError(f"{path}: expected header {header!r}, got {first!r}")
    for lineno, line in lines:
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        try:
            if len(fields) != nfields:
                raise ValueError(f"expected {nfields} fields, got {len(fields)}")
            if "_" in line or " " in line or "\t" in line:
                raise ValueError("'_', space or tab in a field")
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


def read_boxes_csv(path: str) -> BoxColumns:
    """Parse a box CSV into columns, in file order; a bad line, a bad box
    or a repeated name is refused.

    A file spelled as ``write_boxes_csv`` writes it, with names below
    2^53 and exponents written as ``repr`` writes them, is parsed whole
    into arrays (``_parse_boxes``). Any other file, and any file one of
    its checks refuses, is parsed row by row (``_read_box_rows``), which
    reports the first bad row with its number.
    """
    boxes = _parse_boxes(path)
    return _read_box_rows(path) if boxes is None else boxes


def _read_box_rows(path: str) -> BoxColumns:
    seen = set()

    def parse(fields: List[str]) -> Box:
        name = _name(fields[0])
        if name in seen:
            raise ValueError(f"repeated box name {name}")
        seen.add(name)
        box = Box(name, float(fields[1]), float(fields[2]), float(fields[3]), float(fields[4]))
        validate_box(box)
        return box

    boxes = _read_rows(path, BOX_CSV_HEADER, 5, parse)
    coords = np.array([box[1:] for box in boxes], float).reshape(-1, 4).T.copy()
    return BoxColumns(name_column([box[0] for box in boxes]), coords)


_BOX_HEAD = (BOX_CSV_HEADER + "\n").encode("ascii")
# the characters of the numbers repr writes: deleting them from a row of
# five numbers leaves four commas and a newline
_CSV_NUMBER_CHARS = b"0123456789.-+e"
_CSV_SPACES = bytes.maketrans(b",\n", b"  ")


def _parse_boxes(path: str) -> Optional[BoxColumns]:
    """The columns of a box CSV as write_boxes_csv writes it; None for any other.

    No Python object is made per row or number: the rows' shape is
    checked at once on the bytes, the numbers are read by one
    ``np.fromstring`` and checked as ``_numbers`` checks a tree file's,
    and the boxes and names with numpy.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    # a number after the last newline would balance an empty field
    if not data.startswith(_BOX_HEAD) or not data.endswith(b"\n"):
        return None
    body = data[len(_BOX_HEAD) - 1:]  # from the header's newline on
    del data
    rows = body.count(b"\n") - 1
    # five fields, of number characters only, on every row, and no blank row
    if body.translate(None, _CSV_NUMBER_CHARS) != b"\n" + b",,,,\n" * rows:
        return None
    if not rows:
        return BoxColumns(np.empty(0, np.int64), np.empty((4, 0)))
    values = _numbers(body.translate(_CSV_SPACES) + b" ", 5 * rows, np.arange(0, 5 * rows, 5))
    del body
    if values is None:
        return None
    values = values.reshape(rows, 5)
    names = values[:, 0].astype(np.int64)
    coords = values[:, 1:].T.copy()
    if not ((coords[0] <= coords[2]) & (coords[1] <= coords[3])).all():
        return None  # inverted: let the row parser name the row
    ascending = np.sort(names)
    if (ascending[1:] == ascending[:-1]).any():
        return None  # repeated
    return BoxColumns(names, coords)


# Lines formatted and written at once. Formatting every line before
# writing any raised the peak RSS of kdbench's grid-cli run (n = 2^15,
# 2 workers, on a 2-core x86 box) from 76.3 to 88.0 MB.
_CHUNK = 4096


def write_tree_jsonl(path: str, columns: TreeColumns) -> None:
    """One JSON object per tree node, in the columns' order: by node name.

    The boxes and the regions of the children must be finite, as every
    box CSV's are. The bytes are those of ``json.dumps`` with
    ``separators=(",", ":")``. Each line is formatted once, with ``repr``
    for the names and coordinates, ``_CHUNK`` lines at a time: the numbers
    of a chunk are taken out of the arrays by ``tolist``, and its lines
    are joined and written.
    """
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for start in range(0, len(columns.names), _CHUNK):
            fh.write(_tree_lines(columns, slice(start, start + _CHUNK)))


def _tree_lines(columns: TreeColumns, rows: slice) -> str:
    box, lt, gt = columns.rects[:, :, rows].transpose(1, 0, 2).tolist()
    lt_names, gt_names = columns.children[rows].T.tolist()
    return "".join(map(_tree_line, columns.names[rows].tolist(), *box, lt_names, *lt, gt_names, *gt))


def _tree_line(name, b0, b1, b2, b3, lt, l0, l1, l2, l3, gt, g0, g1, g2, g3) -> str:
    lt = "null" if lt == -1 else f'{{"name":{lt!r},"region":[{l0!r},{l1!r},{l2!r},{l3!r}]}}'
    gt = "null" if gt == -1 else f'{{"name":{gt!r},"region":[{g0!r},{g1!r},{g2!r},{g3!r}]}}'
    return f'{{"name":{name!r},"box":[{b0!r},{b1!r},{b2!r},{b3!r}],"lt":{lt},"gt":{gt}}}\n'


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


def read_tree_jsonl(path: str) -> TreeColumns:
    """Parse a tree file into the search's raw columns, in name order.

    A file spelled as ``write_tree_jsonl`` writes it, with finite
    coordinates written without an exponent and ascending names below
    2^53, is parsed whole into arrays (``_parse_written``). Any other
    file is parsed line by line (``_read_tree_lines``), which reports a
    bad line with its number. Only each line is checked here; whether the
    nodes form a tree a search can walk is checked where every search
    starts, ``distributed_search.tree_root_name``.
    """
    columns = _parse_written(path)
    return entry_columns(_read_tree_lines(path)) if columns is None else columns


# The line shapes write_tree_jsonl writes, with every number character
# deleted; a number with an exponent, NaN or Infinity leaves letters
_NUMBER_CHARS = b"0123456789.-"
_HEAD = b'{"name":,"box":[,,,],"lt":'
_CHILD = b'{"name":,"region":[,,,]}'
_SHAPES = [_HEAD + lt + b',"gt":' + gt + b"}\n" for lt in (_CHILD, b"null") for gt in (_CHILD, b"null")]
# numbers between delimiters that np.fromstring skips, and 9 for any other byte
_DELIMITERS = dict(zip(b",:\n[]", b"   \n\v"))  # a space, or 10 for "[" and 11 for "]"
_NUMBERS_ONLY = bytes(c if c in _NUMBER_CHARS else _DELIMITERS.get(c, 9) for c in range(256))
_TENS = 10.0 ** np.arange(1, 17)  # a name below 2^53 has at most 16 digits


def _digits(chars: np.ndarray) -> np.ndarray:
    return chars - 48 < 10  # uint8: every byte below "0" wraps above 9


def _parse_written(path: str) -> Optional[TreeColumns]:
    """The columns of a tree file as write_tree_jsonl writes it; None for any other.

    No Python object is made per node or number: the lines' shapes are
    checked at once on the bytes, the numbers are read by one
    ``np.fromstring``, and the JSON rules that float parsing does not
    keep are checked on the number characters with numpy. The helpers
    drop their file-sized buffers on return, which keeps the peak near
    four of them.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    kinds = _line_kinds(data)
    if kinds is None:
        return None
    has_lt, has_gt = kinds
    text = data.translate(_NUMBERS_ONLY)  # numbers between spaces
    del data
    count = 5 * (1 + has_lt.astype(np.intp) + has_gt)
    first = np.cumsum(count) - count  # each line's name, then its box
    lt = first[has_lt] + 5
    gt = (first + 5 + 5 * has_lt)[has_gt]
    values = _numbers(text, int(count.sum()), np.concatenate((first, lt, gt)))
    del text
    if values is None:
        return None
    names = values[first].astype(np.int64)
    if (names[1:] <= names[:-1]).any():  # hand-sorted or repeated: let the line parser keep it
        return None

    n = len(first)
    rects = np.full((4, 3, n), np.nan)
    children = np.full((n, 2), -1, dtype=np.int64)
    four = np.arange(1, 5)  # the four numbers after a name
    rects[:, 0] = values[first[:, None] + four].T
    rects[:, 1, has_lt] = values[lt[:, None] + four].T
    rects[:, 2, has_gt] = values[gt[:, None] + four].T
    children[has_lt, 0] = values[lt]
    children[has_gt, 1] = values[gt]
    return TreeColumns(names, rects, children)


def _line_kinds(data: bytes) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Whether each line has an lt and a gt child, if every line has one of
    write_tree_jsonl's shapes; None otherwise."""
    shapes = data.translate(None, _NUMBER_CHARS)
    # an occurrence of a shape lies within one line, so they tile the file
    # exactly when every line is one of them and no number follows the last
    if not data.endswith(b"}\n") or sum(shapes.count(s) * len(s) for s in _SHAPES) != len(shapes):
        return None
    shape = np.frombuffer(shapes, np.uint8)
    starts = np.concatenate(([0], np.flatnonzero(shape == 10)[:-1] + 1))
    has_lt = shape[starts + len(_HEAD)] == ord("{")
    has_gt = shape[starts + len(_HEAD) + np.where(has_lt, len(_CHILD), 4) + len(',"gt":')] == ord("{")
    return has_lt, has_gt


def _numbers(text: bytes, expected: int, name: np.ndarray) -> Optional[np.ndarray]:
    """The numbers of ``text``, if there are ``expected`` of them, each
    between two delimiters and a finite JSON number or one ``repr`` writes
    with an exponent, and those at ``name`` names; None otherwise.

    ``text`` holds the numbers between delimiters (a space, 10 for "[", 11
    for "]"), one before the first and two after the last; 9 marks any other byte.
    """
    chars = np.frombuffer(text, np.uint8)
    number = chars > 32
    # every number follows a space or "[" and precedes a space or "]": one in
    # a key, by a null or outside a bracket would balance an empty slot
    after = np.empty(len(chars) - 1, bool)
    if np.logical_and(np.less(chars[1:], 11, out=after), number[:-1], out=after).any():
        return None
    del after
    token = np.flatnonzero(number[1:] > number[:-1]) + 1  # where each number starts
    del number
    if len(token) != expected:  # a number slot was empty
        return None
    if not np.isin(chars[token - 1], (32, 10)).all():
        return None
    # an exponent as repr writes it, after a digit: "e", a sign and a
    # digit ("1e5" and "+1" are not); never in a name
    exponent = np.flatnonzero(chars == ord("e"))
    sign = chars[exponent + 1]
    if not (_digits(chars[exponent - 1]) & ((sign == ord("+")) | (sign == ord("-")))).all():
        return None
    if not _digits(chars[exponent + 2]).all():
        return None
    if np.isin(np.searchsorted(token, exponent, side="right") - 1, name).any():
        return None
    del exponent, sign
    if not (chars[np.flatnonzero(chars == ord("+")) - 1] == ord("e")).all():
        return None
    # JSON refuses what float parsing takes: a leading 0 ("01", "-01")
    # and a "." without a digit on each side ("1.", ".5", "-.5"); and it
    # reads "-0" as the integer 0, where float parsing reads -0.0
    minus = chars[token] == ord("-")
    lead = token + minus
    if ((chars[lead] == ord("0")) & (_digits(chars[lead + 1]) | minus & (chars[lead + 1] <= 32))).any():
        return None
    del minus, lead
    dots = np.flatnonzero(chars == ord("."))
    if not (_digits(chars[dots - 1]) & _digits(chars[dots + 1])).all():
        return None
    del dots
    try:
        # without a count, so that all of the text must be read
        values = np.fromstring(text, sep=" ")
    except ValueError:  # a number it cannot read, such as "-", "1-2" or "1.2.3"
        return None
    if len(values) != expected or not np.isfinite(values).all():
        return None
    # a name is an integer in [0, 2^53) spelled with its digits only: no
    # other spelling of it ("5.0", "-0") is as short
    value = values[name]
    if not ((value >= 0) & (value < 2**53) & (value == np.floor(value))).all():
        return None
    if (chars[token[name] + np.searchsorted(_TENS, value, side="right") + 1] != 32).any():
        return None
    return values


def _read_tree_lines(path: str) -> List[TreeGraphEntry]:
    """Parse a tree file into (name, TreeNodeValue) entries, in file order.

    Checks each line: its syntax, a box and regions of four JSON numbers
    each, and non-negative integer node names.
    """
    entries: List[TreeGraphEntry] = []
    for lineno, line in _ascii_lines(path):
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
    """Parse a results CSV; a bad line or a repeated query name is refused."""
    results: Dict[int, List[int]] = {}

    def parse(fields: List[str]) -> None:
        query, matches = fields
        name = _name(query)
        if name in results:
            raise ValueError(f"repeated query name {name}")
        results[name] = [_name(m) for m in matches.split(";")] if matches else []

    _read_rows(path, RESULTS_CSV_HEADER, 2, parse)
    return results


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
