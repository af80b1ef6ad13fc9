"""Axis-aligned boxes, bounding regions, and super-key ordering.

Everything in this module is an immutable value with pure predicate
functions, safe to share and call from any number of threads. Coordinates
are doubles compared exactly (inputs are constructed, not measured), and
names are integers, so super keys give a strict total order.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "AXIS_XMIN",
    "AXIS_YMIN",
    "AXIS_XMAX",
    "AXIS_YMAX",
    "Box",
    "Region",
    "SuperKey",
    "DuplicateNameError",
    "superkey",
    "boxes_intersect",
    "merge_region",
    "validate_box",
    "ensure_unique_names",
]

# Sort/split axes. The value doubles as a field offset: the coordinate of
# axis ``a`` for a box ``b`` is ``b[a + 1]`` (index access is used in hot
# loops instead of attribute access).
AXIS_XMIN = 0
AXIS_YMIN = 1
AXIS_XMAX = 2
AXIS_YMAX = 3


class Box(NamedTuple):
    """A named axis-aligned rectangle; the stored unit and the query unit."""

    name: int
    x_min: float
    y_min: float
    x_max: float
    y_max: float


class Region(NamedTuple):
    """Smallest rectangle enclosing a node's box and all boxes below it."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float


class SuperKey(NamedTuple):
    """A (coordinate, name) sort key.

    Comparison is lexicographic, coordinate first, so any set of boxes with
    unique names is strictly totally ordered in every axis even when
    coordinates collide.
    """

    coordinate: float
    name: int


class DuplicateNameError(ValueError):
    """A box collection contains two boxes with the same name."""


def superkey(box: Box, axis: int) -> SuperKey:
    """Super key of ``box`` along ``axis`` (one of the AXIS_* constants)."""
    return SuperKey(box[axis + 1], box[0])


def boxes_intersect(a: Box | Region, b: Box | Region) -> bool:
    """Closed-interval overlap on both axes; touching edges intersect.

    Either argument may be a Region, which has the same coordinate fields.
    """
    return (
        a.x_min <= b.x_max
        and b.x_min <= a.x_max
        and a.y_min <= b.y_max
        and b.y_min <= a.y_max
    )


def merge_region(box: Box, children: Sequence[Region] = ()) -> Region:
    """Region that just encloses ``box`` and up to two child regions.

    Coordinate-wise min of the mins and max of the maxes; with no children
    the region equals the box itself.
    """
    x_min, y_min, x_max, y_max = box.x_min, box.y_min, box.x_max, box.y_max
    for r in children:
        if r.x_min < x_min:
            x_min = r.x_min
        if r.y_min < y_min:
            y_min = r.y_min
        if r.x_max > x_max:
            x_max = r.x_max
        if r.y_max > y_max:
            y_max = r.y_max
    return Region(x_min, y_min, x_max, y_max)


def validate_box(box: Box) -> None:
    """Raise ValueError unless ``box`` satisfies the Box invariants."""
    name, x_min, y_min, x_max, y_max = box
    isfinite = math.isfinite
    if not (isfinite(x_min) and isfinite(y_min) and isfinite(x_max) and isfinite(y_max)):
        raise ValueError(f"box {name} has a non-finite coordinate: {tuple(box[1:])}")
    if x_min > x_max or y_min > y_max:
        raise ValueError(f"box {name} has inverted extents: {tuple(box[1:])}")


def ensure_unique_names(boxes: Iterable[Box]) -> None:
    """Raise DuplicateNameError if two boxes share a name."""
    seen: set = set()
    for b in boxes:
        name = b[0]
        if name in seen:
            raise DuplicateNameError(f"duplicate box name: {name!r}")
        seen.add(name)
