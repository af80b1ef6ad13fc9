"""Axis-aligned boxes, bounding regions, and super-key ordering.

Everything in this module is an immutable value with pure predicate
functions, safe to share and call from any number of threads. Coordinates
are doubles compared exactly (inputs are constructed, not measured), and
names are integers, so super keys give a strict total order.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Tuple

__all__ = [
    "AXIS_XMIN",
    "AXIS_YMIN",
    "AXIS_XMAX",
    "AXIS_YMAX",
    "Box",
    "Region",
    "DuplicateNameError",
    "superkey",
    "boxes_intersect",
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


class DuplicateNameError(ValueError):
    """A box collection contains two boxes with the same name."""


def superkey(box: Box, axis: int) -> Tuple[float, int]:
    """Super key of ``box`` along ``axis`` (one of the AXIS_* constants).

    The (coordinate, name) tuple compares lexicographically, coordinate
    first, so any set of boxes with unique names is strictly totally
    ordered in every axis even when coordinates collide.
    """
    return box[axis + 1], box[0]


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
