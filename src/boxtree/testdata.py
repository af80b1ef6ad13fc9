"""Deterministic test data: rows of squares, 16 rectangles per square.

Each square holds the same canonical layout of 16 rectangles, strictly
interior to the square: three clusters of three mutually overlapping
rectangles (9 rectangles that intersect something) and seven isolated
ones. Squares are translated along x and never overlap, so intersections
stay within a square and the expected number of intersecting rectangles
is 9 per square. An O(n^2) scan over all pairs serves as the correctness
oracle for any search path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from .geometry import Box, boxes_intersect, ensure_unique_names

__all__ = [
    "SquareGridSpec",
    "generate_test_data",
    "brute_force_intersections",
    "verify_search_results",
]


@dataclass(frozen=True)
class SquareGridSpec:
    """A row of adjacent, non-overlapping squares to fill with rectangles."""

    squares: int
    side: float = 100.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.side) and self.side > 0):
            raise ValueError(f"square side must be finite and positive, got {self.side}")


# Canonical rectangle layout inside a 100-unit square, as
# (x_min, y_min, x_max, y_max). Local indices 0-8 form three clusters of
# three mutually overlapping rectangles; 9-15 touch nothing. All extents
# stay strictly inside (0, 100) so adjacent squares never make contact
# even with closed-interval intersection.
_CANONICAL_LAYOUT = (
    (6.0, 6.0, 16.0, 16.0),
    (12.0, 12.0, 22.0, 22.0),
    (10.0, 4.0, 20.0, 14.0),
    (56.0, 6.0, 66.0, 16.0),
    (62.0, 12.0, 72.0, 22.0),
    (60.0, 4.0, 70.0, 14.0),
    (26.0, 56.0, 36.0, 66.0),
    (32.0, 62.0, 42.0, 72.0),
    (30.0, 54.0, 40.0, 64.0),
    (80.0, 30.0, 86.0, 36.0),
    (4.0, 36.0, 10.0, 42.0),
    (44.0, 40.0, 50.0, 46.0),
    (80.0, 60.0, 86.0, 66.0),
    (8.0, 76.0, 14.0, 82.0),
    (56.0, 80.0, 62.0, 86.0),
    (80.0, 86.0, 88.0, 94.0),
)

BOXES_PER_SQUARE = len(_CANONICAL_LAYOUT)
INTERSECTING_PER_SQUARE = 9


def generate_test_data(spec: SquareGridSpec) -> List[Box]:
    """16 rectangles per square, square s translated by (s * side, 0).

    Names are 16 * square_index + local_index, globally unique and
    deterministic: the same spec always yields the same boxes.
    """
    if spec.squares < 1:
        raise ValueError(f"need at least one square, got {spec.squares}")
    scale = spec.side / 100.0
    boxes = []
    for s in range(spec.squares):
        dx = s * spec.side
        for i, (x0, y0, x1, y1) in enumerate(_CANONICAL_LAYOUT):
            boxes.append(
                Box(
                    BOXES_PER_SQUARE * s + i,
                    x0 * scale + dx,
                    y0 * scale,
                    x1 * scale + dx,
                    y1 * scale,
                )
            )
    return boxes


def brute_force_intersections(boxes: Sequence[Box]) -> Dict[int, List[int]]:
    """All-pairs intersection map, self excluded, empty entries omitted.

    The O(n^2) oracle: sorted partner-name lists keyed by box name.
    """
    ensure_unique_names(boxes)
    hits: Dict[int, List[int]] = {b.name: [] for b in boxes}
    items = list(boxes)
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            if boxes_intersect(a, b):
                hits[a.name].append(b.name)
                hits[b.name].append(a.name)
    return {name: sorted(partners) for name, partners in hits.items() if partners}


def verify_search_results(grouped: Mapping[int, Sequence[int]], squares: int) -> bool:
    """Check grouped search output for generate_test_data(squares) data.

    True iff exactly 9 * squares queries report matches and the full map
    equals the brute-force oracle. squares == 0 expects an empty result.
    Squares never touch each other, so the oracle runs over one square's
    16 boxes at a time, in O(n) overall.
    """
    if squares == 0:
        return not grouped
    if len(grouped) != INTERSECTING_PER_SQUARE * squares:
        return False
    boxes = generate_test_data(SquareGridSpec(squares))
    expected: Dict[int, List[int]] = {}
    for start in range(0, len(boxes), BOXES_PER_SQUARE):
        expected.update(brute_force_intersections(boxes[start : start + BOXES_PER_SQUARE]))
    got = {name: list(partners) for name, partners in grouped.items()}
    return got == expected
