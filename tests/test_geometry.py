import pytest
from hypothesis import given, strategies as st

from boxtree.geometry import (
    Box,
    Region,
    boxes_intersect,
    ensure_unique_names,
    superkey,
    validate_box,
    DuplicateNameError,
    AXIS_XMIN,
    AXIS_YMIN,
    AXIS_XMAX,
    AXIS_YMAX,
)

from conftest import merge_region


def box(name, x0, y0, x1, y1):
    return Box(name, float(x0), float(y0), float(x1), float(y1))


coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw, name=0):
    x0, x1 = sorted((draw(coords), draw(coords)))
    y0, y1 = sorted((draw(coords), draw(coords)))
    return Box(name, x0, y0, x1, y1)


class TestBoxesIntersect:
    @pytest.mark.parametrize(
        "a,b,expect",
        [
            (box(0, 0, 0, 2, 2), box(1, 1, 1, 3, 3), True),
            (box(0, 0, 0, 1, 1), box(1, 2, 2, 3, 3), False),
            # closed intervals: a shared edge counts as intersection
            (box(0, 0, 0, 1, 1), box(1, 1, 0, 2, 1), True),
            # a box against a child region, as the search descends
            (box(0, 0, 0, 1, 1), Region(0.0, 0.0, 10.0, 10.0), True),
            (box(0, 5, 5, 6, 6), Region(0.0, 0.0, 1.0, 1.0), False),
            (box(0, 0, 0, 1, 1), Region(0.0, 0.0, 1.0, 1.0), True),
        ],
    )
    def test_examples(self, a, b, expect):
        assert boxes_intersect(a, b) is expect

    @given(boxes(name=0), boxes(name=1))
    def test_symmetric(self, a, b):
        assert boxes_intersect(a, b) == boxes_intersect(b, a)

    @given(boxes())
    def test_reflexive(self, a):
        assert boxes_intersect(a, a)


class TestMergeRegion:
    def test_leaf_region_equals_box(self):
        b = box(7, 1, 1, 2, 2)
        assert merge_region(b) == Region(1.0, 1.0, 2.0, 2.0)

    def test_two_children(self):
        b = box(7, 1, 1, 2, 2)
        kids = [Region(0.0, 0.0, 1.0, 1.0), Region(2.0, 2.0, 3.0, 3.0)]
        assert merge_region(b, kids) == Region(0.0, 0.0, 3.0, 3.0)

    def test_one_child(self):
        b = box(7, 0, 0, 1, 1)
        assert merge_region(b, [Region(0.5, 0.5, 2.0, 2.0)]) == Region(0.0, 0.0, 2.0, 2.0)

    @given(boxes(name=0), boxes(name=1), boxes(name=2))
    def test_contains_inputs_and_is_minimal(self, b, c1, c2):
        kids = [merge_region(c1), merge_region(c2)]
        r = merge_region(b, kids)

        def contains(outer, inner):
            return (
                outer.x_min <= inner[-4]
                and outer.y_min <= inner[-3]
                and inner[-2] <= outer.x_max
                and inner[-1] <= outer.y_max
            )

        assert contains(r, (b.x_min, b.y_min, b.x_max, b.y_max))
        assert all(contains(r, k) for k in kids)
        # shrinking any coordinate breaks containment of something
        eps = 1e-9 + 1e-9 * max(abs(v) for v in r)
        inputs = [(b.x_min, b.y_min, b.x_max, b.y_max)] + [tuple(k) for k in kids]
        for shrunk in (
            Region(r.x_min + eps, r.y_min, r.x_max, r.y_max),
            Region(r.x_min, r.y_min + eps, r.x_max, r.y_max),
            Region(r.x_min, r.y_min, r.x_max - eps, r.y_max),
            Region(r.x_min, r.y_min, r.x_max, r.y_max - eps),
        ):
            assert not all(contains(shrunk, i) for i in inputs)


def compare(a, b):
    """-1, 0 or +1: the order the build's < and > tests see."""
    return (a > b) - (a < b)


class TestSuperKey:
    @pytest.mark.parametrize(
        "a,b,expect",
        [
            ((5.0, 1), (7.0, 0), -1),
            ((5.0, 1), (5.0, 2), -1),
            ((5.0, 2), (5.0, 1), 1),
        ],
    )
    def test_examples(self, a, b, expect):
        assert compare(a, b) == expect

    @given(st.lists(st.tuples(st.floats(-100, 100), st.integers(0, 50)), min_size=3, max_size=3, unique_by=lambda t: t[1]))
    def test_strict_total_order(self, triples):
        keys = [superkey(Box(n, c, c, c, c), AXIS_XMIN) for c, n in triples]
        a, b, c = keys
        # irreflexive / antisymmetric
        for k in keys:
            assert compare(k, k) == 0
        for x, y in [(a, b), (b, c), (a, c)]:
            assert compare(x, y) == -compare(y, x)
            assert compare(x, y) != 0
        # transitive
        ordered = sorted(keys)
        assert compare(ordered[0], ordered[1]) == -1
        assert compare(ordered[1], ordered[2]) == -1
        assert compare(ordered[0], ordered[2]) == -1

    def test_superkey_extraction_per_axis(self):
        b = box(9, 1, 2, 3, 4)
        assert superkey(b, AXIS_XMIN) == (1.0, 9)
        assert superkey(b, AXIS_YMIN) == (2.0, 9)
        assert superkey(b, AXIS_XMAX) == (3.0, 9)
        assert superkey(b, AXIS_YMAX) == (4.0, 9)
        assert type(superkey(b, AXIS_XMIN)) is tuple


class TestValidation:
    def test_validate_box_rejects_inverted(self):
        with pytest.raises(ValueError):
            validate_box(Box(0, 2.0, 0.0, 1.0, 1.0))

    def test_validate_box_rejects_nan(self):
        with pytest.raises(ValueError):
            validate_box(Box(0, float("nan"), 0.0, 1.0, 1.0))

    def test_duplicate_names(self):
        with pytest.raises(DuplicateNameError):
            ensure_unique_names([box(1, 0, 0, 1, 1), box(1, 2, 2, 3, 3)])
