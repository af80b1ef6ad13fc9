import pytest

from boxtree.geometry import Box
from boxtree.testdata import (
    BOXES_PER_SQUARE,
    SquareGridSpec,
    brute_force_intersections,
    generate_test_data,
    verify_search_results,
)


class TestGenerate:
    def test_one_square_sixteen_boxes_nine_intersecting(self):
        boxes = generate_test_data(SquareGridSpec(1))
        assert len(boxes) == 16
        oracle = brute_force_intersections(boxes)
        assert len(oracle) == 9

    def test_four_squares_no_cross_square_contact(self):
        boxes = generate_test_data(SquareGridSpec(4))
        assert len(boxes) == 64
        oracle = brute_force_intersections(boxes)
        assert len(oracle) == 36
        for name, partners in oracle.items():
            assert all(name // 16 == p // 16 for p in partners)

    def test_translation_preserves_structure(self):
        boxes = generate_test_data(SquareGridSpec(2))
        first = brute_force_intersections(boxes[:16])
        second = brute_force_intersections(boxes[16:])
        assert second == {
            name + 16: [p + 16 for p in partners] for name, partners in first.items()
        }

    def test_names_deterministic_and_unique(self):
        a = generate_test_data(SquareGridSpec(3))
        b = generate_test_data(SquareGridSpec(3))
        assert a == b
        assert [box.name for box in a] == list(range(48))

    def test_boxes_strictly_inside_squares(self):
        spec = SquareGridSpec(2, side=50.0)
        for box in generate_test_data(spec):
            square = box.name // BOXES_PER_SQUARE
            assert square * spec.side < box.x_min
            assert box.x_max < (square + 1) * spec.side
            assert 0 < box.y_min and box.y_max < spec.side

    def test_rejects_zero_squares(self):
        with pytest.raises(ValueError):
            generate_test_data(SquareGridSpec(0))

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            SquareGridSpec(1, side=0.0)

    @pytest.mark.parametrize("side", [float("nan"), float("inf")])
    def test_rejects_non_finite_side(self, side):
        with pytest.raises(ValueError, match="finite"):
            SquareGridSpec(1, side=side)


class TestBruteForce:
    def test_two_disjoint(self):
        boxes = [Box(0, 0, 0, 1, 1), Box(1, 5, 5, 6, 6)]
        assert brute_force_intersections(boxes) == {}

    def test_two_overlapping(self):
        boxes = [Box(0, 0, 0, 2, 2), Box(1, 1, 1, 3, 3)]
        assert brute_force_intersections(boxes) == {0: [1], 1: [0]}

    def test_nested_boxes_all_mutual(self):
        boxes = [Box(0, 2, 2, 3, 3), Box(1, 1, 1, 4, 4), Box(2, 0, 0, 5, 5)]
        assert brute_force_intersections(boxes) == {0: [1, 2], 1: [0, 2], 2: [0, 1]}


class TestVerify:
    def test_correct_results_pass(self):
        boxes = generate_test_data(SquareGridSpec(1))
        assert verify_search_results(brute_force_intersections(boxes), 1)

    def test_missing_pair_fails(self):
        boxes = generate_test_data(SquareGridSpec(1))
        oracle = brute_force_intersections(boxes)
        name, partners = next(iter(oracle.items()))
        tampered = dict(oracle)
        tampered[name] = partners[:-1]
        assert not verify_search_results(tampered, 1)

    def test_match_moved_to_another_square_fails(self):
        boxes = generate_test_data(SquareGridSpec(2))
        oracle = brute_force_intersections(boxes)
        assert verify_search_results(oracle, 2)
        tampered = dict(oracle)
        tampered[0] = [p + 16 for p in oracle[0]]  # same layout, square 1
        assert not verify_search_results(tampered, 2)

    def test_wrong_count_fails(self):
        boxes = generate_test_data(SquareGridSpec(1))
        oracle = brute_force_intersections(boxes)
        oracle.pop(next(iter(oracle)))
        assert not verify_search_results(oracle, 1)

    def test_empty_squares_vacuously_true(self):
        assert verify_search_results({}, 0)
        assert not verify_search_results({1: [2]}, 0)
