from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from chainfold.exact_geom import _bboxes_interiors_overlap
from chainfold.overlap import (
    convex_parts,
    covered_by_cells,
    overlap_sum,
    pairs_across,
    pairs_within,
    polygon_overlap,
)

# Box corners on a half-integer grid of a few steps, so lists are full of
# tied lower x values, boxes touching along an edge, and zero-width or
# zero-height boxes.
_steps = st.integers(-3, 3)
_sizes = st.integers(0, 3)
_number_types = st.sampled_from([Fraction, float])


@st.composite
def _box(draw, num):
    x0, y0, w, h = draw(_steps), draw(_steps), draw(_sizes), draw(_sizes)
    if num is None:  # mixed lists: each box picks its own number type
        num = draw(_number_types)
    corners = (Fraction(x0, 2), Fraction(y0, 2), Fraction(x0 + w, 2), Fraction(y0 + h, 2))
    return tuple(num(v) for v in corners)


@st.composite
def _box_list(draw, num):
    return draw(st.lists(_box(num), max_size=14))


_box_lists = st.one_of(_box_list(Fraction), _box_list(float), _box_list(None))


def _brute_within(boxes):
    return [
        (i, j)
        for i in range(len(boxes))
        for j in range(i + 1, len(boxes))
        if _bboxes_interiors_overlap(boxes[i], boxes[j])
    ]


def _brute_across(boxes_a, boxes_b):
    return [
        (i, j)
        for i in range(len(boxes_a))
        for j in range(len(boxes_b))
        if _bboxes_interiors_overlap(boxes_a[i], boxes_b[j])
    ]


class TestBroadPhase:
    @settings(max_examples=300, deadline=None)
    @given(_box_lists)
    def test_within_matches_brute_force(self, boxes):
        assert pairs_within(boxes) == _brute_within(boxes)

    @settings(max_examples=300, deadline=None)
    @given(_box_lists, _box_lists)
    def test_across_matches_brute_force(self, boxes_a, boxes_b):
        assert pairs_across(boxes_a, boxes_b) == _brute_across(boxes_a, boxes_b)

    def test_identical_boxes_pair_once(self):
        box = (Fraction(0), Fraction(0), Fraction(1), Fraction(1))
        assert pairs_within([box, box, box]) == [(0, 1), (0, 2), (1, 2)]
        assert pairs_across([box, box], [box]) == [(0, 0), (1, 0)]

    def test_touching_and_degenerate_boxes_never_pair(self):
        boxes = [(0, 0, 1, 1), (1, 0, 2, 1), (0, 1, 1, 2), (1, 0, 1, 1)]
        assert pairs_within(boxes) == []
        assert pairs_across(boxes[:1], boxes[1:]) == []


SQUARE = [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(0)),
          (Fraction(2), Fraction(2)), (Fraction(0), Fraction(2))]
L_HEXAGON = [(Fraction(x), Fraction(y)) for x, y in
             ((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2))]


class TestPartsAndNarrowPhase:
    def test_convex_polygon_is_its_own_part(self):
        parts = convex_parts(SQUARE)
        assert parts == [(SQUARE, (0, 0, 2, 2))]

    def test_non_convex_polygon_splits_into_triangles(self):
        parts = convex_parts(L_HEXAGON)
        assert len(parts) == 4
        assert all(len(part) == 3 for part, _ in parts)

    def test_exact_overlap_stays_rational(self):
        shifted = [(x + Fraction(1, 3), y + 1) for x, y in L_HEXAGON]
        area = polygon_overlap(L_HEXAGON, shifted)
        assert isinstance(area, Fraction)
        assert area == Fraction(2, 3)  # [1/3, 1] x [1, 2]
        assert overlap_sum(convex_parts(L_HEXAGON), convex_parts(shifted)) == area

    def test_float_overlap(self):
        a = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        b = [(0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5)]
        assert polygon_overlap(a, b) == 0.25
        assert polygon_overlap(a, [(1.0, 0.0), (2.0, 0.0), (2.0, 1.0)]) == 0

    def test_cell_coverage_counts_only_target_cells(self):
        # the triangle spans cells (0, 0), (1, 0) and (0, 1); (1, 0) is missing
        tri = [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(0)), (Fraction(0), Fraction(2))]
        parts = convex_parts(tri)
        cells = {(0, 0), (0, 1), (5, 5)}
        covered = covered_by_cells(parts, (0, 0, 2, 2), cells, Fraction)
        assert covered == Fraction(1) + Fraction(1, 2)
        assert covered_by_cells(parts, (0, 0, 2, 2), cells | {(1, 0)}, Fraction) == 2
