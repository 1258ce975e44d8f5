import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainfold.equidecompose import (
    BadWidth,
    DegenerateTriangle,
    DissectionChart,
    RectangleForm,
    TargetMismatch,
    WidthMismatch,
    _piece_points,
    chart_from_json,
    chart_to_json,
    overlay_charts,
    polygon_to_canonical_chart,
    rectangle_to_width,
    stack_rectangles,
    triangle_to_rectangle,
    verify_chart,
)
from chainfold.exact_geom import (
    IDENTITY_MOTION,
    SimplePolygon,
    _orient,
    _signed_area2,
    apply_motion_polygon,
    interiors_overlap,
    overlap_area,
    point,
    polygon,
    polygon_area,
)
from chainfold.numeric import NumericMotion

from conftest import criterion_8_cases, rational_convex_hull

UNIT_SQUARE = polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def float_area(pts) -> float:
    """Shoelace area of a piece's points, in doubles."""
    return _signed_area2([(float(x), float(y)) for x, y in pts]) / 2


def assert_exact_partition(pieces, motions, region):
    """Pieces are disjoint, and their motion images partition the region."""
    total = sum((polygon_area(p) for p in pieces), Fraction(0))
    assert total == polygon_area(region)
    placed = [apply_motion_polygon(m, p) for p, m in zip(pieces, motions)]
    for i in range(len(placed)):
        for j in range(i + 1, len(placed)):
            assert not interiors_overlap(placed[i], placed[j])
    for q in placed:
        assert overlap_area(q, region) == polygon_area(q)


class TestTriangleToRectangle:
    def test_axis_parallel_base(self):
        tri = polygon([(0, 0), (2, 0), (1, 2)])
        pieces, rect, motions = triangle_to_rectangle(tri)
        assert len(pieces) == 3
        # the longest sides tie at squared length 5; lowest edge index wins
        assert rect.corners[0] == point(2, 0)
        assert rect.corners[1] == point(1, 2)
        assert_exact_partition(pieces, [IDENTITY_MOTION] * len(pieces), tri)
        assert_exact_partition(pieces, motions, rect.polygon())

    def test_oblique_rectangle_on_hypotenuse(self):
        tri = polygon([(0, 0), (2, 0), (0, 2)])
        pieces, rect, motions = triangle_to_rectangle(tri)
        u, v = rect.u, rect.v
        assert u.dot(v) == 0  # exact perpendicularity
        assert rect.area() == 2
        assert rect.corners[0] == point(2, 0)  # base is the hypotenuse
        assert_exact_partition(pieces, motions, rect.polygon())

    def test_right_triangle_bases_on_hypotenuse(self):
        # with a longest side as base the altitude foot is strictly
        # interior, so a right triangle still yields all three pieces
        tri = polygon([(0, 0), (1, 0), (0, 2)])
        pieces, rect, motions = triangle_to_rectangle(tri)
        assert len(pieces) == 3
        assert rect.corners[0] == point(1, 0)
        assert_exact_partition(pieces, motions, rect.polygon())

    def test_degenerate(self):
        with pytest.raises(DegenerateTriangle):
            triangle_to_rectangle([point(0, 0), point(1, 1), point(2, 2)])

    def test_longest_side_foot_in_closed_base(self):
        # taking a longest side as base always puts the altitude foot
        # inside the closed base segment
        rng = random.Random(11)
        for _ in range(60):
            pts = [
                point(rng.randrange(-8, 9), rng.randrange(-8, 9)) for _ in range(3)
            ]
            a, b, c = pts
            area2 = (b - a).cross(c - a)
            if area2 == 0:
                continue
            if area2 < 0:
                a, b = b, a
            side_sq = [(b - a).norm_sq(), (c - b).norm_sq(), (a - c).norm_sq()]
            base = max(range(3), key=lambda i: side_sq[i])
            pa, pb, pc = [(a, b, c), (b, c, a), (c, a, b)][base]
            t = (pc - pa).dot(pb - pa) / side_sq[base]
            assert 0 <= t <= 1
            pieces, rect, motions = triangle_to_rectangle(polygon(
                [v.as_tuple() for v in (a, b, c)]
            ))
            assert_exact_partition(pieces, motions, rect.polygon())


class TestRectangleToWidth:
    def test_one_doubling(self):
        pieces, motions, out = rectangle_to_width(RectangleForm.axis_aligned(1, 4), 2)
        assert len(pieces) == 2
        assert out.corners[2] == point(2, 2)
        report = verify_chart(
            DissectionChart(pieces, motions,
                            polygon([(0, 0), (1, 0), (1, 4), (0, 4)]), out.polygon()),
            1e-9,
        )
        assert report.accepted

    def test_identity(self):
        pieces, motions, out = rectangle_to_width(RectangleForm.axis_aligned(2, 2), 2)
        assert len(pieces) == 1
        assert motions[0] == NumericMotion(0.0, 0.0, 0.0)

    def test_one_by_three_to_width_two(self):
        pieces, motions, out = rectangle_to_width(RectangleForm.axis_aligned(1, 3), 2)
        assert len(pieces) <= 4
        chart = DissectionChart(
            pieces, motions,
            polygon([(0, 0), (1, 0), (1, 3), (0, 3)]), out.polygon(),
        )
        assert out.corners[2] == point(2, Fraction(3, 2))
        assert verify_chart(chart, 1e-9).accepted

    def test_slide_case_verifies(self):
        # 3 x 1 to width 2: ratio 3/2, one slide, no halvings
        pieces, motions, out = rectangle_to_width(RectangleForm.axis_aligned(3, 1), 2)
        chart = DissectionChart(
            pieces, motions,
            polygon([(0, 0), (3, 0), (3, 1), (0, 1)]), out.polygon(),
        )
        assert verify_chart(chart, 1e-9).accepted
        total = sum((polygon_area(p) for p in pieces), Fraction(0))
        assert total == 3  # cuts are exact rational

    def test_oblique_rectangle(self):
        # rational corners, irrational side lengths
        rect = RectangleForm.from_corners(
            (point(0, 0), point(2, 1), point(1, 3), point(-1, 2))
        )
        pieces, motions, out = rectangle_to_width(rect, 1)
        chart = DissectionChart(
            pieces, motions,
            rect.polygon(), out.polygon(),
        )
        assert verify_chart(chart, 1e-9).accepted
        total = sum((polygon_area(p) for p in pieces), Fraction(0))
        assert total == rect.area()

    def test_bad_width(self):
        with pytest.raises(BadWidth):
            rectangle_to_width(RectangleForm.axis_aligned(1, 1), 0)


class TestStackRectangles:
    def test_two_rectangles(self):
        motions, total = stack_rectangles(
            [RectangleForm.axis_aligned(2, 1), RectangleForm.axis_aligned(2, 3)]
        )
        assert motions[0] == NumericMotion(0.0, 0.0, 0.0)
        assert motions[1] == NumericMotion(0.0, 0.0, 1.0)
        assert total.corners[2] == point(2, 4)

    def test_single(self):
        motions, total = stack_rectangles([RectangleForm.axis_aligned(2, 5)])
        assert motions == [NumericMotion(0.0, 0.0, 0.0)]
        assert total.corners[2] == point(2, 5)

    def test_mixed_widths(self):
        with pytest.raises(WidthMismatch):
            stack_rectangles(
                [RectangleForm.axis_aligned(2, 1), RectangleForm.axis_aligned(3, 1)]
            )


class TestCanonicalChart:
    def test_unit_square_identity_like(self):
        chart = polygon_to_canonical_chart(UNIT_SQUARE, 1)
        assert len(chart.pieces) == 1
        assert verify_chart(chart, 1e-9).accepted

    def test_triangle_to_2x2(self):
        tri = polygon([(0, 0), (4, 0), (0, 2)])
        chart = polygon_to_canonical_chart(tri, 2)
        assert chart.target == polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert verify_chart(chart, 1e-9).accepted
        total = sum((polygon_area(p) for p in chart.pieces), Fraction(0))
        assert total == 4  # source side is exact

    def test_l_hexagon(self):
        hexagon = polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        chart = polygon_to_canonical_chart(hexagon, 1)
        assert verify_chart(chart, 1e-9).accepted

    def test_stage_conservation(self):
        tri = polygon([(0, 0), (5, 0), (2, 3)])
        pieces, rect, motions = triangle_to_rectangle(tri)
        assert rect.area() == polygon_area(tri)
        norm_pieces, _, out = rectangle_to_width(rect, 2)
        assert out.corners[2].x == 2
        total = sum((polygon_area(p) for p in norm_pieces), Fraction(0))
        assert total == rect.area()


_coords = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 3]))
_lengths = st.builds(Fraction, st.integers(1, 8), st.sampled_from([1, 2, 3]))


@st.composite
def _rational_simple_polygons(draw):
    """Convex hulls of rational points, or L-shaped hexagons."""
    if draw(st.booleans()):
        points = draw(st.lists(st.tuples(_coords, _coords), min_size=3, max_size=7))
        try:
            return rational_convex_hull(points)
        except ValueError:
            assume(False)
    a, d = draw(_lengths), draw(_lengths)
    c = a * draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)]))
    b = d * draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)]))
    x, y = draw(_coords), draw(_coords)
    return polygon([(x, y), (x + a, y), (x + a, y + b), (x + c, y + b), (x + c, y + d), (x, y + d)])


class TestCanonicalChartProperties:
    """Canonical-chart pieces skip SimplePolygon validation; they must be
    exactly what validation would accept."""

    @settings(max_examples=40)
    @given(_rational_simple_polygons(), st.builds(Fraction, st.integers(1, 9), st.integers(1, 3)))
    def test_pieces_are_strictly_convex_and_partition_the_source(self, p, w):
        chart = polygon_to_canonical_chart(p, w)
        assert verify_chart(chart, 1e-9).accepted
        assert sum((polygon_area(q) for q in chart.pieces), Fraction(0)) == polygon_area(p)
        for piece in chart.pieces:
            pts = piece.as_tuples()
            n = len(pts)
            assert n >= 3 and len(set(pts)) == n
            # every turn strictly left: ccw, convex, no collinear vertex
            assert all(_orient(pts[i - 1], pts[i], pts[(i + 1) % n]) > 0 for i in range(n))
            assert SimplePolygon(piece.vertices).vertices == piece.vertices


class TestOverlay:
    def _half_charts(self):
        left = polygon([(0, 0), (Fraction(1, 2), 0), (Fraction(1, 2), 1), (0, 1)])
        right = polygon([(Fraction(1, 2), 0), (1, 0), (1, 1), (Fraction(1, 2), 1)])
        bottom = polygon([(0, 0), (1, 0), (1, Fraction(1, 2)), (0, Fraction(1, 2))])
        top = polygon([(0, Fraction(1, 2)), (1, Fraction(1, 2)), (1, 1), (0, 1)])
        zero = NumericMotion(0.0, 0.0, 0.0)
        ca = DissectionChart([left, right], [zero, zero],
                             UNIT_SQUARE, UNIT_SQUARE)
        cb = DissectionChart([bottom, top], [zero, zero],
                             UNIT_SQUARE, UNIT_SQUARE)
        return ca, cb

    def test_vertical_vs_horizontal_halves(self):
        ca, cb = self._half_charts()
        mutual = overlay_charts(ca, cb)
        assert len(mutual.pieces) == 4
        for p in mutual.pieces:
            assert abs(float_area(p) - 0.25) < 1e-12
        assert verify_chart(mutual, 1e-9).accepted

    def test_identity_overlay_reproduces_pieces(self):
        ca, _ = self._half_charts()
        mutual = overlay_charts(ca, ca)
        assert len(mutual.pieces) == 2
        assert abs(sum(float_area(p) for p in mutual.pieces) - 1.0) < 1e-9

    def test_square_vs_triangle_end_to_end(self):
        square = polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        tri = polygon([(0, 0), (4, 0), (0, 2)])
        ca = polygon_to_canonical_chart(square, 2)
        cb = polygon_to_canonical_chart(tri, 2)
        mutual = overlay_charts(ca, cb)
        assert len(mutual.pieces) <= len(ca.pieces) * len(cb.pieces) * 4
        report = verify_chart(mutual, 1e-9)
        assert report.accepted
        assert mutual.source == square
        assert mutual.target == tri

    def test_target_mismatch(self):
        ca, _ = self._half_charts()
        other = polygon_to_canonical_chart(polygon([(0, 0), (2, 0), (2, 2), (0, 2)]), 2)
        with pytest.raises(TargetMismatch):
            overlay_charts(ca, other)


class TestVerifyChart:
    def test_pipeline_chart_accepted(self):
        hexagon = polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        chart = polygon_to_canonical_chart(hexagon, 1)
        assert verify_chart(chart, 1e-9).accepted

    def test_perturbed_motion_rejected(self):
        tri = polygon([(0, 0), (4, 0), (0, 2)])
        chart = polygon_to_canonical_chart(tri, 2)
        m = chart.target_motions[0]
        chart.target_motions[0] = NumericMotion(m.angle_rad, m.tx + 1e-3, m.ty)
        assert not verify_chart(chart, 1e-9).accepted

    def test_empty_pieces_rejected(self):
        chart = DissectionChart([], [], UNIT_SQUARE, UNIT_SQUARE)
        report = verify_chart(chart, 1e-9)
        assert not report.accepted
        assert "SourceArea" in report.failed_checks()

    def test_missing_piece_rejected(self):
        tri = polygon([(0, 0), (4, 0), (0, 2)])
        chart = polygon_to_canonical_chart(tri, 2)
        chart.pieces.pop()
        chart.target_motions.pop()
        assert not verify_chart(chart, 1e-9).accepted


class TestChartJson:
    def test_round_trip_exact(self):
        tri = polygon([(0, 0), (4, 0), (0, 2)])
        chart = polygon_to_canonical_chart(tri, 2)
        decoded = chart_from_json(chart_to_json(chart))
        assert decoded.source_exact
        assert decoded.pieces == chart.pieces
        assert decoded.target == chart.target
        assert verify_chart(decoded, 1e-9).accepted

    def test_round_trip_float(self):
        square = polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        tri = polygon([(0, 0), (4, 0), (0, 2)])
        mutual = overlay_charts(
            polygon_to_canonical_chart(square, 2), polygon_to_canonical_chart(tri, 2)
        )
        decoded = chart_from_json(chart_to_json(mutual))
        assert not decoded.source_exact
        assert verify_chart(decoded, 1e-9).accepted


def _exact_chart():
    pentagon = polygon([(0, 0), (3, 0), (4, 2), (2, 4), (0, 3)])
    return polygon_to_canonical_chart(pentagon, 2)


def _overlay_chart():
    square = polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
    l_hexagon = polygon([(0, 0), (3, 0), (3, 1), (1, 1), (1, 2), (0, 2)])
    return overlay_charts(
        polygon_to_canonical_chart(square, 1), polygon_to_canonical_chart(l_hexagon, 1)
    )


def _mutated(chart, pieces, motions):
    return DissectionChart(
        pieces, motions, chart.source, chart.target,
        chart.source_exact,
    )


@pytest.mark.parametrize("make_chart", [_exact_chart, _overlay_chart], ids=["exact", "overlay"])
class TestChartMutationRejection:
    """Chart analogue of acceptance criterion 5: every mutation is rejected,
    so a broad phase that skipped a pair would show here."""

    def test_unmutated_chart_accepted(self, make_chart):
        chart = make_chart()
        assert len(chart.pieces) >= 4
        assert verify_chart(chart, 1e-9).accepted

    def test_perturbed_target_motion(self, make_chart):
        chart = make_chart()
        motions = list(chart.target_motions)
        k = len(motions) // 2
        m = motions[k]
        motions[k] = NumericMotion(m.angle_rad + 1e-3, m.tx, m.ty - 1e-3)
        report = verify_chart(_mutated(chart, list(chart.pieces), motions), 1e-9)
        assert not report.accepted
        assert report.failed_checks() & {"TargetOverlap", "TargetContainment"}

    def test_swapped_motions_of_non_congruent_pieces(self, make_chart):
        chart = make_chart()
        areas = [float_area(pts) for pts in _piece_points(chart)]
        i = 0
        j = next(k for k in range(len(areas)) if abs(areas[k] - areas[i]) > 0.01)
        motions = list(chart.target_motions)
        motions[i], motions[j] = motions[j], motions[i]
        report = verify_chart(_mutated(chart, list(chart.pieces), motions), 1e-9)
        assert not report.accepted
        assert report.failed_checks() & {"TargetOverlap", "TargetContainment"}

    def test_dropped_piece(self, make_chart):
        chart = make_chart()
        k = len(chart.pieces) - 1
        report = verify_chart(
            _mutated(chart, chart.pieces[:k], chart.target_motions[:k]), 1e-9
        )
        assert not report.accepted
        assert {"SourceArea", "TargetArea"} <= report.failed_checks()

    def test_duplicated_piece(self, make_chart):
        chart = make_chart()
        k = len(chart.pieces) // 2
        pieces = list(chart.pieces) + [chart.pieces[k]]
        motions = list(chart.target_motions) + [chart.target_motions[k]]
        report = verify_chart(_mutated(chart, pieces, motions), 1e-9)
        assert not report.accepted
        # two identical boxes tie in the sweep; the pair must still be found
        assert ("SourceDisjoint" in report.failed_checks()
                and any(f"pieces {k} and {len(pieces) - 1} overlap" in d
                        for _, d in report.failures))
        assert "TargetOverlap" in report.failed_checks()


class TestOverlayDrops:
    def test_slivers_reported_with_positive_area(self):
        chart = _overlay_chart()
        assert all(area > 0 for _, _, area in chart.sliver_report)

    # Congruent copies of criterion-8 pairs.  The float inverse map of one
    # overlay fragment lands two of its vertices about 6e-16 apart; the
    # overlay keeps such a fragment as float points, so the chart keeps
    # its whole area.
    RANDOM_7_A = [(0, 0), (2, 0), (2, 3), (0, 3)]
    RANDOM_7_B = [("12/67", 0), ("48/67", 1), ("72/67", 5), ("36/67", 9), ("12/67", 11)]
    RANDOM_8_A = [(0, 4), (3, 2), (9, 0), (10, 1), (11, 11), (11, 12), (5, 12)]
    RANDOM_8_B = [(0, 0), ("543/10", 0), ("543/10", 1), ("181/10", 1), ("181/10", 3), (0, 3)]

    @staticmethod
    def _moved(coords, half_turn, dx, dy):
        sign = -1 if half_turn else 1
        return polygon([(sign * Fraction(x) + dx, sign * Fraction(y) + dy) for x, y in coords])

    def _mutual(self, a, b):
        return overlay_charts(polygon_to_canonical_chart(a, 1), polygon_to_canonical_chart(b, 1))

    def test_congruent_random_7_keeps_every_fragment(self):
        # the fragment of area 1.85e-4 that SimplePolygon validation used to drop
        mutual = self._mutual(
            self._moved(self.RANDOM_7_A, True, -3, 2), self._moved(self.RANDOM_7_B, False, -2, 0)
        )
        assert abs(sum(float_area(p) for p in mutual.pieces) - 6) <= 6e-12

    def test_congruent_random_7_verifies(self):
        mutual = self._mutual(
            self._moved(self.RANDOM_7_A, True, -3, 2), self._moved(self.RANDOM_7_B, False, -2, 0)
        )
        assert verify_chart(mutual, 1e-9).accepted

    def test_congruent_random_8_verifies(self):
        mutual = self._mutual(
            self._moved(self.RANDOM_8_A, True, 1, 7), self._moved(self.RANDOM_8_B, True, -3, 7)
        )
        assert verify_chart(mutual, 1e-9).accepted


def _quarter_turned(p, turns, shift):
    """p turned by (x, y) -> (-y, x) `turns` times, then shifted."""
    pts = p.as_tuples()
    for _ in range(turns):
        pts = [(-y, x) for x, y in pts]
    return polygon([(x + shift[0], y + shift[1]) for x, y in pts])


# (pair, quarter turns of a, shift of a, quarter turns of b, shift of b):
# the congruent copies of criterion-8 pairs that a sweep of all 16 turn
# combinations per pair, shifts drawn from [-4, 4]^2 by random.Random(5),
# found rejected by their own chart verification while overlay fragments
# were re-validated exactly.
CONGRUENT_COPIES = [
    ("random-0", 0, (-4, -2), 3, (-1, -3)),
    ("random-3", 0, (1, 0), 0, (1, -2)),
    ("random-8", 2, (4, -3), 3, (-2, 0)),
    ("random-15", 0, (-4, 3), 1, (1, 3)),
    ("random-15", 3, (2, -1), 1, (4, -1)),
    ("random-16", 3, (-3, -4), 3, (3, -4)),
    ("random-17", 2, (3, 2), 0, (-2, -1)),
    ("random-18", 0, (4, -1), 0, (-2, 2)),
    ("random-18", 3, (4, 0), 2, (-3, 4)),
    ("random-19", 1, (1, 4), 2, (-3, -2)),
]


@pytest.fixture(scope="module")
def criterion_8_pairs():
    return {label: (pa, pb, width) for label, pa, pb, width in criterion_8_cases()}


@pytest.mark.parametrize(
    "label, turns_a, shift_a, turns_b, shift_b", CONGRUENT_COPIES,
    ids=[f"{c[0]}:a{c[1]}{c[2][0]:+d}{c[2][1]:+d}:b{c[3]}{c[4][0]:+d}{c[4][1]:+d}"
         for c in CONGRUENT_COPIES],
)
def test_congruent_copy_verifies(criterion_8_pairs, label, turns_a, shift_a, turns_b, shift_b):
    pa, pb, width = criterion_8_pairs[label]
    mutual = overlay_charts(
        polygon_to_canonical_chart(_quarter_turned(pa, turns_a, shift_a), width),
        polygon_to_canonical_chart(_quarter_turned(pb, turns_b, shift_b), width),
    )
    report = verify_chart(mutual, 1e-9)
    assert report.accepted, report.failures[:4]


class TestChartTolerance:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_bad_tolerance_raises(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            verify_chart(_overlay_chart(), tol)

    def test_zero_tolerance_is_allowed(self):
        assert verify_chart(polygon_to_canonical_chart(UNIT_SQUARE, 1), 0.0).accepted
