import hashlib
import io
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainfold.equidecompose import (
    BadWidth,
    DegenerateTriangle,
    DissectionChart,
    DissectionError,
    MAX_HALVINGS,
    RectangleForm,
    TargetMismatch,
    WidthMismatch,
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
    apply_motion,
    point,
    polygon,
    polygon_area,
)
from chainfold.figures import write_json
from chainfold.numeric import NumericMotion
from chainfold.overlap import polygon_overlap

from conftest import criterion_8_cases, failed_checks, rational_convex_hull

UNIT_SQUARE = polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def float_area(pts) -> float:
    """Shoelace area of a piece's points, in doubles."""
    return _signed_area2([(float(x), float(y)) for x, y in pts]) / 2


def assert_exact_partition(pieces, motions, region):
    """Pieces are disjoint, and their motion images partition the region."""
    total = sum((polygon_area(p) for p in pieces), Fraction(0))
    assert total == polygon_area(region)
    placed = [[apply_motion(m, v) for v in p] for p, m in zip(pieces, motions)]
    for i in range(len(placed)):
        for j in range(i + 1, len(placed)):
            assert polygon_overlap(placed[i], placed[j]) == 0
    for q in placed:
        assert polygon_overlap(q, region) == polygon_area(q)


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
            pieces, rect, motions = triangle_to_rectangle(polygon([a, b, c]))
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

    @pytest.mark.parametrize("direction", [1, -1])
    def test_strip_cap_in_both_directions(self, direction):
        # a unit square to width 2**-k takes k halvings, to 2**k k doublings
        square = RectangleForm.axis_aligned(1, 1)
        pieces, _, _ = rectangle_to_width(square, Fraction(2) ** (-direction * MAX_HALVINGS))
        assert len(pieces) == 2**MAX_HALVINGS
        start = time.perf_counter()
        for k in (MAX_HALVINGS + 1, 1000):
            with pytest.raises(BadWidth, match=f"2\\*\\*{k} strips"):
                rectangle_to_width(square, Fraction(2) ** (-direction * k))
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("width", [Fraction(1, 10**400), Fraction(10**400)])
    def test_width_outside_float_range(self, width):
        with pytest.raises(DissectionError, match="target width .* outside the float range"):
            rectangle_to_width(RectangleForm.axis_aligned(1, 1), width)

    @pytest.mark.parametrize("scale", [Fraction(1, 10**200), Fraction(10**200)])
    def test_side_outside_float_range(self, scale):
        # the sides fit a float, their squares do not
        with pytest.raises(DissectionError, match="side squared .* outside the float range"):
            rectangle_to_width(RectangleForm.axis_aligned(scale, scale), 1)


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

    @pytest.mark.parametrize("scale", [Fraction(1, 10**400), Fraction(10**400)])
    def test_coordinates_outside_float_range(self, scale):
        tri = polygon([(0, 0), (2 * scale, 0), (0, 2 * scale)])
        with pytest.raises(DissectionError, match="outside the float range"):
            polygon_to_canonical_chart(tri, 1)

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


# sha256 prefixes of the exact piece vertices, as p/q text, of both
# canonical charts of each criterion-8 pair; the float motions are left
# out, since libm may differ across platforms
CHART_DIGESTS = {
    "square2-vs-triangle": "ac0bb39ab804eb74",
    "random-0": "7c7b3b791e51d18d",
    "random-1": "f5ad0612baf65f5e",
    "random-2": "d320d0c62a227155",
    "random-3": "3451e4b6f27570fa",
    "random-4": "6e3b4637989e1da4",
    "random-5": "6405a9128dc54f05",
    "random-6": "aab599cf5ae260f6",
    "random-7": "cf9c643c39c0e3df",
    "random-8": "18c186bd48495bd1",
    "random-9": "2f8cba66ceed618a",
    "random-10": "6417b8fb212b52ea",
    "random-11": "1e88cf153335644b",
    "random-12": "c266dc6adee76271",
    "random-13": "e7d65a3d3928fb8a",
    "random-14": "ef2fb80aa508af43",
    "random-15": "f090a90ef7ae6990",
    "random-16": "c5019379859f81f1",
    "random-17": "9f3f394e8f5b046c",
    "random-18": "b277bf7eee1ad0e8",
    "random-19": "02ed8473a64c6d39",
}


def test_canonical_chart_pieces_match_pinned_digests():
    digests = {}
    for label, pa, pb, width in criterion_8_cases():
        text = "\n".join(
            " ".join(f"{v.x},{v.y}" for v in piece.vertices)
            for p in (pa, pb)
            for piece in polygon_to_canonical_chart(p, width).pieces
        )
        digests[label] = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digests == CHART_DIGESTS


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
            pts = list(piece.vertices)
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

    def test_nan_motion_rejected(self):
        tri = polygon([(0, 0), (4, 0), (0, 2)])
        chart = polygon_to_canonical_chart(tri, 2)
        m = chart.target_motions[0]
        chart.target_motions[0] = NumericMotion(m.angle_rad, float("nan"), m.ty)
        assert not verify_chart(chart, 1e-9).accepted

    def test_empty_pieces_rejected(self):
        chart = DissectionChart([], [], UNIT_SQUARE, UNIT_SQUARE)
        report = verify_chart(chart, 1e-9)
        assert not report.accepted
        assert "SourceArea" in failed_checks(report)

    def test_missing_piece_rejected(self):
        tri = polygon([(0, 0), (4, 0), (0, 2)])
        chart = polygon_to_canonical_chart(tri, 2)
        chart.pieces.pop()
        chart.target_motions.pop()
        assert not verify_chart(chart, 1e-9).accepted


    @staticmethod
    def _mutual_doc():
        a = polygon([(0, 0), (2, 0), (0, 2)])
        b = polygon([(0, 0), (2, 0), (2, 1), (0, 1)])
        mutual = overlay_charts(polygon_to_canonical_chart(a, 1), polygon_to_canonical_chart(b, 1))
        return json.loads(json.dumps(chart_to_json(mutual)))

    def test_piece_without_convex_parts_is_a_failed_check(self):
        # a triangle with a spike that runs up x = 1 and back down through
        # it: not simple, so its ear clip finds no ear in either frame
        doc = self._mutual_doc()
        doc["pieces"][0] = [[2.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 0.0], [0.0, 0.0]]
        report = verify_chart(chart_from_json(doc), 1e-9)
        assert not report.accepted
        split = "piece 0 cannot be cut into convex parts"
        assert ("SourceDisjoint", f"{split}: no diagonal found; polygon is not simple") in report.failures
        assert {check for check, text in report.failures if text.startswith(split)} == {
            "SourceDisjoint", "TargetOverlap"
        }
        assert {"SourceArea", "TargetArea"} <= failed_checks(report)

    def test_repeated_point_is_dropped_before_the_split(self):
        # a real overlay fragment with a repeated and a near-collinear
        # vertex: with the repeat its ear clip finds no ear, and without
        # it the piece is cut into parts and fails as a foreign piece
        doc = self._mutual_doc()
        doc["pieces"][0] = [
            [14.853721676955601, 2.233511419525946], [14.853721676955601, 2.233511419525946],
            [14.853721676955598, 2.2335114195259593], [14.843227578762855, 2.318130653947557],
            [14.838406400604622, 2.3178649197183634],
        ]
        report = verify_chart(chart_from_json(doc), 1e-9)
        assert not report.accepted
        assert not any("cannot be cut" in text for _, text in report.failures)
        assert {"SourceContainment", "SourceArea", "TargetArea"} <= failed_checks(report)


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

    def test_exactness_is_read_from_the_pieces(self):
        assert DissectionChart._fields == (
            "pieces", "target_motions", "source", "target", "sliver_report"
        )
        assert _exact_chart().source_exact
        m = _overlay_chart()
        rebuilt = DissectionChart(m.pieces, m.target_motions, m.source, m.target)
        assert not rebuilt.source_exact
        assert verify_chart(rebuilt, 1e-9).accepted
        encoded = chart_to_json(rebuilt)
        assert encoded == chart_to_json(m)
        assert {type(x) for piece in encoded["pieces"] for v in piece for x in v} == {float}
        # exact pieces that are not SimplePolygons are checked in doubles
        c = _exact_chart()
        as_tuples = DissectionChart([tuple(p) for p in c.pieces], c.target_motions,
                                    c.source, c.target)
        assert not as_tuples.source_exact
        assert verify_chart(as_tuples, 1e-9).accepted


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
    return DissectionChart(pieces, motions, chart.source, chart.target)


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
        assert failed_checks(report) & {"TargetOverlap", "TargetContainment"}

    def test_swapped_motions_of_non_congruent_pieces(self, make_chart):
        chart = make_chart()
        areas = [float_area(pts) for pts in chart.pieces]
        i = 0
        j = next(k for k in range(len(areas)) if abs(areas[k] - areas[i]) > 0.01)
        motions = list(chart.target_motions)
        motions[i], motions[j] = motions[j], motions[i]
        report = verify_chart(_mutated(chart, list(chart.pieces), motions), 1e-9)
        assert not report.accepted
        assert failed_checks(report) & {"TargetOverlap", "TargetContainment"}

    def test_dropped_piece(self, make_chart):
        chart = make_chart()
        k = len(chart.pieces) - 1
        report = verify_chart(
            _mutated(chart, chart.pieces[:k], chart.target_motions[:k]), 1e-9
        )
        assert not report.accepted
        assert {"SourceArea", "TargetArea"} <= failed_checks(report)

    def test_duplicated_piece(self, make_chart):
        chart = make_chart()
        k = len(chart.pieces) // 2
        pieces = list(chart.pieces) + [chart.pieces[k]]
        motions = list(chart.target_motions) + [chart.target_motions[k]]
        report = verify_chart(_mutated(chart, pieces, motions), 1e-9)
        assert not report.accepted
        # two identical boxes tie in the sweep; the pair must still be found
        assert ("SourceDisjoint" in failed_checks(report)
                and any(f"pieces {k} and {len(pieces) - 1} overlap" in d
                        for _, d in report.failures))
        assert "TargetOverlap" in failed_checks(report)


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
    pts = list(p.vertices)
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


class TestChartReadBack:
    def test_congruent_random_7_reads_back_and_verifies(self, criterion_8_pairs):
        # its mutual chart holds a piece with two float vertices 6e-16
        # apart, which exact validation rejects
        pa, pb, width = criterion_8_pairs["random-7"]
        mutual = overlay_charts(
            polygon_to_canonical_chart(_quarter_turned(pa, 2, (-3, 2)), width),
            polygon_to_canonical_chart(_quarter_turned(pb, 0, (-2, 0)), width),
        )
        decoded = chart_from_json(chart_to_json(mutual))
        assert not decoded.source_exact
        assert decoded.pieces == mutual.pieces
        assert verify_chart(decoded, 1e-9).accepted

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 10**400])
    def test_non_finite_coordinate_raises(self, bad):
        encoded = chart_to_json(_overlay_chart())
        encoded["pieces"][0][1][0] = bad
        with pytest.raises(DissectionError):
            chart_from_json(encoded)

    @pytest.mark.parametrize("key, bad", [
        ("tx", float("nan")), ("tx", "nan"), ("tx", float("inf")), ("tx", "1e400"),
        ("tx", 10**400), ("tx", True), ("angle_rad", float("nan")), ("angle_rad", float("inf")),
    ], ids=["nan", "nan-text", "inf", "1e400-text", "int-10**400", "true", "angle-nan", "angle-inf"])
    def test_non_finite_motion_raises(self, key, bad):
        mutual = overlay_charts(
            polygon_to_canonical_chart(polygon([(0, 0), (2, 0), (0, 2)]), 1),
            polygon_to_canonical_chart(polygon([(0, 0), (2, 0), (2, 1), (0, 1)]), 1),
        )
        encoded = chart_to_json(mutual)
        assert len(encoded["pieces"]) == 37
        encoded["target_motions"][0][key] = bad
        with pytest.raises(DissectionError):
            chart_from_json(encoded)

    def test_float_piece_needs_three_vertices(self):
        encoded = chart_to_json(_overlay_chart())
        encoded["pieces"][0] = encoded["pieces"][0][:2]
        with pytest.raises(DissectionError, match="3 or more"):
            chart_from_json(encoded)

    def test_piece_and_motion_counts_must_agree(self):
        encoded = chart_to_json(_overlay_chart())
        del encoded["target_motions"][-1]
        with pytest.raises(DissectionError, match="piece and motion counts differ"):
            chart_from_json(encoded)


def test_chart_json_written_as_json_dumps(criterion_8_pairs):
    """The bg chart JSON of every criterion-8 pair, written by write_json,
    is exactly json.dumps(chart, indent=1)."""
    for label, (pa, pb, width) in criterion_8_pairs.items():
        mutual = overlay_charts(polygon_to_canonical_chart(pa, width),
                                polygon_to_canonical_chart(pb, width))
        obj = chart_to_json(mutual)
        fh = io.StringIO()
        write_json(obj, fh)
        assert fh.getvalue() == json.dumps(obj, indent=1), label
