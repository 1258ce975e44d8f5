import hashlib
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainfold import equidecompose
from chainfold.cli import main
from chainfold.equidecompose import (
    BadWidth,
    DegenerateTriangle,
    DissectionChart,
    DissectionError,
    MAX_HALVINGS,
    MAX_TRAPEZOID_PIECES,
    RectangleForm,
    TargetMismatch,
    chart_from_json,
    chart_to_json,
    overlay_charts,
    polygon_to_canonical_chart,
    rectangle_to_width,
    triangle_to_rectangle,
    verify_chart,
)
from chainfold.exact_geom import (
    IDENTITY_MOTION,
    SimplePolygon,
    _clip_homogeneous,
    _dedupe_collinear,
    _orient,
    _signed_area2,
    apply_motion,
    point,
    point_to_json,
    polygon,
    polygon_area,
)
from chainfold.numeric import NumericMotion
from chainfold.overlap import polygon_overlap
from chainfold.polyomino import random_polyomino
from chainfold.render import render_chart

from conftest import (
    HolePresent, big_star, boundary_polygon, criterion_8_cases, failed_checks, rational_convex_hull,
    scale_x, star_pair,
)

UNIT_SQUARE = polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
L_HEXAGON = polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])


def toothed_square(e):
    """The unit square with an e x e square tooth halfway up its right side."""
    lo, hi = Fraction(1, 2), Fraction(1, 2) + e
    return polygon([(0, 0), (1, 0), (1, lo), (1 + e, lo), (1 + e, hi), (1, hi), (1, 1), (0, 1)])


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


def assert_exact_chart(chart, p):
    """verify_chart accepts a canonical chart of p, its pieces sum to p's
    area exactly, and each piece is what SimplePolygon validation, which
    the chart's pieces skip, would accept."""
    assert verify_chart(chart, 1e-9).accepted
    assert sum((polygon_area(q) for q in chart.pieces), Fraction(0)) == polygon_area(p)
    for piece in chart.pieces:
        pts = list(piece.vertices)
        n = len(pts)
        assert n >= 3 and len(set(pts)) == n
        # every turn strictly left: ccw, convex, no collinear vertex
        assert all(_orient(pts[i - 1], pts[i], pts[(i + 1) % n]) > 0 for i in range(n))
        assert SimplePolygon(piece.vertices).vertices == piece.vertices


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

    def test_exact_fit_with_a_subnormal_side_squared_is_one_piece(self):
        # the side's square, 9e-314, is subnormal, and the float side is
        # 9.4e-12 relative off: it would snap the width ratio below 1 and
        # slide, had the fit not been tested exactly
        side = Fraction(3, 10**157)
        rect = RectangleForm.axis_aligned(side, 3 * side)
        pieces, motions, _ = rectangle_to_width(rect, side)
        assert pieces == [rect.polygon()]
        assert motions == [NumericMotion(0.0, 0.0, 0.0)]

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


class TestDirectChart:
    """A polygon that already is the target rectangle, moved, is one
    trapezoid of the identity rotation, so its own one piece, moved to
    the origin; any other quadrilateral is cut."""

    @pytest.mark.parametrize("x, y", [
        (0, 0), (3, 4), (Fraction(1, 3), Fraction(5, 7)), (-5, -2), (Fraction(-7, 2), Fraction(-1, 9)),
    ])
    def test_width_w_rectangle_is_moved_whole(self, x, y):
        p = polygon([(x, y), (x + 2, y), (x + 2, y + 3), (x, y + 3)])
        chart = polygon_to_canonical_chart(p, 2)
        assert chart.pieces == [p]
        assert chart.target_motions == [NumericMotion(0.0, -float(x), -float(y))]
        assert verify_chart(chart).accepted

    @pytest.mark.parametrize("coords", [
        [(0, 0), (2, 0), (2, 1), (1, 1)],
        [(0, 0), (1, 0), (2, 1), (1, 1)],
        [(1, 0), (2, 1), (1, 2), (0, 1)],
        [(0, 0), (1, 0), (1, 4), (0, 4)],
        [(0, 0), (4, 0), (4, 1), (0, 1)],
    ], ids=["trapezoid", "parallelogram", "45-degree-square", "narrower", "wider"])
    def test_other_quadrilateral_is_cut(self, coords):
        # each but the last two has a box 2 wide; only the area tells them
        # from the rectangle that fills it
        p = polygon(coords)
        chart = polygon_to_canonical_chart(p, 2)
        assert len(chart.pieces) > 1
        assert verify_chart(chart).accepted


def _corners(trapezoid, scale) -> tuple:
    """A trapezoid of _chosen_rotation as (x0, x1, lower y at x0, lower y
    at x1, upper y at x0, upper y at x1), in units of 1."""
    x0, x1, *sides = trapezoid
    return Fraction(x0, scale), Fraction(x1, scale), *(
        Fraction(ay * (bx - x) + by * (x - ax), (bx - ax) * scale)
        for ax, ay, bx, by in sides for x in (x0, x1)
    )


class TestRectilinearChart:
    """Every polygon is turned by one rational rotation and swept into
    trapezoids with vertical parallel sides; a polygon whose sides are
    all horizontal or vertical keeps the identity or a quarter turn, and
    its trapezoids are rectangles."""

    def test_rectangle_grows_past_the_end_of_another_arm(self):
        # a C whose lower arm ends at x = 3: the upper arm's rectangle
        # continues from the slab [1, 3] into [3, 4]
        c = polygon([(0, 0), (3, 0), (3, 1), (1, 1), (1, 2), (4, 2), (4, 3), (0, 3)])
        assert equidecompose._chosen_rotation(c, 1)[0] == 0
        chart = polygon_to_canonical_chart(c, 1)
        assert sorted(polygon_area(piece) for piece in chart.pieces) == [2, 3, 3]
        assert_exact_chart(chart, c)

    def test_nudged_vertex_is_cut_into_trapezoids(self):
        # a quarter turn makes the nudged side the right side of a
        # trapezoid over [1, 2], beside the 1 x 2 rectangle over [0, 1];
        # the identity would cut three trapezoids into 5 pieces, not 3
        nudged = polygon([(0, 0), (2, 0), (2, 1), (1, 1), (Fraction(11, 10), 2), (0, 2)])
        t, scale, planned = equidecompose._chosen_rotation(nudged, 1)
        assert t == -1
        assert [_corners(trapezoid, scale) for trapezoid, _ in planned] == [
            (0, 1, -2, -2, 0, 0), (1, 2, -1, Fraction(-11, 10), 0, 0),
        ]
        chart = polygon_to_canonical_chart(nudged, 1)
        assert len(chart.pieces) == 3
        assert_exact_chart(chart, nudged)

    @settings(max_examples=40)
    @given(
        st.integers(2, 12), st.integers(0, 10**6),
        st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
        st.builds(Fraction, st.integers(1, 9), st.integers(1, 4)),
    )
    def test_scaled_polyomino_outlines(self, n, seed, k, w):
        try:
            outline = boundary_polygon(random_polyomino(n, seed))
        except HolePresent:
            assume(False)
        p = scale_x(outline, k)
        assert_exact_chart(polygon_to_canonical_chart(p, w), p)

    @pytest.mark.parametrize("e", [Fraction(1, 1200), Fraction(1, 2000)], ids=["1/1200", "1/2000"])
    def test_tooth_past_the_cap_is_turned(self, e):
        # at width 1 the tooth's e x e square needs 2**11 strips, one over
        # the cap; a quarter turn makes the tooth a slab of width e and
        # height 1 + e, which needs none
        p = toothed_square(e)
        assert equidecompose._chosen_rotation(p, 1)[0] == -1
        chart = polygon_to_canonical_chart(p, 1)
        assert len(chart.pieces) == 5
        assert chart.source_exact
        assert_exact_chart(chart, p)


class TestRotationChoice:
    """The rotation is chosen on ints and Fractions alone, and charts do not
    depend on where the polygon sits or on its scale."""

    # the float functions of the C library; the integer ones stay
    LIBM = sorted(set(dir(math)) - {"ceil", "floor", "gcd", "isqrt", "lcm"} - set(dir(int)))

    def test_no_libm_function_is_called(self, monkeypatch):
        polygons = [(p, w) for _, pa, pb, w in criterion_8_cases() for p in (pa, pb)]
        polygons.append((SKINNY_TRIANGLE, 1))
        expected = [equidecompose._chosen_rotation(p, w) for p, w in polygons]

        def libm(*args):
            raise AssertionError("a libm function was called")

        for name in self.LIBM:
            if callable(getattr(math, name)):
                monkeypatch.setattr(math, name, libm)
        assert [equidecompose._chosen_rotation(p, w) for p, w in polygons] == expected

    def test_charts_move_with_a_translation_and_scale_with_a_scaling(self, criterion_8_pairs):
        shift, k = point(Fraction(1, 3), Fraction(-2, 7)), Fraction(5, 3)
        for label, (pa, pb, width) in criterion_8_pairs.items():
            for p in (pa, pb):
                pieces = polygon_to_canonical_chart(p, width).pieces
                moved = polygon_to_canonical_chart(polygon([v + shift for v in p]), width).pieces
                assert moved == [tuple(v + shift for v in q) for q in pieces], label
                scaled = polygon_to_canonical_chart(polygon([v.scaled(k) for v in p]), width * k).pieces
                assert scaled == [tuple(v.scaled(k) for v in q) for q in pieces], label


SKINNY_TRIANGLE = polygon([(0, 0), (1000, 1000), (1000, 1001)])
# its long sides' tan(phi/2), about 0.0155, lies between the fractions 0
# and 1/16 of denominator 16, so no candidate rotation lays them flat
SLIVER = polygon([(0, 0), (1000, 31), (1000, 31 + Fraction(1, 500))])


class TestRobustnessSweep:
    """Seeded star-shaped rational polygons against equal-area rectangles
    at width 1 (conftest.star_pair draws them on ints alone), and a long
    skinny triangle whose sides have nearly equal slopes: every canonical
    chart verifies, with its source side exact, and so does every mutual
    chart.  The ceilings pin today's piece counts."""

    def test_star_pairs(self):
        rng = random.Random(11)
        canonical = mutual = largest = 0
        for k in range(20):
            star, rect = star_pair(rng)
            charts = [polygon_to_canonical_chart(p, 1) for p in (star, rect)]
            for chart, p in zip(charts, (star, rect)):
                assert chart.source_exact
                assert verify_chart(chart).accepted, (k, p)
            chart = overlay_charts(*charts)
            assert verify_chart(chart).accepted, (k, star)
            canonical += sum(len(c.pieces) for c in charts)
            mutual += len(chart.pieces)
            largest = max(largest, len(chart.pieces))
        assert canonical <= 1363 and mutual <= 1784 and largest <= 178

    def test_many_vertex_star_charts_quickly(self):
        # 111 candidate rotations, each swept over 256 vertices: the
        # incremental int sweep chooses among them in about 0.3 s, where
        # sorting every slab on Fraction keys took about 7 s
        star = big_star(random.Random(0), 256)
        start = time.perf_counter()
        chart = polygon_to_canonical_chart(star, 64)
        assert time.perf_counter() - start < 2
        assert sum((polygon_area(q) for q in chart.pieces), Fraction(0)) == polygon_area(star)

    def test_skinny_triangle(self):
        # horizontal bands alone would cut it unturned into 3,003 pieces,
        # and the triangle path cut it into 3,855; unturned, its one long
        # trapezoid is cut into 2 bands across its flatter side, 12 pieces
        chart = polygon_to_canonical_chart(SKINNY_TRIANGLE, 1)
        assert len(chart.pieces) <= 56
        assert chart.source_exact and verify_chart(chart).accepted
        rect = polygon([(0, 0), (20, 0), (20, 25), (0, 25)])
        mutual = overlay_charts(chart, polygon_to_canonical_chart(rect, 1))
        assert len(mutual.pieces) <= 237
        assert verify_chart(mutual).accepted


class TestBandSide:
    """A trapezoid's parallelogram is cut into bands across its vertical
    side or across its flatter side, whichever gives fewer pieces; one of
    the two always meets at most 2 bands, so no rotation can leave a
    trapezoid with unbounded bands."""

    def test_sliver_is_cut_across_its_flatter_side(self):
        # unturned, its one trapezoid is 1/1000 high and rises 31: 31,001
        # horizontal bands, and a quarter turn is no better
        t, _, planned = equidecompose._chosen_rotation(SLIVER, 1)
        assert t == 0 and len(planned) == 1
        assert planned[0][1] == (4608, True, False, 9)
        chart = polygon_to_canonical_chart(SLIVER, 1)
        assert len(chart.pieces) <= 2259
        assert sum((polygon_area(q) for q in chart.pieces), Fraction(0)) == 1
        mutual = overlay_charts(chart, polygon_to_canonical_chart(UNIT_SQUARE, 1))
        assert len(mutual.pieces) <= 2258
        assert verify_chart(mutual).accepted

    def test_oblique_rectangle_is_exact(self):
        # at width 1/512 the oblique rectangle is based on its short side
        chart = polygon_to_canonical_chart(SLIVER, Fraction(1, 512))
        assert len(chart.pieces) == 8
        assert_exact_chart(chart, SLIVER)

    def test_trapezoid_past_the_piece_cap_raises_quickly(self):
        # a sliver 4096 long at width 1: its vertical band side needs
        # 4,096,001 bands, and every rectangle across a longer side needs
        # over 2**10 strips
        sliver = polygon([(0, 0), (1, 4096), (1, 4096 + Fraction(1, 500))])
        start = time.perf_counter()
        text = rf"^width 1 cuts a trapezoid into 4096002 pieces; at most 9 \* 2\*\*{MAX_HALVINGS}$"
        with pytest.raises(BadWidth, match=text):
            polygon_to_canonical_chart(sliver, 1)
        assert time.perf_counter() - start < 2


class TestTrapezoidPieceBound:
    """A trapezoid is cut into at most strips x slides x the bands its
    parts span: each width-normalized piece meets each band of each part
    in at most one piece.  Each part lies in the parallelogram, so it
    spans at most the parallelogram's bands, and the bound is under twice
    _plan's prediction, so under 2 * MAX_TRAPEZOID_PIECES.  A cut
    trapezoid's two parts can each span all of its bands, so its pieces
    can pass the prediction, which counts one band more, not twice as
    many."""

    def test_every_trapezoid_keeps_the_bound(self):
        rng = random.Random(11)
        polygons = [(p, w) for _, pa, pb, w in criterion_8_cases() for p in (pa, pb)]
        polygons += [(p, 1) for _ in range(20) for p in star_pair(rng)]
        polygons += [(SLIVER, 1), (SKINNY_TRIANGLE, 1)]
        for p, w in polygons:
            t, scale, planned = equidecompose._chosen_rotation(p, w)
            total = 0
            for trapezoid, plan in planned:
                frame, clippers = equidecompose._trapezoid_clippers(trapezoid, plan, t, scale)
                normalized = equidecompose._normalize_frame_pieces(frame, w)
                pieces = sum(
                    1 for frame_polygon, _ in normalized for lines, _, _ in clippers
                    if _clip_homogeneous(frame_polygon, lines)
                )
                assert len(normalized) <= 3 * 2 ** abs(plan[3])  # strips x slides
                assert pieces <= len(normalized) * len(clippers) < 2 * plan[0]
                assert plan[0] <= MAX_TRAPEZOID_PIECES
                total += pieces
            assert total == len(polygon_to_canonical_chart(p, w).pieces)


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
        # two rectangles, each already 1 wide
        chart = polygon_to_canonical_chart(L_HEXAGON, 1)
        assert len(chart.pieces) == 2
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
    "square2-vs-triangle": "3adaac3ab706d72a",
    "random-0": "cd30dcb43d96d033",
    "random-1": "660cfa51ffd81146",
    "random-2": "4d8519a802ae4caa",
    "random-3": "fe2645cea3a5a78d",
    "random-4": "24db009f4a36b11c",
    "random-5": "1f3e7d75a981b8d6",
    "random-6": "f42ac6b140d6d5fc",
    "random-7": "f78b064bf87f7d77",
    "random-8": "f8e6e34269ca0f0f",
    "random-9": "26ac30d790809982",
    "random-10": "7db4f64b3a2b8d77",
    "random-11": "15f55bc75dfcf020",
    "random-12": "c1539ff3931ca11c",
    "random-13": "6c9c634c4c727de0",
    "random-14": "63a1cf375c447016",
    "random-15": "587826b8734abe89",
    "random-16": "e0988c05fb097999",
    "random-17": "7846b54d5d563b2a",
    "random-18": "8c258ecbaae33675",
    "random-19": "0d73073cfe8e5c68",
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


# sha256 prefixes of render_chart of each criterion-8 pair's mutual chart;
# the SVG holds the float motions' output at 6 decimals, so these rest on
# the platform's cos and sin too
RENDERED_CHART_DIGESTS = {
    "square2-vs-triangle": "004984ae45a700d2",
    "random-0": "78342673748a1414",
    "random-1": "8052816507096baa",
    "random-2": "41d40c07c725cf8d",
    "random-3": "e37f746966cb38c9",
    "random-4": "8c90e179d3f6d29d",
    "random-5": "a809be5bfa70874d",
    "random-6": "3e7f6503ab7f4985",
    "random-7": "7f1174c32f69796c",
    "random-8": "820d45cb8db94868",
    "random-9": "48df00c043e5b99e",
    "random-10": "e50be8506476e7ee",
    "random-11": "6e4f568014ccc78e",
    "random-12": "e3549d7ea2cd3205",
    "random-13": "7f2a7b7384520506",
    "random-14": "21a3f132e577eb6c",
    "random-15": "d6018db9c754d5f4",
    "random-16": "f5607a0349914cab",
    "random-17": "c05b3697b02f2ca3",
    "random-18": "225d938bbc9ea929",
    "random-19": "5405e18262449c17",
}


def test_rendered_mutual_charts_match_pinned_digests():
    digests = {}
    for label, pa, pb, width in criterion_8_cases():
        mutual = overlay_charts(polygon_to_canonical_chart(pa, width),
                                polygon_to_canonical_chart(pb, width))
        digests[label] = hashlib.sha256(render_chart(mutual).encode()).hexdigest()[:16]
    assert digests == RENDERED_CHART_DIGESTS


# sha256 prefixes of the JSON text bg writes (json.dumps of chart_to_json)
# of each criterion-8 pair's mutual chart: every float motion and piece
# coordinate to the last bit, so these rest on the platform's cos and sin
# too
CHART_JSON_DIGESTS = {
    "square2-vs-triangle": "005df8b2d728b177",
    "random-0": "39a8617209679ed2",
    "random-1": "58f016907946375b",
    "random-2": "d4714cc5923a05c8",
    "random-3": "e00e436d0d1dfb50",
    "random-4": "d116d1d090e86339",
    "random-5": "f1dd18bb5e38c9e4",
    "random-6": "7dc931c0dadeace2",
    "random-7": "47805313e0f2d73d",
    "random-8": "e8f4b67003835496",
    "random-9": "75b160dd3948e4d3",
    "random-10": "c8e02a6de599f8fc",
    "random-11": "29f734f8ac8dcaf9",
    "random-12": "4e87c0efbb542d57",
    "random-13": "03bea04b4c0ef3bb",
    "random-14": "06af731c53c3af19",
    "random-15": "049fa878c753f310",
    "random-16": "b27ce935cb54bb0e",
    "random-17": "7c1255a5f7f15ad5",
    "random-18": "e0b0d9acbb446078",
    "random-19": "aca26dc523e096b6",
}


def test_mutual_chart_json_matches_pinned_digests():
    digests = {}
    for label, pa, pb, width in criterion_8_cases():
        mutual = overlay_charts(polygon_to_canonical_chart(pa, width),
                                polygon_to_canonical_chart(pb, width))
        text = json.dumps(chart_to_json(mutual))
        digests[label] = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digests == CHART_JSON_DIGESTS


# sha256 prefixes of the JSON text (json.dumps of chart_to_json) of the
# canonical charts whose rotations and band sides criterion 8 does not
# reach: turns such as t = -1/7, -5/11, 1/5 and 2/3, and trapezoids cut
# into slanted bands; the float motions rest on the platform's cos and
# sin too
CANONICAL_CHART_JSON_DIGESTS = {
    "star-0": "81525adc2a1dc151",
    "star-0-rectangle": "18aeaae94a3c55df",
    "star-1": "2fd99dcdf0d4cc9f",
    "star-1-rectangle": "32c614c3dd71d501",
    "star-2": "0683e5ea17f6018b",
    "star-2-rectangle": "8da09ae38f7a7a9a",
    "star-3": "310cba504b61faae",
    "star-3-rectangle": "76e7c50ac457b2e0",
    "star-4": "fabc60192dc42f12",
    "star-4-rectangle": "71d23548789b5ef5",
    "star-5": "4376462b232f1eb6",
    "star-5-rectangle": "4ce6ee73f0dcb64d",
    "star-6": "4b559e589f473f11",
    "star-6-rectangle": "d06ec89bdb9d87d9",
    "star-7": "abed781e65d729af",
    "star-7-rectangle": "649f3bcac7c06734",
    "star-8": "ccfe6e9edbdd968d",
    "star-8-rectangle": "b8614d261be3bbc7",
    "star-9": "00294ec08a7c812b",
    "star-9-rectangle": "66b6fa0f04a86ff9",
    "star-10": "9cc53635c4288392",
    "star-10-rectangle": "624d0be3cabdcfab",
    "star-11": "f620e50f12663288",
    "star-11-rectangle": "347ed04f7c99a461",
    "star-12": "c6ffecd2dc2f0fd8",
    "star-12-rectangle": "807554254f5e1dca",
    "star-13": "187a871794876d5d",
    "star-13-rectangle": "520ec30203d7c7cf",
    "star-14": "29d08935e9c72235",
    "star-14-rectangle": "0bff34ae9f3396d1",
    "star-15": "9ca030fb31fe31d2",
    "star-15-rectangle": "797650424610f966",
    "star-16": "f586bd6e02627d8b",
    "star-16-rectangle": "b2d6558f93c67330",
    "star-17": "c0cb1c42974f7091",
    "star-17-rectangle": "bc16ce0649d8c91a",
    "star-18": "2e2d3cef4ec96c8d",
    "star-18-rectangle": "d8a3eadf8ee707f6",
    "star-19": "b7a1d5ceddbb902f",
    "star-19-rectangle": "761c9e87cbe9ec16",
    "sliver": "03d979cea35fd999",
    "sliver-1/512": "1a9cfc042c1bbe3e",
    "skinny-triangle": "76e3fecc8bff3c4d",
    "big-star-64": "5691f28e70d8112d",
    "triangle-1/128": "ff5e436cabaf7315",
}


def _canonical_chart_cases():
    rng = random.Random(11)
    for k in range(20):
        star, rect = star_pair(rng)
        yield f"star-{k}", star, 1
        yield f"star-{k}-rectangle", rect, 1
    yield "sliver", SLIVER, 1
    yield "sliver-1/512", SLIVER, Fraction(1, 512)
    yield "skinny-triangle", SKINNY_TRIANGLE, 1
    yield "big-star-64", big_star(random.Random(0), 64), 64
    yield "triangle-1/128", polygon([(0, 0), (2, 0), (0, 2)]), Fraction(1, 128)


def test_canonical_chart_json_matches_pinned_digests():
    digests = {}
    for label, p, width in _canonical_chart_cases():
        text = json.dumps(chart_to_json(polygon_to_canonical_chart(p, width)))
        digests[label] = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digests == CANONICAL_CHART_JSON_DIGESTS


class TestCanonicalChartProperties:
    """Canonical-chart pieces skip SimplePolygon validation; they must be
    exactly what validation would accept."""

    @settings(max_examples=40)
    @given(_rational_simple_polygons(), st.builds(Fraction, st.integers(1, 9), st.integers(1, 3)))
    def test_pieces_are_strictly_convex_and_partition_the_source(self, p, w):
        assert_exact_chart(polygon_to_canonical_chart(p, w), p)


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

    def test_vertex_that_rounding_bends_is_dropped(self, monkeypatch):
        # found by a seeded search of hulls against rectangles: the
        # triangle is charted unturned, and one fragment of the overlay
        # keeps a vertex 1 ulp left of (3/2, 0), at y = 6.9e-16, which the
        # triangle's chart maps onto a straight line; the ear clip cannot
        # cut the piece
        tri = polygon([(-8, Fraction(11, 3)), (-5, Fraction(-9, 5)), (Fraction(2, 5), Fraction(-1, 3))])
        rect = polygon([(0, 0), (2, 0), (2, Fraction(212, 25)), (0, Fraction(212, 25))])
        w = Fraction(3, 2)
        assert equidecompose._chosen_rotation(tri, w)[0] == 0
        charts = polygon_to_canonical_chart(rect, w), polygon_to_canonical_chart(tri, w)
        assert verify_chart(overlay_charts(*charts)).accepted
        monkeypatch.setattr(equidecompose, "_left_turns",
                            lambda pts, m: tuple(_dedupe_collinear(pts)))
        report = verify_chart(overlay_charts(*charts))
        assert ("TargetOverlap", "piece 0 cannot be cut into convex parts: "
                "no diagonal found; polygon is not simple") in report.failures

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
        # two triangles: piece 0's motion turns the spike below by an angle
        # at which its ear clip still finds no ear in floats
        a = polygon([(0, 0), (2, 0), (0, 2)])
        b = polygon([(0, 0), (4, 1), (0, 1)])
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
    # at width 2/3 both rectilinear charts are cut into strips and slid,
    # so the overlay has 12 pieces of several areas and drops a sliver
    square = polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
    l_hexagon = polygon([(0, 0), (3, 0), (3, 1), (1, 1), (1, 2), (0, 2)])
    w = Fraction(2, 3)
    return overlay_charts(
        polygon_to_canonical_chart(square, w), polygon_to_canonical_chart(l_hexagon, w)
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
        assert len(encoded["pieces"]) == 2
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


def test_chart_json_written_as_json_dumps(criterion_8_pairs, tmp_path):
    """The chart file bg writes for every criterion-8 pair is exactly
    json.dumps(chart_to_json(mutual)) + "\\n"."""
    out = tmp_path / "chart.json"
    for label, (pa, pb, width) in criterion_8_pairs.items():
        paths = []
        for name, p in (("a", pa), ("b", pb)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps([point_to_json(v) for v in p.vertices]))
        assert main(["bg", "--a", str(paths[0]), "--b", str(paths[1]),
                     "--width", str(width), "--out", str(out)]) == 0, label
        mutual = overlay_charts(polygon_to_canonical_chart(pa, width),
                                polygon_to_canonical_chart(pb, width))
        assert out.read_text(encoding="utf-8") == json.dumps(chart_to_json(mutual)) + "\n", label
