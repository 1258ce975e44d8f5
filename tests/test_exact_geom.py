import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from chainfold import overlap
from chainfold.exact_geom import (
    RAT_MAX_DIGITS,
    InvalidPolygon,
    Point2,
    RigidMotion,
    SimplePolygon,
    _convex_clip,
    _ear_clip,
    _segments_intersect,
    _signed_area2,
    apply_motion,
    point,
    polygon,
    polygon_area,
    rat,
    rational_to_json,
)
from chainfold.numeric import apply_numeric
from chainfold.overlap import partition_residuals, polygon_overlap
from chainfold.polyomino import Cell, parse_grid
from conftest import boundary_polygon
from dudeney_asset import numeric_between_segments

UNIT_SQUARE = polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
L_HEXAGON = polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])


def pythagorean_motion(t: Fraction, tx=0, ty=0) -> RigidMotion:
    """Exact unit rotation from the rational parametrization of the circle."""
    c = (1 - t * t) / (1 + t * t)
    s = 2 * t / (1 + t * t)
    return RigidMotion(c, s, point(tx, ty))


class TestPolygonArea:
    def test_unit_square(self):
        assert polygon_area(UNIT_SQUARE) == 1

    def test_right_triangle(self):
        assert polygon_area(polygon([(0, 0), (4, 0), (0, 3)])) == 6

    def test_l_tromino_outline_matches_cell_count(self):
        # oracle: the area of a polyomino's outline is its number of cells
        tromino = parse_grid("#.\n##")
        outline = boundary_polygon(tromino)
        assert polygon_area(outline) == tromino.cell_count == 3
        assert polygon_area(L_HEXAGON) == 3


class TestApplyMotion:
    def test_identity(self):
        m = RigidMotion(1, 0, point(0, 0))
        assert apply_motion(m, point(5, 7)) == point(5, 7)

    def test_quarter_turn(self):
        m = RigidMotion(0, 1, point(0, 0))
        assert apply_motion(m, point(1, 0)) == point(0, 1)

    def test_three_four_five_rotation(self):
        # direct matrix arithmetic: (3/5*5 - 4/5*0 + 1, 4/5*5 + 3/5*0 + 0)
        m = RigidMotion(Fraction(3, 5), Fraction(4, 5), point(1, 0))
        assert apply_motion(m, point(5, 0)) == point(4, 4)

    def test_preserves_squared_distance(self):
        rng = random.Random(7)
        for _ in range(50):
            m = pythagorean_motion(
                Fraction(rng.randrange(-9, 10), rng.randrange(1, 10)),
                Fraction(rng.randrange(-5, 6)),
                Fraction(rng.randrange(-5, 6)),
            )
            assert m.rot_cos * m.rot_cos + m.rot_sin * m.rot_sin == 1
            p = point(Fraction(rng.randrange(-20, 20), 3), rng.randrange(-20, 20))
            q = point(rng.randrange(-20, 20), Fraction(rng.randrange(-20, 20), 7))
            before = (p - q).norm_sq()
            after = (apply_motion(m, p) - apply_motion(m, q)).norm_sq()
            assert before == after


class TestMotionBetweenSegments:
    """numeric_between_segments, the float motion that maps one segment onto another."""

    def test_quarter_turn(self):
        m = numeric_between_segments((0, 0), (1, 0), (0, 0), (0, 1))
        assert m.angle_rad == pytest.approx(math.pi / 2)
        assert (m.tx, m.ty) == (0, 0)

    def test_pure_translation(self):
        m = numeric_between_segments((0, 0), (1, 0), (2, 3), (3, 3))
        assert (m.angle_rad, m.tx, m.ty) == (0, 2, 3)

    def test_dot_cross_formula(self):
        # cos = a.b/|a|^2 = 15/25, sin = a x b/|a|^2 = 20/25
        m = numeric_between_segments((0, 0), (5, 0), (0, 0), (3, 4))
        assert (math.cos(m.angle_rad), math.sin(m.angle_rad)) == pytest.approx((0.6, 0.8))

    def test_round_trip_on_random_segments(self):
        rng = random.Random(40)
        for _ in range(50):
            a1 = point(rng.randrange(-9, 9), Fraction(rng.randrange(-9, 9), 2))
            a2 = point(rng.randrange(-9, 9), rng.randrange(-9, 9))
            if a1 == a2:
                continue
            carry = pythagorean_motion(Fraction(rng.randrange(-7, 8), 5), 1, -3)
            b1, b2 = apply_motion(carry, a1), apply_motion(carry, a2)
            m = numeric_between_segments(a1, a2, b1, b2)
            assert apply_numeric(m, a1) == pytest.approx(b1)
            assert apply_numeric(m, a2) == pytest.approx(b2)


class TestConvexClip:
    def test_identical_squares(self):
        out = _convex_clip(UNIT_SQUARE, UNIT_SQUARE)
        assert _signed_area2(out) == 2

    def test_disjoint_squares(self):
        other = polygon([(5, 0), (6, 0), (6, 1), (5, 1)])
        assert _convex_clip(UNIT_SQUARE, other) == []

    def test_half_shifted_square(self):
        shifted = polygon([(Fraction(1, 2), 0), (Fraction(3, 2), 0),
                           (Fraction(3, 2), 1), (Fraction(1, 2), 1)])
        out = _convex_clip(UNIT_SQUARE, shifted)
        assert _signed_area2(out) == 1

    def test_touching_edge_is_empty(self):
        neighbor = polygon([(1, 0), (2, 0), (2, 1), (1, 1)])
        assert _convex_clip(UNIT_SQUARE, neighbor) == []

    def test_area_bound_and_commutativity(self):
        rng = random.Random(3)
        for _ in range(30):
            def rand_square():
                x = Fraction(rng.randrange(-6, 6), rng.randrange(1, 4))
                y = Fraction(rng.randrange(-6, 6), rng.randrange(1, 4))
                s = Fraction(rng.randrange(1, 8), rng.randrange(1, 3))
                return polygon([(x, y), (x + s, y), (x + s, y + s), (x, y + s)])

            a, b = rand_square(), rand_square()
            area_ab = _signed_area2(_convex_clip(a, b))
            assert area_ab == _signed_area2(_convex_clip(b, a))
            assert area_ab <= 2 * min(polygon_area(a), polygon_area(b))


class TestInteriorsOverlap:
    def test_shared_edge_only(self):
        t1 = polygon([(0, 0), (1, 0), (0, 1)])
        t2 = polygon([(1, 1), (0, 1), (1, 0)])
        assert polygon_overlap(t1, t2) == 0

    def test_identical(self):
        assert polygon_overlap(UNIT_SQUARE, UNIT_SQUARE) > 0

    def test_diagonal_shift_overlap(self):
        shifted = polygon([(Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 2), Fraction(1, 2)),
                           (Fraction(3, 2), Fraction(3, 2)), (Fraction(1, 2), Fraction(3, 2))])
        assert polygon_overlap(UNIT_SQUARE, shifted) == Fraction(1, 4)

    def test_nonconvex_inputs(self):
        assert polygon_overlap(L_HEXAGON, UNIT_SQUARE) > 0
        far = polygon([(10, 10), (11, 10), (10, 11)])
        assert polygon_overlap(L_HEXAGON, far) == 0


class TestPolygonContains:
    """Containment as the partition check's residual: no area outside."""

    def test_half_triangle_inside_square(self):
        tri = polygon([(0, 0), (1, 0), (0, 1)])
        assert partition_residuals([tri], UNIT_SQUARE)[2] == [0]

    def test_poking_triangle(self):
        tri = polygon([(0, 0), (2, 0), (0, 1)])
        assert partition_residuals([tri], UNIT_SQUARE)[2] != [0]

    def test_contains_itself(self):
        assert partition_residuals([UNIT_SQUARE], UNIT_SQUARE)[2] == [0]
        assert partition_residuals([L_HEXAGON], L_HEXAGON)[2] == [0]


class TestTriangulate:
    def test_triangle_is_itself(self):
        tri = polygon([(0, 0), (4, 0), (0, 3)])
        out = _ear_clip(tri)
        assert len(out) == 1
        assert polygon_area(out[0]) == 6

    def test_convex_quad(self):
        assert len(_ear_clip(UNIT_SQUARE)) == 2

    def test_l_hexagon(self):
        tris = _ear_clip(L_HEXAGON)
        assert len(tris) == 4
        assert sum((polygon_area(t) for t in tris), Fraction(0)) == 3
        for i in range(len(tris)):
            for j in range(i + 1, len(tris)):
                assert polygon_overlap(tris[i], tris[j]) == 0

    def test_on_random_polyomino_boundaries(self):
        from chainfold.polyomino import random_polyomino

        for seed in range(12):
            shape = random_polyomino(9, seed)
            try:
                outline = boundary_polygon(shape)
            except Exception:
                continue  # holes are legal in shapes, just not in outlines
            tris = _ear_clip(outline)
            assert len(tris) == len(outline.vertices) - 2
            total = sum((polygon_area(t) for t in tris), Fraction(0))
            assert total == polygon_area(outline)
            for i in range(len(tris)):
                for j in range(i + 1, len(tris)):
                    assert polygon_overlap(tris[i], tris[j]) == 0


class TestSimplePolygon:
    def test_collinear_vertices_removed(self):
        p = polygon([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])
        assert len(p.vertices) == 4

    def test_clockwise_rejected(self):
        with pytest.raises(InvalidPolygon):
            polygon([(0, 0), (0, 1), (1, 1), (1, 0)])

    def test_self_intersecting_rejected(self):
        with pytest.raises(InvalidPolygon):
            polygon([(0, 0), (2, 2), (2, 0), (0, 2)])

    @pytest.mark.parametrize(
        "coords",
        [
            # a figure-8 with unequal lobes, so its signed area is positive
            [(0, 0), (0, 2), (4, 0), (4, 4)],
            # the tip (2, 4) of a notch touches the top edge
            [(0, 0), (1, 0), (2, 4), (3, 0), (4, 0), (4, 4), (0, 4)],
            # a hook whose bottom edge lies on the lower arm's top edge
            [(3, 1), (5, 1), (5, 3), (0, 3), (0, 0), (6, 0), (6, 1), (1, 1), (1, 2), (3, 2)],
            # two triangles that share the vertex (1, 1)
            [(0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (1, 1)],
        ],
        ids=["figure-8", "vertex-on-edge", "collinear-overlap", "repeated-vertex"],
    )
    def test_not_simple_with_positive_area_rejected(self, coords):
        # each passes the orientation check, so only the simplicity check
        # can reject it
        with pytest.raises(InvalidPolygon, match="intersect"):
            polygon(coords)

    def test_too_few_vertices(self):
        with pytest.raises(InvalidPolygon):
            polygon([(0, 0), (1, 1)])

    def test_determinism(self):
        a = _ear_clip(L_HEXAGON)
        b = _ear_clip(polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]))
        assert a == b


class TestSegmentsIntersect:
    # (a1, a2, b1, b2, closed segments share a point); each touching case
    # puts one endpoint on the other segment and the rest off its line, so
    # the return named for that endpoint is the one that answers
    CASES = {
        "disjoint boxes": ((0, 0), (1, 1), (2, 3), (3, 2), False),
        "proper crossing": ((0, 0), (2, 2), (0, 2), (2, 0), True),
        "a1 on b": ((1, 0), (1, 2), (0, 0), (2, 0), True),
        "a2 on b": ((1, 2), (1, 0), (0, 0), (2, 0), True),
        "b1 on a": ((0, 0), (2, 0), (1, 0), (1, 2), True),
        "b2 on a": ((0, 0), (2, 0), (1, 2), (1, 0), True),
        "collinear overlap": ((0, 0), (2, 2), (1, 1), (3, 3), True),
        "collinear, boxes touch at a corner": ((0, 0), (1, 1), (1, 1), (2, 2), True),
        "collinear, disjoint": ((0, 0), (1, 1), (2, 2), (3, 3), False),
        "endpoint on the other's line, beyond its end": ((3, 3), (1, 0), (0, 0), (2, 2), False),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_case(self, case):
        a1, a2, b1, b2, expected = self.CASES[case]
        for args in ((a1, a2, b1, b2), (b1, b2, a1, a2), (a2, a1, b2, b1)):
            assert _segments_intersect(*args) is expected, args


class TestRationalJson:
    def test_integer_round_trip(self):
        assert rational_to_json(Fraction(4)) == 4
        assert rat(4) == Fraction(4)

    def test_fraction_round_trip(self):
        assert rational_to_json(Fraction(-3, 7)) == "-3/7"
        assert rat("-3/7") == Fraction(-3, 7)

    def test_float_is_exact(self):
        assert rat(0.5) == Fraction(1, 2)


class TestRatRule:
    """rat is the one place that picks the number type: an int for an
    integral value, a Fraction for any other."""

    @pytest.mark.parametrize(
        "value,expected",
        [(3, 3), ("6/2", 3), ("-4/1", -4), (2.0, 2), (Fraction(4, 2), 2), ("2.50e1", 25)],
    )
    def test_integral_values_are_ints(self, value, expected):
        assert type(rat(value)) is int and rat(value) == expected

    @pytest.mark.parametrize("value", ["1/2", 0.5, Fraction(-3, 7), "0.1"])
    def test_other_values_are_fractions(self, value):
        assert type(rat(value)) is Fraction and rat(value) == Fraction(value)

    @pytest.mark.parametrize("value", [True, False])
    def test_bools_are_rejected(self, value):
        with pytest.raises(TypeError):
            rat(value)

    @pytest.mark.parametrize(
        "text", ["1" * (RAT_MAX_DIGITS + 1), "1e3000000", f"1/{'1' * RAT_MAX_DIGITS}0"]
    )
    def test_over_cap_texts_are_rejected(self, text):
        with pytest.raises(ValueError, match="digits or an exponent"):
            rat(text)


class TestTupleSemantics:
    """Points and motions are NamedTuples and a polygon is the tuple of its
    points, which the tuple core and the overlap engine read as they are."""

    def test_a_polygon_equals_and_hashes_like_its_vertex_tuple(self):
        p = polygon([(0, 0), ("1/2", 0), (0, 1)])
        vertices = (point(0, 0), point("1/2", 0), point(0, 1))
        assert isinstance(p, tuple) and p.vertices is p and len(p) == 3
        assert p == vertices and hash(p) == hash(vertices)
        assert p == ((0, 0), (Fraction(1, 2), 0), (0, 1))
        assert {vertices: "tuple"}[p] == "tuple"

    @pytest.mark.parametrize("protocol", [None, 2, 3, 4, 5], ids=lambda p: f"protocol-{p}")
    def test_an_unchecked_clockwise_polygon_is_checked_when_copied(self, protocol):
        clockwise = tuple.__new__(SimplePolygon, [point(0, 0), point(0, 1), point(1, 0)])
        with pytest.raises(InvalidPolygon, match="^vertices are not in counterclockwise order$"):
            if protocol is None:
                copy.deepcopy(clockwise)
            else:
                pickle.loads(pickle.dumps(clockwise, protocol))

    def test_points_and_motions_are_tuples(self):
        assert issubclass(Point2, tuple) and issubclass(RigidMotion, tuple)

    def test_plus_and_minus_are_vector_operations(self):
        total, difference = point(1, 2) + point(3, 4), point(1, 2) - point(3, 5)
        assert total == point(4, 6) and type(total) is Point2
        assert difference == point(-2, -3) and type(difference) is Point2

    def test_a_point_equals_and_hashes_like_its_pair(self):
        p = point("1/2", 3)
        assert p == (Fraction(1, 2), 3) and hash(p) == hash((Fraction(1, 2), 3))
        assert {(Fraction(1, 2), 3): "pair"}[p] == "pair"
        assert (p.x, p.y) == (Fraction(1, 2), 3)

    def test_a_motion_unpacks_as_cos_sin_translation(self):
        cos, sin, (tx, ty) = RigidMotion(Fraction(3, 5), Fraction(4, 5), point(1, -2))
        assert (cos, sin, tx, ty) == (Fraction(3, 5), Fraction(4, 5), 1, -2)

    def test_cell_region_cancels_plain_tuple_piece_edges(self, monkeypatch):
        calls = []
        engine = overlap.partition_residuals
        monkeypatch.setattr(
            overlap, "partition_residuals", lambda *args: calls.append(args) or engine(*args)
        )
        cells = frozenset({Cell(0, 0)})
        halves = [[(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]]
        assert overlap.cell_partition_residuals(halves, cells) == ([1, 1], [], [0, 0])
        assert calls == []
        # a half moved up by 1 leaves edges, so the engine runs and finds it outside
        moved = [halves[0], [(0, 1), (1, 2), (0, 2)]]
        _, _, outside2 = overlap.cell_partition_residuals(moved, cells)
        assert outside2 == [0, 1] and len(calls) == 1
