import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainfold.exact_geom import (
    InvalidPolygon,
    _bbox,
    _bboxes_interiors_overlap,
    _ear_clip,
    _edges,
    _signed_area2,
)
from chainfold.figures import _partition_failures
from chainfold.overlap import (
    cell_bounds,
    convex_parts,
    covered_by_cells2,
    overlap_sum2,
    overlapping_pairs,
    part_clips,
    parts_and_bounds,
    polygon_overlap,
)

from conftest import rational_convex_hull
from test_clip_kernel import as_number_type, convex_polygons, number_bits, reference_convex_clip


def _octagon(pts):
    """The bound (x0, y0, x1, y1, s0, s1, d0, d1) of a point list: its box
    and the min and max of x + y and of x - y."""
    xs, ys = [x for x, _ in pts], [y for _, y in pts]
    sums, diffs = [x + y for x, y in pts], [x - y for x, y in pts]
    return min(xs), min(ys), max(xs), max(ys), min(sums), max(sums), min(diffs), max(diffs)


def _box_bound(x0, y0, x1, y1):
    """The bound of a box's four corners."""
    return _octagon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


# Points on a half-integer grid (an integer grid for int) of a few steps,
# so lists are full of tied lower x values, boxes touching along an edge,
# zero-width or zero-height boxes, and diagonal extents that only touch.
_steps = st.integers(-3, 3)
_number_types = st.sampled_from([int, Fraction, float])


@st.composite
def _bound(draw, num):
    """The bound of one to four grid points, all of one number type."""
    if num is None:  # mixed lists: each bound picks its own number type
        num = draw(_number_types)
    scale = 1 if num is int else 2
    pts = draw(st.lists(st.tuples(_steps, _steps), min_size=1, max_size=4))
    return _octagon([(num(Fraction(x, scale)), num(Fraction(y, scale))) for x, y in pts])


@st.composite
def _bound_list(draw, num):
    return draw(st.lists(_bound(num), max_size=14))


_bound_lists = st.one_of(
    _bound_list(int), _bound_list(Fraction), _bound_list(float), _bound_list(None)
)


@st.composite
def _strip_list(draw):
    """Boxes that each span most of a narrow x range, stacked along a tall
    y range: the mutual chart's pieces inside its width-w rectangle."""
    strips = []
    for _ in range(draw(st.integers(0, 24))):
        x0, x1 = draw(st.sampled_from([(0, 4), (0, 3), (1, 4), (0, 2), (2, 4), (1, 1)]))
        y0, h = draw(st.integers(-30, 30)), draw(st.integers(0, 4))
        strips.append((Fraction(x0, 4), Fraction(y0, 2), Fraction(x1, 4), Fraction(y0 + h, 2)))
    if draw(st.booleans()):  # or lying across a wide x range
        strips = [(y0, x0, y1, x1) for x0, y0, x1, y1 in strips]
    return [_box_bound(*box) for box in strips]


def _meet(a, b):
    """The broad-phase rule on two bounds: box interiors overlap, and the
    diagonal extents overlap, or tie when either bound is float."""
    if not _bboxes_interiors_overlap(a[:4], b[:4]):
        return False
    sa0, sa1, da0, da1 = a[4:]
    sb0, sb1, db0, db1 = b[4:]
    if sa0 < sb1 and sb0 < sa1 and da0 < db1 and db0 < da1:
        return True
    tie = not (sa1 < sb0 or sb1 < sa0 or da1 < db0 or db1 < da0)
    return tie and (isinstance(sa0, float) or isinstance(sb0, float))


def _brute_within(bounds):
    return [
        (i, j)
        for i in range(len(bounds))
        for j in range(i + 1, len(bounds))
        if _meet(bounds[i], bounds[j])
    ]


def _brute_across(bounds_a, bounds_b):
    return [
        (i, j)
        for i in range(len(bounds_a))
        for j in range(len(bounds_b))
        if _meet(bounds_a[i], bounds_b[j])
    ]


class TestBroadPhase:
    @settings(max_examples=300, deadline=None)
    @given(_bound_lists)
    def test_within_matches_brute_force(self, bounds):
        assert overlapping_pairs(bounds) == _brute_within(bounds)

    @settings(max_examples=300, deadline=None)
    @given(_bound_lists, _bound_lists)
    def test_across_matches_brute_force(self, bounds_a, bounds_b):
        assert overlapping_pairs(bounds_a, bounds_b) == _brute_across(bounds_a, bounds_b)

    @settings(max_examples=200, deadline=None)
    @given(_strip_list(), _strip_list())
    def test_strips_match_brute_force(self, strips, others):
        assert overlapping_pairs(strips) == _brute_within(strips)
        assert overlapping_pairs(strips, others) == _brute_across(strips, others)

    def test_identical_boxes_pair_once(self):
        bound = _box_bound(Fraction(0), Fraction(0), Fraction(1), Fraction(1))
        assert overlapping_pairs([bound, bound, bound]) == [(0, 1), (0, 2), (1, 2)]
        assert overlapping_pairs([bound, bound], [bound]) == [(0, 0), (1, 0)]

    def test_touching_and_degenerate_boxes_never_pair(self):
        for num in (int, float):
            boxes = [(0, 0, 1, 1), (1, 0, 2, 1), (0, 1, 1, 2), (1, 0, 1, 1)]
            bounds = [_box_bound(*map(num, box)) for box in boxes]
            assert overlapping_pairs(bounds) == []
            assert overlapping_pairs(bounds[:1], bounds[1:]) == []


SQUARE = [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(0)),
          (Fraction(2), Fraction(2)), (Fraction(0), Fraction(2))]
L_HEXAGON = [(Fraction(x), Fraction(y)) for x, y in
             ((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2))]


class TestPartsAndNarrowPhase:
    def test_convex_polygon_is_its_own_part(self):
        parts = convex_parts(SQUARE)
        assert parts == [(SQUARE, (0, 0, 2, 2), _edges(SQUARE))]

    def test_bounds_are_boxes_and_diagonal_extents(self):
        parts, bounds = parts_and_bounds([SQUARE, L_HEXAGON])
        assert parts == [convex_parts(SQUARE), convex_parts(L_HEXAGON)]
        assert bounds == [_octagon(SQUARE), _octagon(L_HEXAGON)]
        assert bounds[0][:4] == parts[0][0][1]  # a convex piece's box is its part's

    def test_non_convex_polygon_splits_into_triangles(self):
        parts = convex_parts(L_HEXAGON)
        assert len(parts) == 4
        assert all(len(part) == 3 for part, _, _ in parts)

    def test_repeated_points_are_dropped(self):
        # a fragment of the random-18 chart as placed, its first and its
        # last point each given twice; as given, the ear clip finds no ear
        a = (44.00000000000001, 1.999999999999992)
        b = (44.00000000000001, 1.5)
        c = (44.022680412371145, 1.5010309278350515)
        with pytest.raises(InvalidPolygon):
            _ear_clip([a, a, b, c, c])
        assert convex_parts([a, a, b, c, c]) == [([a, b, c], _bbox([a, b, c]), _edges([a, b, c]))]
        assert _signed_area2([a, a, b, c, c]) == _signed_area2([a, b, c])
        assert convex_parts([a] * 4) == []  # a piece collapsed to one point

    def test_exact_overlap_stays_rational(self):
        shifted = [(x + Fraction(1, 3), y + 1) for x, y in L_HEXAGON]
        area = polygon_overlap(L_HEXAGON, shifted)
        assert isinstance(area, Fraction)
        assert area == Fraction(2, 3)  # [1/3, 1] x [1, 2]
        assert overlap_sum2(convex_parts(L_HEXAGON), convex_parts(shifted)) == 2 * area
        clips = list(part_clips(convex_parts(L_HEXAGON), convex_parts(shifted)))
        assert clips and all(_signed_area2(frag) == area2 != 0 for frag, area2 in clips)
        assert sum(area2 for _, area2 in clips) == 2 * area

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
        covered2 = covered_by_cells2(parts, (0, 0, 2, 2), 4, cells, cell_bounds(cells))
        assert covered2 == 2 * (Fraction(1) + Fraction(1, 2))
        cells.add((1, 0))
        assert covered_by_cells2(parts, (0, 0, 2, 2), 4, cells, cell_bounds(cells)) == 4


def _two_pass_bounds(pieces):
    """parts_and_bounds' bounds by the plain form: the single part's box
    or _bbox of the piece, then min() and max() of x + y and of x - y."""
    bounds = []
    for pts in pieces:
        parts = convex_parts(pts)
        sums = [x + y for x, y in pts]
        diffs = [x - y for x, y in pts]
        box = parts[0][1] if len(parts) == 1 else _bbox(pts)
        bounds.append((*box, min(sums), max(sums), min(diffs), max(diffs)))
    return bounds


@st.composite
def _bound_pieces(draw):
    """A convex polygon or an L hexagon, moved so that a vertex may sit at
    the origin, as ints, Fractions or floats.  A vertex may repeat, the
    first one also at the end; a float zero may turn into -0.0, and one
    float coordinate into NaN."""
    pts = draw(st.one_of(convex_polygons(), st.just(L_HEXAGON)))
    if draw(st.booleans()):
        ox, oy = draw(st.sampled_from(pts))
        pts = [(x - ox, y - oy) for x, y in pts]
    kind = draw(st.sampled_from(["int", "Fraction", "float"]))
    pts = as_number_type(pts, kind)
    for k in draw(st.lists(st.integers(0, len(pts) - 1), max_size=3)):
        pts.insert(k, pts[k])
    if draw(st.booleans()):
        pts.append(pts[0])
    if kind == "float":
        flips = draw(st.lists(st.booleans(), min_size=2 * len(pts), max_size=2 * len(pts)))
        pts = [(-0.0 if x == 0 and fx else x, -0.0 if y == 0 and fy else y)
               for (x, y), fx, fy in zip(pts, flips[::2], flips[1::2])]
        if draw(st.booleans()):
            k, axis = draw(st.integers(0, len(pts) - 1)), draw(st.integers(0, 1))
            p = list(pts[k])
            p[axis] = float("nan")
            pts[k] = tuple(p)
    return pts


class TestOnePassBounds:
    @settings(max_examples=500)
    @given(st.lists(_bound_pieces(), min_size=1, max_size=4))
    def test_matches_the_two_pass_form(self, pieces):
        try:
            expected = _two_pass_bounds(pieces)
        except InvalidPolygon:  # a NaN can leave no ear
            with pytest.raises(InvalidPolygon):
                parts_and_bounds(pieces)
            return
        bounds = parts_and_bounds(pieces)[1]
        assert [[number_bits(v) for v in b] for b in bounds] == [
            [number_bits(v) for v in b] for b in expected]

    def test_signed_zeros_and_nan_keep_the_first(self):
        # the repeated first point is dropped from the part, so the part's
        # box and the piece's own bounds disagree on the sign of a zero
        z = [(-0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)]
        (bound,) = parts_and_bounds([z])[1]
        assert [number_bits(v) for v in bound] == [
            number_bits(v) for v in _two_pass_bounds([z])[0]]
        assert number_bits(bound[0]) == ("float", (0.0).hex())  # the part's box
        assert number_bits(bound[6]) == ("float", (-0.0).hex())  # -0.0 - 0.0, the first of equals
        nan = float("nan")
        tri = [(nan, 0.0), (1.0, 0.0), (0.0, 1.0)]
        (bound,) = parts_and_bounds([tri])[1]
        assert all(v != v for v in (bound[0], bound[2], bound[4], bound[5]))  # a first NaN stays


def _half_squares(x, y, s):
    """The four half-squares of the square [x, x + s] x [y, y + s], as two
    pairs split along each of its diagonals."""
    a, b, c, d = (x, y), (x + s, y), (x + s, y + s), (x, y + s)
    return [([a, b, c], [a, c, d]), ([a, b, d], [b, c, d])]


@st.composite
def _touching_pairs(draw):
    """(a, b): exact convex polygons that share a vertex, an edge or a
    diagonal, so their interiors are disjoint, or two independent ones;
    b is then nudged by a sixth or not at all, to overlap a by a sliver
    or to leave a gap."""
    a = draw(convex_polygons())
    how = draw(st.sampled_from(["vertex", "edge", "diagonal", "free"]))
    k = draw(st.integers(0, len(a) - 1))
    if how == "vertex":  # a half-turn about one vertex
        vx, vy = a[k]
        b = [(2 * vx - x, 2 * vy - y) for x, y in a]
    elif how == "edge":  # a half-turn about the midpoint of one edge
        (px, py), (qx, qy) = a[k], a[(k + 1) % len(a)]
        b = [(px + qx - x, py + qy - y) for x, y in a]
    elif how == "diagonal":  # a split along a chord
        assume(len(a) >= 4)
        j = draw(st.integers(2, len(a) - 2))
        turned = a[k:] + a[:k]
        a, b = turned[: j + 1], turned[j:] + turned[:1]
    else:
        b = draw(convex_polygons())
    dx, dy = (Fraction(draw(st.integers(-1, 1)), 6) for _ in range(2))
    return a, [(x + dx, y + dy) for x, y in b]


# coordinates whose sums and differences round: 0.1 + 0.2 != 0.3, and
# 1e16 + 1 rounds to 1e16
_ROUNDING = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, -0.3, 1e16, 1e16 + 2, -1e16, 2.5e-16])


def _float_hull(points):
    """The convex hull of the points rounded to floats, as float points."""
    try:
        hull = rational_convex_hull([(Fraction(float(x)), Fraction(float(y))) for x, y in points])
    except ValueError:  # rounding made the points collinear
        assume(False)
    return [(float(x), float(y)) for x, y in hull.vertices]


@st.composite
def _rounded_pairs(draw):
    """(a, b): float convex polygons from a touching construction on
    coordinates that round badly; rounding may leave a sliver of overlap."""
    pts = draw(st.lists(st.tuples(_ROUNDING, _ROUNDING), min_size=3, max_size=6))
    shift = draw(st.tuples(_ROUNDING, _ROUNDING))
    a = _float_hull([(Fraction(x), Fraction(y)) for x, y in pts])
    exact = [(Fraction(x), Fraction(y)) for x, y in a]
    k = draw(st.integers(0, len(a) - 1))
    how = draw(st.sampled_from(["vertex", "edge", "shifted"]))
    if how == "vertex":
        vx, vy = exact[k]
        b = [(2 * vx - x, 2 * vy - y) for x, y in exact]
    elif how == "edge":
        (px, py), (qx, qy) = exact[k], exact[(k + 1) % len(a)]
        b = [(px + qx - x, py + qy - y) for x, y in exact]
    else:
        b = [(x + float(shift[0]), y + float(shift[1])) for x, y in exact]
    return a, _float_hull(b)


def _exact_overlap2(a, b):
    """Twice the exact area shared by two convex polygons, by the
    reference clip on their coordinates read as Fractions."""
    frag = reference_convex_clip(
        [(Fraction(x), Fraction(y)) for x, y in a], [(Fraction(x), Fraction(y)) for x, y in b]
    )
    return _signed_area2(frag) if frag else 0


def _bounds(*pieces):
    return parts_and_bounds(pieces)[1]


def _pruned(a, b):
    """Whether the broad phase drops the pair of pieces a and b, asserting
    that the self and cross forms agree."""
    across = overlapping_pairs(_bounds(a), _bounds(b))
    assert overlapping_pairs(_bounds(a, b)) == [(0, 1)] * len(across)
    return across == []


class TestDiagonalPrune:
    def test_half_squares_of_a_cell_are_dropped(self):
        for num in (int, Fraction):
            for a, b in _half_squares(num(3), num(-2), num(1)):
                assert _pruned(a, b)

    def test_float_tie_is_kept(self):
        # exactly, a reaches x + y = 1 + 2**-53 and b starts at x + y = 1,
        # and they share a sliver; both sums round to 1.0
        a = [(-1.0, -1.0), (1.0, -1.0), (1.0, 2.0**-53)]
        b = [(0.5, 0.5), (3.0, -2.0), (3.0, 3.0)]
        assert _exact_overlap2(a, b) > 0
        assert not _pruned(a, b)
        exact_a = [(Fraction(x), Fraction(y)) for x, y in a]
        exact_b = [(Fraction(x), Fraction(y)) for x, y in b]
        assert not _pruned(exact_a, exact_b)

    def test_pieces_meeting_only_in_a_box_are_dropped(self):
        # the boxes overlap, the diagonal extents are apart
        a = [(0, 0), (2, 0), (0, 2)]
        b = [(3, 3), (1, 3), (3, 1)]
        assert _pruned(a, b)
        a, b = ([(float(x), float(y)) for x, y in p] for p in (a, b))
        assert _pruned(a, b)

    @settings(max_examples=400)
    @given(_touching_pairs(), st.sampled_from(["int", "Fraction"]))
    def test_exact_drops_have_no_overlap(self, pair, kind):
        a, b = pair
        if kind == "int":  # convex_polygons' denominators divide 6
            a, b = ([(int(6 * x), int(6 * y)) for x, y in p] for p in (a, b))
        if _pruned(a, b):
            assert reference_convex_clip(a, b) == []

    @settings(max_examples=400)
    @given(_rounded_pairs())
    def test_float_drops_have_no_overlap(self, pair):
        a, b = pair
        if _exact_overlap2(a, b) > 0:
            assert not _pruned(a, b)


def _left_to_right(values):
    """values added in order from the int 0, as sum() adds floats before Python 3.12."""
    total = 0
    for v in values:
        total += v
    return total


_L_HEXAGON = ((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2))


def _placed_l_hexagons(rng, count):
    """count float L hexagons, each turned and moved by a seeded amount."""
    pieces = []
    for _ in range(count):
        angle, tx, ty = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2), rng.uniform(0, 2)
        c, s = math.cos(angle), math.sin(angle)
        pieces.append([(c * x - s * y + tx, s * x + c * y + ty) for x, y in _L_HEXAGON])
    return pieces


class TestFloatSumsInOneOrder:
    """Float areas are added left to right, so a result has one last bit on
    every Python: sum() compensates float sums from Python 3.12 on."""

    def test_overlap_sum2_adds_its_fragments_left_to_right(self):
        rng = random.Random(29)
        several = 0
        for _ in range(300):
            a, b = (convex_parts(p) for p in _placed_l_hexagons(rng, 2))
            areas2 = [area2 for _, area2 in part_clips(a, b)]
            several += len(areas2) > 2
            assert repr(overlap_sum2(a, b)) == repr(_left_to_right(areas2))
        assert several > 100

    def test_partition_total_adds_the_piece_areas_left_to_right(self):
        rng = random.Random(30)
        square = [(0, 0), (4, 0), (4, 4), (0, 4)]
        for _ in range(40):
            pieces = _placed_l_hexagons(rng, 10)
            _, total = _partition_failures(pieces, square, 1e-9, False,
                                           ("overlap", "inside", "area"), "the square")
            assert repr(total) == repr(_left_to_right(map(_signed_area2, pieces)) / 2)
