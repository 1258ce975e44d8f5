"""Property tests of the Sutherland-Hodgman clip kernel against a reference.

The reference is the plain form of the kernel: two orientation tests per
step and no early-outs.  The kernel must return
exactly what it returns, float bits included, on int, Fraction and float
polygons, and overlap_sum2 must return exactly the sum() of the reference
fragments' areas.  On exact strictly convex polygons its fragments repeat
no vertex and have no three collinear, so the chart path skips a dedupe.
The homogeneous-integer kernel of the chart path must return what
_convex_clip returns, point for point.
"""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainfold.exact_geom import (
    _bbox,
    _clip_convex_raw,
    _clip_homogeneous,
    _convex_clip,
    _dedupe_collinear,
    _edges,
    _int_affine,
    _lines,
    _map_homogeneous,
    _orient,
    _signed_area2,
)
from chainfold.overlap import overlap_sum2

from conftest import rational_convex_hull


def reference_clip_halfplane(pts, e1, e2):
    out = []
    n = len(pts)
    for i in range(n):
        cur = pts[i]
        nxt = pts[(i + 1) % n]
        d_cur = _orient(e1, e2, cur)
        d_nxt = _orient(e1, e2, nxt)
        if d_cur >= 0:
            out.append(cur)
        if (d_cur > 0 and d_nxt < 0) or (d_cur < 0 and d_nxt > 0):
            den = d_cur - d_nxt
            t = Fraction(d_cur, den) if type(den) is int else d_cur / den  # int sides: exact
            out.append(
                (cur[0] + (nxt[0] - cur[0]) * t, cur[1] + (nxt[1] - cur[1]) * t)
            )
    return out


def reference_signed_area2(pts):
    """Twice the shoelace area, by index modulo the length."""
    total = 0
    n = len(pts)
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return total


def reference_convex_clip(subject, clipper):
    out = list(subject)
    n = len(clipper)
    for i in range(n):
        if not out:
            return []
        out = reference_clip_halfplane(out, clipper[i], clipper[(i + 1) % n])
    if len(out) < 3 or _signed_area2(out) == 0:
        return []
    return out


def reference_overlap_sum2(parts_a, parts_b):
    """Twice the shared area as sum() over the reference fragments, with the
    engine's box test in front of each clip."""
    def fragments():
        for pa, (ax0, ay0, ax1, ay1), _ in parts_a:
            for pb, (bx0, by0, bx1, by1), _ in parts_b:
                if ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1:
                    frag = reference_convex_clip(pa, pb)
                    if frag:
                        yield frag

    return sum(_signed_area2(frag) for frag in fragments())


def bits(pts):
    """Vertices with each coordinate's type and exact value (floats by hex,
    so 0.0 and -0.0 differ)."""
    return [
        tuple((type(v).__name__, v.hex() if isinstance(v, float) else v) for v in p)
        for p in pts
    ]


_coords = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 6]))


@st.composite
def convex_polygons(draw, coords=_coords):
    """A rational strictly convex polygon as (x, y) tuples."""
    points = draw(st.lists(st.tuples(coords, coords), min_size=3, max_size=8))
    try:
        return list(rational_convex_hull(points).vertices)
    except ValueError:  # collinear points
        assume(False)


def _levels(lo, hi):
    """Coordinates around [lo, hi]: outside, on the ends, and between."""
    span = hi - lo
    return [lo - 1, lo, lo + span / 3, lo + span / 2, hi, hi + Fraction(1, 2)]


@st.composite
def axis_clippers(draw, subject):
    """Axis-parallel rectangles and half-squares placed against the
    subject's box, so they contain, touch, straddle and miss it."""
    x0, y0, x1, y1 = _bbox(subject)
    xs, ys = _levels(x0, x1), _levels(y0, y1)
    if draw(st.booleans()):
        xa, xb = sorted(draw(st.lists(st.sampled_from(xs), min_size=2, max_size=2, unique=True)))
        ya, yb = sorted(draw(st.lists(st.sampled_from(ys), min_size=2, max_size=2, unique=True)))
        return [(xa, ya), (xb, ya), (xb, yb), (xa, yb)]
    cx, cy = draw(st.sampled_from(xs)), draw(st.sampled_from(ys))
    leg = draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2), max(x1 - x0, y1 - y0)]))
    sx, sy = draw(st.sampled_from([1, -1])), draw(st.sampled_from([1, -1]))
    tri = [(cx, cy), (cx + sx * leg, cy), (cx, cy + sy * leg)]
    return tri if sx * sy > 0 else [tri[0], tri[2], tri[1]]


@st.composite
def clip_cases(draw):
    """(subject, clipper) in Fraction or float coordinates."""
    subject = draw(convex_polygons())
    clipper = draw(st.one_of(convex_polygons(), axis_clippers(subject)))
    if draw(st.booleans()):
        subject = [(float(x), float(y)) for x, y in subject]
        clipper = [(float(x), float(y)) for x, y in clipper]
    return subject, clipper


def number_bits(v):
    return type(v).__name__, v.hex() if isinstance(v, float) else v


def as_number_type(pts, kind):
    """Fraction points (denominators dividing 6) as ints (scaled by 6),
    Fractions or floats."""
    if kind == "int":
        return [(int(x * 6), int(y * 6)) for x, y in pts]
    if kind == "float":
        return [(float(x), float(y)) for x, y in pts]
    return list(pts)


_KINDS = st.sampled_from(["int", "Fraction", "float"])
_DIRECTIONS = st.sampled_from([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (2, -1), (-1, 3), (3, 2)])


@st.composite
def placed_edges(draw, subject):
    """(relation, e1, e2, e3) for a directed edge e1->e2 placed against the
    subject with every vertex strictly inside, touching from inside (the
    smallest side 0), touching from outside (the largest side 0) or
    strictly outside; e3 closes a ccw clipper triangle on the edge's inner
    side."""
    relation = draw(st.sampled_from(["inside", "touch-inside", "touch-outside", "outside"]))
    dx, dy = draw(_DIRECTIONS)
    side = lambda p: dx * p[1] - dy * p[0]  # the kernel's side, up to a constant
    if relation in ("inside", "touch-inside"):
        base = min(subject, key=side)
    else:
        base = max(subject, key=side)
    # moving along the left normal (-dy, dx) raises every side's constant
    shift = {"inside": -1, "touch-inside": 0, "touch-outside": 0, "outside": 1}[relation]
    e1 = (base[0] - dy * shift, base[1] + dx * shift)
    scale = draw(st.sampled_from([1, 2, 5]))
    e2 = (e1[0] + dx * scale, e1[1] + dy * scale)
    depth, slide = draw(st.sampled_from([1, 3, 40])), draw(st.sampled_from([-2, 0, 1]))
    e3 = (e1[0] - dy * depth + dx * slide, e1[1] + dx * depth + dy * slide)
    return relation, e1, e2, e3


@st.composite
def positive_affine_maps(draw):
    small = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 5]))
    a, b, c, d, tx, ty = (draw(small) for _ in range(6))
    det = a * d - b * c
    assume(det != 0)
    if det < 0:
        b, d = -b, -d  # negating a column flips the determinant's sign
    return lambda p: (a * p[0] + b * p[1] + tx, c * p[0] + d * p[1] + ty)


class TestClipKernel:
    @settings(max_examples=400)
    @given(clip_cases())
    def test_halfplane_matches_reference(self, case):
        subject, clipper = case
        n = len(clipper)
        for i in range(n):
            e1, e2 = clipper[i], clipper[(i + 1) % n]
            assert bits(_clip_convex_raw(subject, _edges([e1, e2])[:1])) == bits(
                reference_clip_halfplane(subject, e1, e2)
            )

    @settings(max_examples=400)
    @given(clip_cases())
    def test_convex_clip_matches_reference(self, case):
        subject, clipper = case
        assert bits(_convex_clip(subject, clipper)) == bits(
            reference_convex_clip(subject, clipper)
        )

    @settings(max_examples=200)
    @given(convex_polygons(), st.data(), positive_affine_maps())
    def test_convex_clip_commutes_with_positive_affine_maps(self, subject, data, f):
        clipper = data.draw(st.one_of(convex_polygons(), axis_clippers(subject)))
        moved = _convex_clip([f(p) for p in subject], [f(p) for p in clipper])
        assert moved == [f(p) for p in _convex_clip(subject, clipper)]

    def test_axis_rectangles_cover_every_relation(self):
        # one subject against rectangles that contain, touch, straddle and
        # miss it; each result equals the reference
        subject = [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(0)), (Fraction(1), Fraction(2))]
        rectangles = {
            "contain": (-1, -1, 3, 3),
            "touch": (2, 0, 3, 2),
            "straddle": (1, -1, 3, 1),
            "miss": (3, 3, 4, 4),
        }
        areas = {}
        for name, (xa, ya, xb, yb) in rectangles.items():
            clipper = [(xa, ya), (xb, ya), (xb, yb), (xa, yb)]
            out = _convex_clip(subject, clipper)
            assert bits(out) == bits(reference_convex_clip(subject, clipper))
            areas[name] = _signed_area2(out) / 2 if out else 0
        assert areas == {"contain": 2, "touch": 0, "straddle": Fraction(3, 4), "miss": 0}


class TestEarlyOuts:
    @settings(max_examples=400)
    @given(convex_polygons(), _KINDS, st.data())
    def test_placed_edges_match_reference(self, subject, kind, data):
        subject = as_number_type(subject, kind)
        relation, e1, e2, e3 = data.draw(placed_edges(subject))
        out = _clip_convex_raw(subject, _edges([e1, e2])[:1])
        assert bits(out) == bits(reference_clip_halfplane(subject, e1, e2))
        clipper = [e1, e2, e3]
        assert bits(_convex_clip(subject, clipper)) == bits(reference_convex_clip(subject, clipper))
        if kind != "float":  # exact sides: the relation is what was asked for
            if relation in ("inside", "touch-inside"):
                assert out is subject
            elif relation == "outside":
                assert out == []
            else:
                assert 0 < len(out) < len(subject) or len(subject) == 1

    def test_nan_sides_reach_the_loop(self):
        nan = float("nan")
        e1, e2 = (0.0, 0.0), (1.0, 0.0)
        cases = [
            [(0.0, 1.0), (1.0, 1.0), (0.5, nan)],  # inside but for one NaN side
            [(0.0, -1.0), (1.0, -1.0), (0.5, nan)],  # outside but for one NaN side
            [(0.0, 1.0), (nan, nan), (0.0, -1.0), (1.0, 0.0)],
        ]
        for subject in cases:
            out = _clip_convex_raw(subject, _edges([e1, e2])[:1])
            assert out is not subject
            assert bits(out) == bits(reference_clip_halfplane(subject, e1, e2))
        # a triangle, the pass written out vertex by vertex: a NaN side
        # first, second and third, the other two vertices inside, outside,
        # or one on each side in either order
        others = [((0.0, 1.0), (1.0, 1.0)), ((0.0, -1.0), (1.0, -1.0)),
                  ((0.0, 1.0), (1.0, -1.0)), ((1.0, -1.0), (0.0, 1.0))]
        for k in range(3):
            for p, q in others:
                subject = [p, q]
                subject.insert(k, (0.5, nan))
                out = _clip_convex_raw(subject, _edges([e1, e2])[:1])
                assert out is not subject
                assert bits(out) == bits(reference_clip_halfplane(subject, e1, e2))
        # a -0.0 side, first, second and third, before a vertex inside and
        # before one outside: kept as a 0 side is, with no crossing next to it
        for k in range(3):
            for p, q in others[2:]:
                subject = [p, q]
                subject.insert(k, (0.5, -0.0))
                out = _clip_convex_raw(subject, _edges([e1, e2])[:1])
                assert bits(out) == bits(reference_clip_halfplane(subject, e1, e2))
                assert bits([(0.5, -0.0)])[0] in bits(out) and len(out) == 3
        # a NaN edge gives every vertex a NaN side
        subject = [(0.0, 0.0), (2.0, 0.0), (1.0, 2.0)]
        assert _clip_convex_raw(subject, _edges([(nan, 0.0), e2])[:1]) == []
        clipper = [(0.5, nan), (3.0, 0.5), (0.5, 3.0)]
        assert bits(_convex_clip(subject, clipper)) == bits(reference_convex_clip(subject, clipper))


_FLOAT_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, float("nan"), 1.0, -1.0, 0.1, 3.5, 1e-300, 1e300]),
    st.floats(allow_nan=True, allow_infinity=False),
)


@st.composite
def area_cases(draw):
    """Up to eight points as ints, Fractions or floats (-0.0 and NaN
    among them), some repeated."""
    kind = draw(_KINDS)
    if kind == "float":
        coords = _FLOAT_COORDS
    elif kind == "int":
        coords = st.integers(-10**20, 10**20)
    else:
        coords = _coords
    pts = draw(st.lists(st.tuples(coords, coords), max_size=8))
    for k in draw(st.lists(st.integers(0, max(len(pts) - 1, 0)), max_size=3)):
        if pts:
            pts.insert(k, pts[k])
    return pts


class TestSignedArea:
    @settings(max_examples=500)
    @given(area_cases())
    def test_matches_the_indexed_form(self, pts):
        assert number_bits(_signed_area2(pts)) == number_bits(reference_signed_area2(pts))

    def test_order_of_the_terms(self):
        # float terms whose sum rounds differently when the closing edge
        # is added first
        pts = [(1.0, 1e8), (1.0, 0.0), (-1.0, -1.0), (-1e8, 0.5)]
        assert _signed_area2(pts) == reference_signed_area2(pts) == -1.0000000200000002e16
        assert _signed_area2(pts[-1:] + pts[:-1]) == -1.00000002e16
        for pts in ([], [(3, 4)], [(-0.0, 0.0)], [(1.0, float("nan")), (2.0, 3.0)]):
            assert number_bits(_signed_area2(pts)) == number_bits(reference_signed_area2(pts))


@st.composite
def part_lists(draw, kind):
    polys = draw(st.lists(convex_polygons(), min_size=1, max_size=3))
    if draw(st.booleans()):  # rectangles and half-squares against the first part
        polys.append(draw(axis_clippers(polys[0])))
    return [(pts, _bbox(pts), _edges(pts)) for pts in (as_number_type(p, kind) for p in polys)]


class TestOverlapSum:
    @settings(max_examples=150)
    @given(_KINDS, st.data())
    def test_matches_sum_of_reference_fragments(self, kind, data):
        parts_a = data.draw(part_lists(kind))
        parts_b = data.draw(part_lists(kind))
        got = overlap_sum2(parts_a, parts_b)
        assert number_bits(got) == number_bits(reference_overlap_sum2(parts_a, parts_b))

    def test_zero_overlap_is_the_int_zero(self):
        # fragments of zero area are dropped, so nothing is added, in any type
        square = [(Fraction(x), Fraction(y)) for x, y in [(0, 0), (1, 0), (1, 1), (0, 1)]]
        for kind in ("int", "Fraction", "float"):
            a, b = (as_number_type([(x + dx, y) for x, y in square], kind) for dx in (0, 1))
            # the boxes are widened so that the clip runs
            parts_a = [(a, (-1, -1, 3, 3), _edges(a))]
            parts_b = [(b, (-1, -1, 3, 3), _edges(b))]
            assert number_bits(overlap_sum2(parts_a, parts_b)) == ("int", 0)
            assert number_bits(reference_overlap_sum2(parts_a, parts_b)) == ("int", 0)


def _exact_kind(pts, kind):
    """Points whose coordinates are multiples of 1/36, as drawn here: as
    Fractions, or as ints scaled by 36."""
    return [(int(x * 36), int(y * 36)) for x, y in pts] if kind == "int" else list(pts)


class TestExactClipsNeedNoDedupe:
    """The chart path builds pieces from exact clips of strictly convex
    polygons without a _dedupe_collinear pass; this holds the docstring
    proof in _clip_convex_raw that such a pass would change nothing."""

    @settings(max_examples=500)
    @given(convex_polygons(), st.data(), st.sampled_from(["int", "Fraction"]))
    def test_dedupe_changes_nothing(self, subject, data, kind):
        frag = _exact_kind(subject, kind)
        for _ in range(2):  # the chart path clips a clip again
            clipper = data.draw(st.one_of(convex_polygons(), axis_clippers(subject)))
            frag = _convex_clip(frag, _exact_kind(clipper, kind))
            assert _dedupe_collinear(frag) == frag
            if not frag:
                break


# ---------------------------------------------------------------------------
# the homogeneous-integer kernel


def _big_fractions(d):
    """Fractions with denominator d (reduced, so often a divisor of it)."""
    return st.builds(Fraction, st.integers(-12 * d, 12 * d), st.just(d))


# ints, or Fractions whose denominators of up to 100 bits are drawn per
# coordinate, so a polygon's denominators are unrelated
_EXACT_COORDS = st.one_of(
    st.integers(-12, 12).map(Fraction),
    st.integers(1, 2**100).flatmap(_big_fractions),
)


def _rotate_half_turn(pts, c):
    """The polygon turned a half turn about c: still ccw."""
    return [(2 * c[0] - x, 2 * c[1] - y) for x, y in pts]


@st.composite
def exact_clip_pairs(draw, coords=_EXACT_COORDS):
    """(relation, subject, clipper): strictly convex rational polygons that
    are unrelated, share an edge or a vertex, nest, or touch with no area."""
    subject = draw(convex_polygons(coords))
    n = len(subject)
    i = draw(st.integers(0, n - 1))
    a, b = subject[i], subject[(i + 1) % n]
    relation = draw(st.sampled_from(
        ["unrelated", "shared-edge", "shared-vertex", "inside", "contains", "same",
         "touch-edge", "touch-vertex"]
    ))
    if relation == "unrelated":
        clipper = draw(convex_polygons(coords))
    elif relation in ("shared-edge", "shared-vertex"):
        extra = draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=4))
        keep = [a, b] if relation == "shared-edge" else [a]
        try:
            clipper = list(rational_convex_hull(keep + extra).vertices)
        except ValueError:
            assume(False)
    elif relation in ("inside", "contains"):
        cx = sum(x for x, _ in subject) / n
        cy = sum(y for _, y in subject) / n
        k = draw(st.sampled_from([Fraction(1, 3), Fraction(99, 100)] if relation == "inside"
                                 else [Fraction(3, 2), Fraction(7)]))
        clipper = [(cx + (x - cx) * k, cy + (y - cy) * k) for x, y in subject]
    elif relation == "same":
        clipper = list(subject)
    elif relation == "touch-edge":  # across the edge a-b, with no area in common
        clipper = _rotate_half_turn(subject, ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))
    else:  # opposite cones at the vertex a
        clipper = _rotate_half_turn(subject, a)
    if draw(st.booleans()):
        subject, clipper = clipper, subject
    return relation, subject, clipper


def _rational(pts):
    return [(Fraction(x, w), Fraction(y, w)) for x, y, w in pts]


def _homogeneous(x, y) -> tuple[int, int, int]:
    """The rational point (x, y) as ints (X, Y, W) over W > 0, the least
    common denominator of x and y."""
    w = math.lcm(x.denominator, y.denominator)
    return x.numerator * (w // x.denominator), y.numerator * (w // y.denominator), w


class TestHomogeneousKernel:
    @settings(max_examples=400)
    @given(exact_clip_pairs())
    def test_matches_convex_clip(self, case):
        relation, subject, clipper = case
        got = _clip_homogeneous(
            [_homogeneous(x, y) for x, y in subject],
            _lines([_homogeneous(x, y) for x, y in clipper]),
        )
        for x, y, w in got:
            assert w > 0 and math.gcd(x, y, w) == 1
        assert _rational(got) == _convex_clip(subject, clipper)
        if relation.startswith("touch"):
            assert got == []
        if relation in ("inside", "contains", "same"):  # the area of the inner one
            inner = min(_signed_area2(subject), _signed_area2(clipper))
            assert _signed_area2(_rational(got)) == inner

    @settings(max_examples=300)
    @given(exact_clip_pairs(st.integers(-12, 12).map(Fraction)))
    def test_int_points_match_convex_clip(self, case):
        # the pair scaled to ints by its common denominator, with W = 1
        _, subject, clipper = case
        d = math.lcm(*(v.denominator for p in subject + clipper for v in p))
        subject, clipper = ([(int(x * d), int(y * d)) for x, y in pts] for pts in (subject, clipper))
        got = _clip_homogeneous(
            [(x, y, 1) for x, y in subject], _lines([(x, y, 1) for x, y in clipper])
        )
        assert _rational(got) == _convex_clip(subject, clipper)

    @settings(max_examples=100)
    @given(convex_polygons(_EXACT_COORDS), st.lists(_EXACT_COORDS, min_size=6, max_size=6))
    def test_affine_map_matches_fractions(self, pts, entries):
        ox, oy, ex, ey, fx, fy = entries
        f = _int_affine((ox, oy), (ex, ey), (fx, fy))
        got = _map_homogeneous(f, [_homogeneous(x, y) for x, y in pts])
        for x, y, w in got:
            assert w > 0 and math.gcd(x, y, w) == 1
        assert _rational(got) == [(ox + a * ex + b * fx, oy + a * ey + b * fy) for a, b in pts]
