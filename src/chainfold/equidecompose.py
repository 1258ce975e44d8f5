"""Classical equidecomposition between equal-area polygons.

Pipeline: turn the polygon by one rational rotation, cut it into
trapezoids with vertical parallel sides, turn each into a rectangle by
a half turn and translations (vertical ones, which make it
axis-aligned, unless its sides are too steep for them), convert every
rectangle to a common width, stack the results into one rectangle, and
overlay two such stacks to obtain a mutual dissection.

Arithmetic is hybrid.  Every cut is exact rational in source
coordinates, so the source side of a chart partitions the input polygon
exactly.  The assembly motions are carried numerically, and the target
side of a chart is verified against a tolerance.  The one place a cut
position is irrational by nature (the slide that fixes the width) is
snapped to a nearby rational fraction; the snap error is around 1e-12
relative, far below the 1e-9 verification tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exact_geom import (
    IDENTITY_MOTION,
    Point2,
    RigidMotion,
    SimplePolygon,
    _clip_convex_raw,
    _clip_homogeneous,
    _convex_clip,  # noqa: F401 - looked up by perfbench/tracing.py
    _homogeneous,
    _int_affine,
    _lines,
    _orient,
    _map_homogeneous,
    _signed_area2,
    apply_motion,
    invert_motion,
    point,
    point_from_json,
    point_to_json,
    polygon_area,
    rat,
    rational_to_json,
)
from .figures import VerifyReport, _partition_failures, _value_text, check_tolerance
from .numeric import (
    NUMERIC_IDENTITY,
    NumericMotion,
    apply_numeric_points,
    compose_numeric,
    invert_numeric,
    numeric_from_rigid,
)
from .overlap import overlapping_pairs, part_clips, parts_and_bounds

SLIVER_FRACTION = 1e-12  # fragments below this share of the total area are dropped
SNAP_DENOMINATOR = 10**12
MAX_HALVINGS = 10  # width normalization cuts a rectangle into at most 2**10 strips
MAX_TRAPEZOID_PIECES = 9 * 2**MAX_HALVINGS  # 2**10 strips of 3 slide pieces, each cut in 3
CHART_TOLERANCE = 1e-9  # verify_chart's default, relative to the target area


class DissectionError(ValueError):
    """Base class for equidecomposition errors."""


class DegenerateTriangle(DissectionError):
    pass


class BadWidth(DissectionError):
    pass


class TargetMismatch(DissectionError):
    pass


class RectangleForm(NamedTuple):
    """Rectangle with rational corners, possibly oblique.

    Corners run counterclockwise; sides corners[0]->corners[1] and
    corners[0]->corners[3] are exactly perpendicular.
    """

    corners: tuple[Point2, Point2, Point2, Point2]
    width_sq: Fraction
    height_sq: Fraction

    @classmethod
    def from_corners(cls, corners) -> "RectangleForm":
        c = tuple(corners)
        if len(c) != 4:
            raise DissectionError("a rectangle needs exactly 4 corners")
        u = c[1] - c[0]
        v = c[3] - c[0]
        if u.dot(v) != 0:
            raise DissectionError("adjacent sides are not perpendicular")
        if c[2] - c[1] != v or c[2] - c[3] != u:
            raise DissectionError("opposite sides differ")
        if u.cross(v) <= 0:
            raise DissectionError("corners are not counterclockwise")
        return cls(c, u.norm_sq(), v.norm_sq())

    @classmethod
    def axis_aligned(cls, w: Fraction, h: Fraction) -> "RectangleForm":
        w, h = rat(w), rat(h)
        return cls.from_corners((point(0, 0), point(w, 0), point(w, h), point(0, h)))

    @property
    def u(self) -> Point2:
        return self.corners[1] - self.corners[0]

    @property
    def v(self) -> Point2:
        return self.corners[3] - self.corners[0]

    def area(self) -> Fraction:
        return self.u.cross(self.v)

    def polygon(self) -> SimplePolygon:
        return SimplePolygon(self.corners)

    def frame_coords(self, q: Point2) -> tuple[Fraction, Fraction]:
        """Intrinsic-frame coordinates (alpha, beta), in [0,1]^2 inside the
        rectangle, of q = corners[0] + alpha*u + beta*v; u and v are
        perpendicular, so each coordinate is a projection."""
        d = q - self.corners[0]
        return Fraction(d.dot(self.u), self.width_sq), Fraction(d.dot(self.v), self.height_sq)


def triangle_to_rectangle(tri) -> tuple[list[SimplePolygon], RectangleForm, list[RigidMotion]]:
    """Dissect a triangle into at most 3 pieces forming a rectangle.

    The base is a longest side (ties broken by lowest edge index), which
    guarantees the altitude foot lies in the closed base segment.  The
    strip below the half-height midline stays put; the two apex pieces
    rotate a half turn about the midline endpoints into the corners.
    All cuts and motions are exact rational.
    """
    verts = tuple(v if isinstance(v, Point2) else point(*v) for v in tri)
    if len(verts) != 3:
        raise DegenerateTriangle(f"expected 3 vertices, got {len(verts)}")
    area2 = _signed_area2(verts)
    if area2 == 0:
        raise DegenerateTriangle("triangle has zero area")
    if area2 < 0:
        raise DegenerateTriangle("triangle vertices are clockwise")

    side_sq = [
        (verts[(i + 1) % 3] - verts[i]).norm_sq() for i in range(3)
    ]
    base_i = max(range(3), key=lambda i: (side_sq[i], -i))
    a = verts[base_i]
    b = verts[(base_i + 1) % 3]
    c = verts[(base_i + 2) % 3]

    half_alt = (b - a).rot90().scaled(Fraction(area2, 2 * side_sq[base_i]))
    m1 = Point2(Fraction(a.x + c.x, 2), Fraction(a.y + c.y, 2))
    m2 = Point2(Fraction(b.x + c.x, 2), Fraction(b.y + c.y, 2))
    foot = c - half_alt  # perpendicular foot of the apex on the midline

    pieces = [SimplePolygon((a, b, m2, m1))]
    motions = [IDENTITY_MOTION]
    if foot != m1:
        pieces.append(SimplePolygon((m1, foot, c)))
        motions.append(_half_turn_about(m1))
    if foot != m2:
        pieces.append(SimplePolygon((foot, m2, c)))
        motions.append(_half_turn_about(m2))

    rect = RectangleForm.from_corners((a, b, b + half_alt, a + half_alt))
    return pieces, rect, motions


def _half_turn_about(center: Point2) -> RigidMotion:
    return RigidMotion(-1, 0, center + center)


# ---------------------------------------------------------------------------
# width normalization


def _width(w) -> Fraction:
    """A target width: a positive rational whose float is nonzero and finite."""
    w = rat(w)
    if w <= 0:
        raise BadWidth(f"target width must be positive, got {w}")
    _in_float_range(w, "target width")
    return w


def _in_float_range(value, what: str) -> float:
    """value as a float for the numeric motions.  A DissectionError when it
    is beyond the float range, or is nonzero and rounds to 0."""
    try:
        f = float(value)
    except OverflowError:
        f = math.inf
    if math.isinf(f) or (f == 0.0 and value != 0):
        raise DissectionError(f"{what} {_value_text(value)} is outside the float range")
    return f


def _rational_polygon(pts) -> SimplePolygon:
    """Homogeneous int points as a SimplePolygon of Fractions, one per
    coordinate, built without re-validation (the callers' clips are
    strictly convex and ccw)."""
    points = [Point2(Fraction(x, w), Fraction(y, w)) for x, y, w in pts]
    return tuple.__new__(SimplePolygon, points)


def rectangle_to_width(r: RectangleForm, w) -> tuple[list[SimplePolygon], list[NumericMotion], RectangleForm]:
    """Re-dissect a rectangle into an axis-aligned one of width w.

    The side corners[0]->corners[1] is halved or doubled (cut across the
    middle and restacked) until its length lands in [w, 2w), then one
    slide dissection fixes the width exactly up to the rational snap.
    Cut coordinates are rational fractions of the sides, so the pieces
    are exact in the source plane; placement motions are numeric.  Each
    piece is an exact clip of two strictly convex polygons, which repeats
    no vertex and has no three collinear (see _clip_convex_raw), moved by
    the frame map, whose determinant is positive, so it is built without
    re-validation.  A width that takes more than MAX_HALVINGS halvings or
    doublings is a BadWidth.
    """
    w = _width(w)
    h_out = Fraction(r.area(), w)
    out_rect = RectangleForm.axis_aligned(w, h_out)
    to_source = _frame_to_source(r, IDENTITY_MOTION)
    frame_pieces = _normalize_frame_pieces(r, w)
    pieces = [_rational_polygon(_map_homogeneous(to_source, fp)) for fp, _ in frame_pieces]
    return pieces, [motion for _, motion in frame_pieces], out_rect


def _normalize_frame_pieces(r: RectangleForm, w: Fraction) -> list[tuple[list, NumericMotion]]:
    """Width normalization in the rectangle's unit frame.

    Returns (frame polygon, motion) pairs: each a convex piece in frame
    coordinates, as homogeneous int points (see exact_geom._homogeneous),
    with its numeric motion into the normalized axis-aligned rectangle.
    Each strip is cut out of the slide pieces in stacked-frame
    coordinates and mapped to frame coordinates by an integer affine
    map, all on homogeneous ints.  A rectangle whose side or corner does
    not fit a float, or which needs more than MAX_HALVINGS halvings or
    doublings, is rejected before any strip is built.
    """
    len_u_sq = r.width_sq
    a = math.sqrt(_in_float_range(len_u_sq, "a rectangle side squared"))
    b = math.sqrt(_in_float_range(r.height_sq, "a rectangle side squared"))
    c0, _ = (
        tuple(_in_float_range(v, "a rectangle corner coordinate") for v in r.corners[i])
        for i in (0, 1)
    )
    k = _halvings(Fraction(len_u_sq, w * w)) // 2  # 4**k * w**2 <= |u|**2 < 4**(k + 1) * w**2
    if abs(k) > MAX_HALVINGS:
        raise BadWidth(
            f"width {_value_text(w)} needs 2**{abs(k)} strips of a rectangle of side "
            f"{a:g}; at most 2**{MAX_HALVINGS}"
        )

    a_prime = a / (2.0**k)
    b_prime = b * (2.0**k)
    align = _aligning(c0, r.u)

    # an exact fit needs no slide; it is tested exactly, since a float
    # side whose square is subnormal can be far enough off to snap below 1
    omega = Fraction(1)
    if len_u_sq != Fraction(4) ** k * (w * w):
        omega = Fraction(float(w) / a_prime).limit_denominator(SNAP_DENOMINATOR)
        omega = min(max(omega, Fraction(1, 2)), Fraction(1))
    if omega == 1:
        slide_pieces = [(((0, 0), (1, 0), (1, 1), (0, 1)), NUMERIC_IDENTITY)]
    else:
        lam = Fraction(1) / omega - 1  # in (0, 1], rational
        lam_f = float(lam)
        one = Fraction(1)
        zero = Fraction(0)
        t1 = ((zero, zero), (omega, zero), (zero, one))
        t2 = ((zero, one), (one - omega, one - lam), (one - omega, one))
        t3 = ((one - omega, one - lam), (omega, zero), (one, zero), (one, one), (one - omega, one))
        w_eff = float(omega) * a_prime
        slide_pieces = [
            (t1, NUMERIC_IDENTITY),
            (t2, NumericMotion(0.0, 2.0 * w_eff - a_prime, b_prime * (lam_f - 1.0))),
            (t3, NumericMotion(0.0, w_eff - a_prime, b_prime * lam_f)),
        ]
    slides = [([_homogeneous(x, y) for x, y in piece], m) for piece, m in slide_pieces]

    # one stacked-frame band per strip, with its stacking translation and
    # the int affine map from stacked-frame to frame coordinates
    out = []
    count = 2 ** abs(k)
    for i in range(count):
        if k >= 0:  # strip i of the base, stacked i heights up
            band = [(0, i, count), (count, i, count), (count, i + 1, count), (0, i + 1, count)]
            shift = NumericMotion(0.0, -i * a_prime, i * b)
            to_frame = _int_affine((Fraction(i, count), -i), (Fraction(1, count), 0), (0, count))
        else:  # strip i of the height, moved i base lengths along
            band = [(i, 0, count), (i + 1, 0, count), (i + 1, count, count), (i, count, count)]
            shift = NumericMotion(0.0, i * a, -i * (b / count))
            to_frame = _int_affine((-i, Fraction(i, count)), (count, 0), (0, Fraction(1, count)))
        lines = _lines(band)
        for stacked_piece, slide_motion in slides:
            frag = _clip_homogeneous(stacked_piece, lines)
            if not frag:
                continue
            piece_motion = compose_numeric(slide_motion, compose_numeric(shift, align))
            out.append((_map_homogeneous(to_frame, frag), piece_motion))
    return out


def _aligning(c0: tuple[float, float], u: Point2) -> NumericMotion:
    """The float motion that takes c0 to the origin and the exact side u
    onto the positive x axis.  Its angle is read from u, not from two
    float corners: a short side far from the origin would lose its
    direction to their rounding."""
    m = max(abs(u.x), abs(u.y))
    angle = 0.0 - math.atan2(float(u.y / m), float(u.x / m))
    c, s = math.cos(angle), math.sin(angle)
    return NumericMotion(angle, 0.0 - (c * c0[0] - s * c0[1]), 0.0 - (s * c0[0] + c * c0[1]))


# ---------------------------------------------------------------------------
# charts


class DissectionChart(NamedTuple):
    """Unhinged dissection: pieces with their target assembly motions.

    Pieces live in source coordinates, so the source assembly is the
    identity; the target assembly is numeric.  An exact chart
    (source_exact) holds SimplePolygons with rational vertices; an
    approximate one, such as an overlay, holds tuples of float (x, y)
    points.  An overlay lists the slivers it dropped, fragments below the
    area threshold, in sliver_report as (piece of a, piece of b, area).
    """

    pieces: list
    target_motions: list[NumericMotion]
    source: SimplePolygon
    target: SimplePolygon
    sliver_report: Sequence[tuple[int, int, float]] = ()

    @property
    def source_exact(self) -> bool:
        """Exact when the source and every piece are SimplePolygons."""
        return isinstance(self.source, SimplePolygon) and all(
            isinstance(piece, SimplePolygon) for piece in self.pieces
        )


def polygon_to_canonical_chart(p: SimplePolygon, w) -> DissectionChart:
    """Dissect a polygon to the canonical w x (area/w) rectangle.

    One rational rotation R is chosen first (see _chosen_rotation).  A
    vertical sweep cuts R(p) into trapezoids whose parallel sides are
    vertical (see _trapezoids), and _trapezoid_clippers turns each into a
    rectangle by a half turn and translations, as _plan says: vertical
    ones, which make it axis-aligned, or ones along its flatter side.
    Each rectangle is width-normalized, and one pass stacks it on the
    earlier ones' areas over w.  Every cut is exact rational in source
    coordinates.

    Each rectangle's width-normalized pieces are cut against its
    trapezoid's pieces in the rectangle's unit frame, and each fragment is
    mapped to the source once.  Positive-determinant affine maps commute
    exactly with clipping, so the fragments equal those cut in the source
    plane.  Both clips and both maps run on homogeneous ints, and each
    output coordinate becomes one Fraction.  A fragment is an exact clip
    of a strictly convex piece by a convex one, which repeats no vertex
    and has no three collinear (see _clip_convex_raw), so it is built
    without re-validation.

    The motions are floats, so a coordinate, the area or the width that
    does not fit a float (beyond its range, or nonzero and rounding to
    0) is a DissectionError.  When every rotation has a trapezoid that
    passes a cap, a rectangle of over 2**MAX_HALVINGS strips or over
    MAX_TRAPEZOID_PIECES pieces, the first such trapezoid's BadWidth is
    raised before any cut.
    """
    w = _width(w)
    for v in p:
        _in_float_range(v.x, "a coordinate")
        _in_float_range(v.y, "a coordinate")
    area = polygon_area(p)
    _in_float_range(area, "the area")
    h_total = Fraction(area, w)
    _in_float_range(h_total, "the target height")
    target = RectangleForm.axis_aligned(w, h_total).polygon()

    rotation, trapezoids = _chosen_rotation(p, w)
    plans = [_plan(trapezoid, w) for trapezoid in trapezoids]
    for plan in plans:
        _check_plan(plan, w)
    pieces, target_motions, height = [], [], 0
    for trapezoid, plan in zip(trapezoids, plans):
        rect, clippers = _trapezoid_clippers(trapezoid, plan, rotation)
        stack_shift = NumericMotion(0.0, 0.0, float(height))
        height += Fraction(rect.area(), w)
        clippers = [
            (_lines(pts), _frame_to_source(rect, m), numeric_from_rigid(m)) for pts, m in clippers
        ]
        for frame_polygon, motion in _normalize_frame_pieces(rect, w):
            for lines, to_source, rigid in clippers:
                frag = _clip_homogeneous(frame_polygon, lines)
                if not frag:
                    continue
                pieces.append(_rational_polygon(_map_homogeneous(to_source, frag)))
                target_motions.append(
                    compose_numeric(stack_shift, compose_numeric(motion, rigid))
                )
    return DissectionChart(pieces, target_motions, p, target)


def _chosen_rotation(p: SimplePolygon, w: Fraction) -> tuple[RigidMotion, list[tuple]]:
    """A rational rotation R about the origin, and the trapezoids of R(p).

    The candidates are the identity and, for each side, the rotation by
    (cos, sin) = ((1 - t**2)/(1 + t**2), 2t/(1 + t**2)) whose t is near
    tan(-phi/2), phi the side's direction (see _rotation_candidates): it
    turns that side nearly horizontal.  Each candidate's trapezoids are
    swept on ints, p scaled by its least common denominator d and R by
    1 + t**2, which changes no ratio; the one of fewest predicted pieces
    wins, the earlier on a tie.  Only ints and Fractions are used, so the
    choice is the same on every platform, and it is unchanged by a
    translation or a positive rational scaling of p and w.
    """
    d = math.lcm(*(c.denominator for v in p for c in v))
    pts = [(int(v.x * d), int(v.y * d)) for v in p]
    best = None
    for t in _rotation_candidates(pts):
        a, b = t.numerator, t.denominator
        c, s, n = b * b - a * a, 2 * a * b, a * a + b * b
        trapezoids = _trapezoids([(c * x - s * y, s * x + c * y) for x, y in pts])
        count = _predicted_pieces(trapezoids, Fraction(w * d * n))
        if best is None or count < best[0]:
            best = count, RigidMotion(Fraction(c, n), Fraction(s, n), Point2(0, 0)), d * n, trapezoids
    _, rotation, scale, trapezoids = best
    return rotation, [tuple(Fraction(v, scale) for v in z) for z in trapezoids]


def _rotation_candidates(pts) -> list[Fraction]:
    """t = 0, then for each side of the int polygon, in order, the nearest
    fraction of denominator at most 16 to tan(-phi/2) = -dy / (|d| + dx),
    with the side's direction d = (dx, dy) taken with dx > 0, or dy > 0
    when dx = 0, so that t lies in [-1, 1].  |d| is an integer square
    root of d's squared length scaled by a power of 4 to 64 or more bits;
    repeats are left out."""
    ts = [Fraction(0)]
    for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]):
        dx, dy = bx - ax, by - ay
        if dx < 0 or (dx == 0 and dy < 0):
            dx, dy = -dx, -dy
        n = dx * dx + dy * dy
        e = max(0, 64 - n.bit_length() // 2)
        t = Fraction(-dy << e, math.isqrt(n << 2 * e) + (dx << e)).limit_denominator(16)
        if t not in ts:
            ts.append(t)
    return ts


def _trapezoids(pts) -> list[tuple]:
    """Trapezoids partitioning the polygon of int points pts, each with
    vertical parallel sides, by a vertical sweep: in each slab between
    consecutive vertex x values, the non-vertical sides spanning it,
    sorted by their y in the slab, pair up into the pieces of the slab
    inside the polygon, and a trapezoid grows while its pair of sides
    continues into the next slab.  Each is (x0, x1, lower y at x0, lower
    y at x1, upper y at x0, upper y at x1), exact; the order is the
    sweep's, so it depends on the polygon alone."""
    edges = [
        (a, b) if a[0] < b[0] else (b, a) for a, b in zip(pts, pts[1:] + pts[:1]) if a[0] != b[0]
    ]
    xs = sorted({x for x, _ in pts})
    rank = {x: i for i, x in enumerate(xs)}
    slabs = [[] for _ in xs]  # the last slab, past the polygon, closes all
    for e in edges:
        for i in range(rank[e[0][0]], rank[e[1][0]]):
            slabs[i].append(e)
    out = []
    start: dict[tuple, int] = {}  # open pair of sides -> its trapezoid's left x
    for i, slab in enumerate(slabs):
        x = xs[i]
        if slab:
            mid = Fraction(x + xs[i + 1], 2)
            slab.sort(key=lambda e: _y_at(e, mid))
        pairs = list(zip(slab[::2], slab[1::2]))
        for pair in [q for q in start if q not in pairs]:
            x0 = start.pop(pair)
            lo, hi = pair
            out.append((x0, x, _y_at(lo, x0), _y_at(lo, x), _y_at(hi, x0), _y_at(hi, x)))
        for pair in pairs:
            start.setdefault(pair, x)
    return out


def _y_at(edge, x) -> Fraction:
    """The y of the non-vertical int segment edge, left end first, at x."""
    (ax, ay), (bx, by) = edge
    return ay + Fraction((x - ax) * (by - ay), bx - ax)


def _halvings(q: Fraction) -> int:
    """The k with 2**k <= q < 2**(k + 1), for a positive rational q."""
    num, den = q.numerator, q.denominator
    k = num.bit_length() - den.bit_length()
    if num << max(0, -k) < den << max(0, k):
        k -= 1
    return k


def _plan(trapezoid, w: Fraction) -> tuple:
    """How _trapezoid_clippers cuts the trapezoid's parallelogram into a
    rectangle: (pieces, slanted, on_v, halvings).

    The parallelogram has a vertical side b of the trapezoid's mean
    height h and a side a along the flatter of its other two.  Its
    rectangle keeps one of them, the band side, and its bands are cut
    across that side at steps of its length: b gives an axis-aligned
    rectangle and ceil(|rise| / h) + 1 bands; a (slanted) gives an
    oblique one and ceil(|rise| h / |a|**2) + 1 bands.  The two ratios
    multiply to rise**2 / |a|**2 < 1, so when b meets more than 2
    bands, a meets at most 2, and a is taken if it gives fewer pieces.
    Pieces are predicted as the rectangle's strips (2**|k|, for the
    halvings k of its base side, the one of ratio to w nearer 1, the
    first on a tie: on_v when it is the second side), times 3 when they
    slide, times its bands plus one when the trapezoid is cut in two; a
    rectangle of more than 2**MAX_HALVINGS strips counts infinitely
    many.  So the pieces are at most MAX_TRAPEZOID_PIECES unless the
    rectangle of at most 2 bands passes the strip cap.  Only ints and
    Fractions are used.
    """
    x0, x1, yl0, yl1, yu0, yu1 = trapezoid
    width, height = x1 - x0, (yu0 - yl0 + yu1 - yl1) / 2
    dl, du = yl1 - yl0, yu1 - yu0
    rise = dl if abs(du) >= abs(dl) else du
    cut = dl != du
    bands = math.ceil(abs(rise) / height) + 1
    pieces, on_v, k = _strips(width, height, w, bands + cut)
    plan = pieces, False, on_v, k
    if bands > 2:
        length_sq = width * width + rise * rise
        bands = math.ceil(abs(rise) * height / length_sq) + 1
        side_sq = (width * height) ** 2 / length_sq
        pieces, on_v, k = _strips(length_sq, side_sq, w * w, bands + cut, 4)
        if pieces < plan[0]:
            plan = pieces, True, on_v, k
    return plan


def _strips(u: Fraction, v: Fraction, w: Fraction, parts: int, step: int = 2) -> tuple:
    """(pieces, on_v, halvings) of a rectangle of sides u and v, each of
    whose strips is cut into parts (see _plan); u, v and w are lengths,
    or, with step 4, their squares."""
    on_v = max(v / w, w / v) < max(u / w, w / u)
    base = v if on_v else u
    k = _halvings(base / w) // (step // 2)  # step**k * w <= base < step**(k + 1) * w
    if abs(k) > MAX_HALVINGS:
        return math.inf, on_v, k
    slides = 1 if base == Fraction(step) ** k * w else 3
    return 2 ** abs(k) * slides * parts, on_v, k


def _predicted_pieces(trapezoids, w: Fraction) -> float:
    """The piece count predicted for a chart from its trapezoids, before
    any cut (see _plan); infinite when a trapezoid passes the strip cap
    or MAX_TRAPEZOID_PIECES."""
    total = 0
    for trapezoid in trapezoids:
        pieces = _plan(trapezoid, w)[0]
        if pieces > MAX_TRAPEZOID_PIECES:
            return math.inf
        total += pieces
    return total


def _check_plan(plan, w: Fraction) -> None:
    """A BadWidth when a trapezoid's plan passes a cap (see _plan)."""
    pieces, _, _, k = plan
    if abs(k) > MAX_HALVINGS:
        raise BadWidth(
            f"width {_value_text(w)} needs 2**{abs(k)} strips of a trapezoid's rectangle; "
            f"at most 2**{MAX_HALVINGS}"
        )
    if pieces > MAX_TRAPEZOID_PIECES:
        raise BadWidth(
            f"width {_value_text(w)} cuts a trapezoid into {pieces} pieces; "
            f"at most 9 * 2**{MAX_HALVINGS}"
        )


def _trapezoid_clippers(trapezoid, plan, rotation: RigidMotion) -> tuple[RectangleForm, list]:
    """A rectangle of the trapezoid's area, in the plane rotation maps the
    source to, and the pieces that form it, as plan says (see _plan): for
    each, its points in the rectangle's unit frame, as homogeneous ints,
    and its exact motion from the source into the rectangle's plane.

    A trapezoid whose sides are not parallel is cut through the midpoint
    M of its steeper side (the upper one on a tie), parallel to the
    flatter one, and the part cut off turns a half turn about M: the
    cut and the steeper side both pass through M, so it fills the gap
    on M's other side, and the two make a parallelogram spanned by a
    vertical side b of height h, the trapezoid's mean height, and a side
    a along the flatter side.  Of b and a, the band side e is kept and
    the other, f, is replaced by its part f - mu e perpendicular to e.
    Cut into bands across e at steps of e's length, each moved back by
    a multiple of e, the parallelogram is that rectangle: each line
    along e meets it in one segment of e's length, which the bands wrap
    onto the rectangle's.  With e = b the rectangle is axis-aligned and
    the bands horizontal, each moved down by a multiple of h.  The band
    of a piece is not cut here: a frame polygon lies in the rectangle,
    so clipping it by the piece moved back a band is clipping it by
    that band of the piece.
    """
    x0, x1, yl0, yl1, yu0, yu1 = trapezoid
    _, slanted, on_v, _ = plan
    width = x1 - x0
    dl, du = yl1 - yl0, yu1 - yu0
    corners = [(x0, yl0), (x1, yl1), (x1, yu1), (x0, yu0)]
    trapezoid_pts = [q for k, q in enumerate(corners) if q != corners[k - 1]]
    if dl == du:
        parts = [(trapezoid_pts, 1, (0, 0))]
        bottom, rise = yl0, dl
    else:
        xm = (x0 + x1) / 2
        if abs(du) >= abs(dl):  # keep what is below the cut, parallel to the lower side
            ym, rise = (yu0 + yu1) / 2, dl
            bottom = yl0
            keep, turn = (xm, ym, -width, -rise), (xm, ym, width, rise)
        else:
            ym, rise = (yl0 + yl1) / 2, du
            bottom = ym - rise / 2
            keep, turn = (xm, ym, width, rise), (xm, ym, -width, -rise)
        turned = [(2 * xm - x, 2 * ym - y) for x, y in _clip_convex_raw(trapezoid_pts, [turn])]
        parts = [(_clip_convex_raw(trapezoid_pts, [keep]), 1, (0, 0)), (turned, -1, (2 * xm, 2 * ym))]
    a, b = Point2(width, rise), Point2(0, (yu0 - yl0 + yu1 - yl1) / 2)
    e, f = (a, b) if slanted else (b, a)
    e_sq = e.norm_sq()
    mu = f.dot(e) / e_sq
    f_perp = f - e.scaled(mu)
    u, v = (e, f_perp) if slanted else (f_perp, e)
    c0 = Point2(x0, bottom) + e.scaled(min(mu, 0))  # the parallelogram's least point along e
    corners = [c0, c0 + u, c0 + u + v, c0 + v]
    if on_v:
        corners = corners[1:] + corners[:1]  # based on the side v
    rect = RectangleForm.from_corners(corners)
    c, s = rotation.rot_cos, rotation.rot_sin
    clippers = []
    ex, ey = e
    for pts, sign, (tx, ty) in parts:
        along = [(x - c0.x) * ex + (y - c0.y) * ey for x, y in pts]  # e_sq times the bands
        for k in range(math.floor(min(along) / e_sq), math.ceil(max(along) / e_sq)):
            dx, dy = k * ex, k * ey
            moved = [Point2(x - dx, y - dy) for x, y in pts] if k else map(Point2._make, pts)
            frame = [_homogeneous(*rect.frame_coords(q)) for q in moved]
            clippers.append((frame, RigidMotion(sign * c, sign * s, Point2(tx - dx, ty - dy))))
    return rect, clippers


def _frame_to_source(r: RectangleForm, m: RigidMotion) -> tuple:
    """The _int_affine map that sends frame coordinates (a, b) to the source
    point which m places at corners[0] + a*u + b*v."""
    back = invert_motion(m)
    c, s = back.rot_cos, back.rot_sin
    u, v = r.u, r.v
    return _int_affine(
        apply_motion(back, r.corners[0]),
        (c * u.x - s * u.y, s * u.x + c * u.y),
        (c * v.x - s * v.y, s * v.x + c * v.y),
    )


def overlay_charts(ca: DissectionChart, cb: DissectionChart) -> DissectionChart:
    """Mutual dissection from two charts sharing the same target rectangle.

    Every piece of ca is intersected with every piece of cb inside the
    shared rectangle (numerically, at convex-part granularity: convex
    pieces clip whole, non-convex ones via their triangulations); each
    fragment, mapped back by the inverse of its ca motion, becomes a
    float piece of the source-of-ca to source-of-cb chart, less the
    vertices _left_turns drops.  Fragments below the sliver threshold are
    dropped and listed in the chart's sliver_report.
    """
    if ca.target != cb.target:
        raise TargetMismatch("charts do not share a target rectangle")
    total_area = float(polygon_area(ca.target))
    threshold = SLIVER_FRACTION * total_area

    placed_a = _placed(ca)
    placed_b = _placed(cb)
    parts_a, bounds_a = parts_and_bounds(placed_a)
    parts_b, bounds_b = parts_and_bounds(placed_b)

    pieces: list[tuple] = []
    target_motions: list[NumericMotion] = []
    slivers: list[tuple[int, int, float]] = []
    for ia, ib in overlapping_pairs(bounds_a, bounds_b):
        ma, mb = ca.target_motions[ia], cb.target_motions[ib]
        back_a = invert_numeric(ma)
        relative = compose_numeric(invert_numeric(mb), ma)
        for frag, area2 in part_clips(parts_a[ia], parts_b[ib]):
            frag_area = area2 / 2.0
            if frag_area < threshold:
                if frag_area > 0.0:
                    slivers.append((ia, ib, frag_area))
                continue
            piece = _left_turns(apply_numeric_points(back_a, frag), relative)
            if len(piece) >= 3:
                pieces.append(piece)
                target_motions.append(relative)
    return DissectionChart(pieces, target_motions, ca.source, cb.source, slivers)


def _left_turns(pts, m: NumericMotion) -> tuple:
    """The float points pts, less each vertex at which they, or their
    images under m, do not turn strictly left, one vertex at a time.

    A fragment of two convex parts is convex, so such a vertex is
    rounding's: a repeated point, a straight one, or a 1-ulp notch that,
    mapped back and forward again, becomes a spike no ear clip can cut.
    No tolerance enters; the test is the sign of a float orientation in
    the two planes verify_chart sees the piece in.
    """
    pts = list(pts)
    placed = apply_numeric_points(m, pts)
    changed = True
    while changed and len(pts) >= 3:
        changed = False
        for i in range(len(pts)):
            j = (i + 1) % len(pts)
            if _orient(pts[i - 1], pts[i], pts[j]) <= 0 or _orient(placed[i - 1], placed[i], placed[j]) <= 0:
                del pts[i], placed[i]
                changed = True
                break
    return tuple(pts)


# ---------------------------------------------------------------------------
# chart verification and serialization


def verify_chart(c: DissectionChart, tolerance: float = CHART_TOLERANCE) -> VerifyReport:
    """Check the source-side partition and the target-side assembly.

    The source side is exact (disjointness, containment, and areas
    summing exactly) when the chart is all-rational, else it is checked
    at the tolerance like the target side.  Target-side containment,
    pairwise overlap and the area residual must each stay below
    tolerance times the target area, a finite tolerance >= 0.
    """
    check_tolerance(tolerance)
    exact = c.source_exact
    failures, computed = _partition_failures(
        c.pieces, c.source, 0 if exact else tolerance, exact,
        ("SourceDisjoint", "SourceContainment", "SourceArea"), "source",
    )
    target_failures, _ = _partition_failures(
        _placed(c), c.target, tolerance, False,
        ("TargetOverlap", "TargetContainment", "TargetArea"), "target",
    )
    failures += target_failures
    return VerifyReport(failures, computed)


def _placed(c: DissectionChart) -> list:
    """Float vertices of each piece moved by its target motion."""
    return [apply_numeric_points(m, pts) for pts, m in zip(c.pieces, c.target_motions)]


def chart_to_json(c: DissectionChart) -> dict:
    encode = rational_to_json if c.source_exact else float
    return {
        "source": [point_to_json(v) for v in c.source],
        "target": [point_to_json(v) for v in c.target],
        "pieces": [[[encode(x), encode(y)] for x, y in pts] for pts in c.pieces],
        "target_motions": [
            {"angle_rad": m.angle_rad, "tx": m.tx, "ty": m.ty} for m in c.target_motions
        ],
    }


def _float_piece(piece) -> tuple:
    """An approximate chart's piece: float (x, y) points, each coordinate
    read exactly and then rounded, so a finite one; 3 or more of them."""
    try:
        points = tuple((float(p.x), float(p.y)) for p in map(point_from_json, piece))
    except OverflowError as exc:
        raise DissectionError(f"a piece coordinate is beyond the float range: {exc}") from None
    if len(points) < 3:
        raise DissectionError(f"a chart piece needs 3 or more vertices, got {len(points)}")
    return points


def _motion_value(value) -> float:
    """A target motion value: a JSON int or float, not a bool, finite as a
    double.  An int beyond the double range raises OverflowError."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise DissectionError(f"a target motion value must be a finite number, got {value!r:.40}")
    return float(value)


def chart_from_json(obj) -> DissectionChart:
    """Read a chart written by chart_to_json.

    The exactness rule: a chart is approximate when any piece coordinate
    is a JSON float, and exact otherwise.  An exact chart's pieces are
    validated SimplePolygons.  An approximate chart's pieces are tuples
    of finite float (x, y) points, at least 3 per piece, and are not
    validated as exact polygons: a chart that verify_chart accepts may
    hold float vertices 6e-16 apart, which exact validation rejects.
    verify_chart checks them.  Source and target are exact polygons
    either way, and each target motion value is a finite JSON int or
    float, not a bool.  Any malformed or non-finite value is a
    DissectionError.
    """
    try:
        source = SimplePolygon([point_from_json(v) for v in obj["source"]])
        target = SimplePolygon([point_from_json(v) for v in obj["target"]])
        exact = not any(
            isinstance(x, float) for piece in obj["pieces"] for coord in piece for x in coord
        )
        if exact:
            pieces = [SimplePolygon([point_from_json(v) for v in piece]) for piece in obj["pieces"]]
        else:
            pieces = [_float_piece(piece) for piece in obj["pieces"]]
        motions = [
            NumericMotion(*map(_motion_value, (m["angle_rad"], m["tx"], m["ty"])))
            for m in obj["target_motions"]
        ]
        if len(motions) != len(pieces):
            raise DissectionError("piece and motion counts differ")
        return DissectionChart(pieces, motions, source, target)
    except DissectionError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DissectionError(f"bad chart encoding: {exc}") from exc
