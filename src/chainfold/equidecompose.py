"""Classical equidecomposition between equal-area polygons.

Pipeline: turn the polygon by one rational rotation, cut it into
trapezoids with vertical parallel sides by one vertical sweep, turn
each into a rectangle by a half turn and translations (vertical ones,
which make it axis-aligned, unless its sides are too steep for them),
convert every rectangle to a common width, stack the results into one
rectangle, and overlay two such stacks to obtain a mutual dissection.

Arithmetic is hybrid.  Every cut is exact rational in source
coordinates, so the source side of a chart partitions the input polygon
exactly.  The rotation choice, the cuts and the maps between planes run
on ints (a side's y held over its dx, homogeneous points, int
matrices), and each output coordinate becomes one Fraction.  The
assembly motions are carried numerically, and the target side of a
chart is verified against a tolerance.  The one place a cut position is
irrational by nature (the slide that fixes the width) is snapped to a
nearby rational fraction; the snap error is around 1e-12 relative, far
below the 1e-9 verification tolerance.
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
    _clip_homogeneous,
    _convex_clip,  # noqa: F401 - looked up by perfbench/tracing.py
    _int_affine,
    _lines,
    _orient,
    _map_homogeneous,
    _signed_area2,
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
)
from .overlap import overlapping_pairs, part_clips, parts_and_bounds

SLIVER_FRACTION = 1e-12  # fragments below this share of the total area are dropped
SNAP_DENOMINATOR = 10**12
MAX_HALVINGS = 10  # width normalization cuts a rectangle into at most 2**10 strips
MAX_TRAPEZOID_PIECES = 9 * 2**MAX_HALVINGS  # caps a trapezoid's predicted pieces (see _scaled_plan)
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


def _in_float_range(value, what: str, den: int = 1) -> float:
    """value / den as a float for the numeric motions, value an int or
    Fraction and den a positive int: the quotient of two ints, rounded
    once, as float() of a Fraction is.  A DissectionError when it is
    beyond the float range, or is nonzero and rounds to 0."""
    num, den = value.numerator, value.denominator * den
    try:
        f = num / den
    except OverflowError:
        f = math.inf
    if math.isinf(f) or (f == 0.0 and num != 0):
        raise DissectionError(f"{what} {_value_text(Fraction(num, den))} is outside the float range")
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
    frame = _int_affine(r.corners[0], r.u, r.v)
    frame_pieces = _normalize_frame_pieces(frame, w)
    pieces = [_rational_polygon(_map_homogeneous(frame, fp)) for fp, _ in frame_pieces]
    return pieces, [motion for _, motion in frame_pieces], out_rect


def _normalize_frame_pieces(frame, w: Fraction) -> list[tuple[list, NumericMotion]]:
    """Width normalization in a rectangle's unit frame.

    The rectangle is given as the _int_affine map of its frame,
    (a, b) -> c + a*u + b*v for its corner c and its perpendicular sides
    u and v, counterclockwise.  Returns (frame polygon, motion) pairs:
    each a convex piece in frame coordinates, as homogeneous int points
    (as exact_geom holds them), with its numeric motion into the
    normalized axis-aligned rectangle.  Each strip is cut out of the
    slide pieces in stacked-frame coordinates and mapped to frame
    coordinates by an integer affine map, all on homogeneous ints.  A
    rectangle whose side or corner does not fit a float, or which needs
    more than MAX_HALVINGS halvings or doublings, is rejected before any
    strip is built.
    """
    (ux, vx, cx), (uy, vy, cy), den = frame
    den_sq = den * den
    len_u_sq = ux * ux + uy * uy  # over den_sq
    a = math.sqrt(_in_float_range(len_u_sq, "a rectangle side squared", den_sq))
    b = math.sqrt(_in_float_range(vx * vx + vy * vy, "a rectangle side squared", den_sq))
    c0, _ = (
        tuple(_in_float_range(v, "a rectangle corner coordinate", den) for v in corner)
        for corner in ((cx, cy), (cx + ux, cy + uy))
    )
    wn, wd = w.numerator, w.denominator
    w_sq = den_sq * wn * wn  # w**2, over den_sq and wd**2 like len_u_sq
    len_u_sq *= wd * wd
    k = _halvings(len_u_sq, w_sq) // 2  # 4**k * w**2 <= |u|**2 < 4**(k + 1) * w**2
    if abs(k) > MAX_HALVINGS:
        raise BadWidth(
            f"width {_value_text(w)} needs 2**{abs(k)} strips of a rectangle of side "
            f"{a:g}; at most 2**{MAX_HALVINGS}"
        )

    a_prime = a / (2.0**k)
    b_prime = b * (2.0**k)
    align = _aligning(c0, (ux, uy))

    # an exact fit needs no slide; it is tested exactly, since a float
    # side whose square is subnormal can be far enough off to snap below 1
    omega = Fraction(1)
    if len_u_sq << max(0, -2 * k) != w_sq << max(0, 2 * k):
        omega = Fraction(float(w) / a_prime).limit_denominator(SNAP_DENOMINATOR)
        omega = min(max(omega, Fraction(1, 2)), Fraction(1))
    if omega == 1:
        slides = [([(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)], NUMERIC_IDENTITY)]
    else:
        # omega = p/q in [1/2, 1), lam = 1/omega - 1 = (q - p)/p in (0, 1];
        # the cut points (omega, 0), (1 - omega, 1 - lam) and (1 - omega, 1)
        p, q = omega.numerator, omega.denominator
        foot, mid, top = (p, 0, q), ((q - p) * p, (2 * p - q) * q, p * q), (q - p, q, q)
        lam_f = (q - p) / p
        w_eff = p / q * a_prime
        slides = [
            ([(0, 0, 1), foot, (0, 1, 1)], NUMERIC_IDENTITY),
            ([(0, 1, 1), mid, top], NumericMotion(0.0, 2.0 * w_eff - a_prime, b_prime * (lam_f - 1.0))),
            ([mid, foot, (1, 0, 1), (1, 1, 1), top], NumericMotion(0.0, w_eff - a_prime, b_prime * lam_f)),
        ]

    # one stacked-frame band per strip, with its stacking translation and
    # the int affine map from stacked-frame to frame coordinates
    out = []
    count = 2 ** abs(k)
    for i in range(count):
        if k >= 0:  # strip i of the base, stacked i heights up: (a, b) -> ((a + i)/count, count*b - i)
            band = [(0, i, count), (count, i, count), (count, i + 1, count), (0, i + 1, count)]
            shift = NumericMotion(0.0, -i * a_prime, i * b)
            to_frame = (1, 0, i), (0, count * count, -i * count), count
        else:  # strip i of the height, moved i base lengths along: (a, b) -> (count*a - i, (b + i)/count)
            band = [(i, 0, count), (i + 1, 0, count), (i + 1, count, count), (i, count, count)]
            shift = NumericMotion(0.0, i * a, -i * (b / count))
            to_frame = (count * count, 0, -i * count), (0, 1, i), count
        lines = _lines(band)
        for stacked_piece, slide_motion in slides:
            frag = _clip_homogeneous(stacked_piece, lines)
            if not frag:
                continue
            piece_motion = compose_numeric(slide_motion, compose_numeric(shift, align))
            out.append((_map_homogeneous(to_frame, frag), piece_motion))
    return out


def _aligning(c0: tuple[float, float], u: tuple[int, int]) -> NumericMotion:
    """The float motion that takes c0 to the origin and the side u, an int
    vector over any positive denominator, onto the positive x axis.  Its
    angle is read from u, not from two float corners: a short side far
    from the origin would lose its direction to their rounding."""
    m = max(abs(u[0]), abs(u[1]))
    angle = 0.0 - math.atan2(u[1] / m, u[0] / m)
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

    One rational rotation R is chosen first, with the vertical sweep that
    cuts R(p) into trapezoids whose parallel sides are vertical and a
    plan for each (see _chosen_rotation).  _trapezoid_clippers turns each
    trapezoid into a rectangle by a half turn and translations, as its
    plan says: vertical ones, which make it axis-aligned, or ones along
    its flatter side.  Each rectangle is width-normalized, and one pass
    stacks it on the earlier ones' areas over w.  Every cut is exact
    rational in source coordinates.

    Each rectangle's width-normalized pieces are cut against its
    trapezoid's pieces in the rectangle's unit frame, and each fragment is
    mapped to the source once.  Positive-determinant affine maps commute
    exactly with clipping, so the fragments equal those cut in the source
    plane.  The clips and the maps run on homogeneous ints, and each
    output coordinate becomes one Fraction; the only Fractions built
    before them are the candidate rotations' t, each rectangle's width
    snap and the stacking heights.  The sweep's int trapezoids and their
    int plans go from the rotation choice to the cut as they are.  A
    fragment is an exact clip of a strictly convex piece by a convex
    one, which repeats no vertex and has no three collinear (see
    _clip_convex_raw), so it is built without re-validation.

    The motions are floats, so a coordinate, the area or the width that
    does not fit a float (beyond its range, or nonzero and rounding to
    0) is a DissectionError.  When every rotation has a trapezoid that
    passes a cap, a rectangle of over 2**MAX_HALVINGS strips or over
    MAX_TRAPEZOID_PIECES predicted pieces, the first such trapezoid's
    BadWidth is raised before any cut.
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

    t, scale, planned = _chosen_rotation(p, w)
    for _, plan in planned:
        _check_plan(plan, w)
    pieces, target_motions, height = [], [], 0
    for trapezoid, plan in planned:
        frame, clippers = _trapezoid_clippers(trapezoid, plan, t, scale)
        stack_shift = NumericMotion(0.0, 0.0, float(height))
        (ux, vx, _), (uy, vy, _), den = frame
        height += Fraction((ux * vy - uy * vx) * w.denominator, den * den * w.numerator)
        for frame_polygon, motion in _normalize_frame_pieces(frame, w):
            for lines, to_source, rigid in clippers:
                frag = _clip_homogeneous(frame_polygon, lines)
                if not frag:
                    continue
                pieces.append(_rational_polygon(_map_homogeneous(to_source, frag)))
                target_motions.append(
                    compose_numeric(stack_shift, compose_numeric(motion, rigid))
                )
    return DissectionChart(pieces, target_motions, p, target)


def _chosen_rotation(p: SimplePolygon, w: Fraction) -> tuple[Fraction, int, list[tuple]]:
    """(t, scale, [(trapezoid, plan), ...]): the t of a rational rotation
    R about the origin, and the trapezoids of R(p) in the sweep's order,
    each as _trapezoids yields it, in units of 1/scale, with its _plan.

    The candidates are the identity and, for each side, the rotation by
    (cos, sin) = ((1 - t**2)/(1 + t**2), 2t/(1 + t**2)) whose t is near
    tan(-phi/2), phi the side's direction (see _rotation_candidates): it
    turns that side nearly horizontal.  Each candidate's trapezoids are
    swept on ints, p scaled by its least common denominator d and R by
    n = b**2 (1 + t**2), for t = a/b, so scale is d n; the one of fewest
    predicted pieces wins, the earlier on a tie, so a sweep stops once
    its count reaches the best so far.  A trapezoid whose plan passes
    MAX_TRAPEZOID_PIECES or the strip cap counts infinitely many.  The
    sweeps and plans run on ints, only the candidates' t are Fractions,
    and no float is used, so the choice is the same on every platform,
    and it is unchanged by a translation or a positive rational scaling
    of p and w.
    """
    d = math.lcm(*(c.denominator for v in p for c in v))
    pts = [tuple(c.numerator * (d // c.denominator) for c in v) for v in p]
    best = None
    for t in _rotation_candidates(pts):
        a, b = t.numerator, t.denominator
        c, s, n = b * b - a * a, 2 * a * b, a * a + b * b
        w_num = w.numerator * d * n  # w is w_num / w.denominator in the sweep's units
        total, planned = 0, []
        for trapezoid in _trapezoids([(c * x - s * y, s * x + c * y) for x, y in pts]):
            plan = _plan(trapezoid, w_num, w.denominator)
            planned.append((trapezoid, plan))
            total += plan[0] if plan[0] <= MAX_TRAPEZOID_PIECES else math.inf
            if best is not None and total >= best[0]:
                break
        if best is None or total < best[0]:
            best = total, t, d * n, planned
    return best[1:]


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


def _trapezoids(pts):
    """Trapezoids partitioning the polygon of int points pts, each with
    vertical parallel sides, yielded by a vertical sweep as they close:
    (x0, x1, lower side, upper side), a side (ax, ay, bx, by) with
    ax < bx.

    The sweep keeps the non-vertical sides that cross the sweep line in
    one list, bottom to top.  Sides never cross, so their order changes
    only at vertices: at each vertex x, the sides that end there leave
    the list, and each that begins there is placed by a binary search on
    ints, by the side of each listed one its left end lies on, or, at a
    shared end, by slope.  Consecutive pairs of the list bound the pieces
    inside the polygon, and a trapezoid grows while its pair of sides
    stays a pair.  The list changes between its first and last changed
    positions, rounded out to whole pairs, so only the pairs there can
    close or open: those that close are yielded in the order they were
    opened, and those that open are opened bottom to top.  The order is
    the sweep's, so it depends on the polygon alone."""
    sides = [
        (ax, ay, bx, by) if ax < bx else (bx, by, ax, ay)
        for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]) if ax != bx
    ]
    events: dict[int, tuple[list, list]] = {}  # x -> (sides ending there, sides beginning there)
    for i, (ax, _, bx, _) in enumerate(sides):
        events.setdefault(bx, ([], []))[0].append(i)
        events.setdefault(ax, ([], []))[1].append(i)
    active: list[int] = []
    opened: dict[tuple, tuple] = {}  # pair of sides -> (serial, its trapezoid's left x)
    serial = 0
    for x in sorted(events):
        ending, beginning = events[x]
        before = active[:]
        for i in ending:
            active.remove(i)
        for i in beginning:
            _, y, ex, ey = sides[i]
            lo, hi = 0, len(active)
            while lo < hi:
                mid = (lo + hi) // 2
                ax, ay, bx, by = sides[active[mid]]
                above = (bx - ax) * (y - ay) - (by - ay) * (x - ax)  # the new side's left end
                if above == 0:  # a shared left end: the slopes
                    above = (ey - y) * (bx - ax) - (by - ay) * (ex - x)
                if above > 0:
                    lo = mid + 1
                else:
                    hi = mid
            active.insert(lo, i)
        gone = [before.index(i) for i in ending]
        new = [active.index(i) for i in beginning]
        first = min(gone + new)
        kept = min(len(before) - 1 - max(gone, default=-1), len(active) - 1 - max(new, default=-1))
        first -= first & 1  # whole pairs: both lists have an even length
        kept -= kept & 1
        old_span, new_span = before[first:len(before) - kept], active[first:len(active) - kept]
        old_pairs = set(zip(old_span[::2], old_span[1::2]))
        new_pairs = list(zip(new_span[::2], new_span[1::2]))
        for pair in sorted(old_pairs.difference(new_pairs), key=opened.get):
            x0 = opened.pop(pair)[1]
            yield x0, x, sides[pair[0]], sides[pair[1]]
        for pair in new_pairs:
            if pair not in old_pairs:
                opened[pair] = serial, x
                serial += 1


def _halvings(num: int, den: int) -> int:
    """The k with 2**k <= num/den < 2**(k + 1), for positive ints."""
    k = num.bit_length() - den.bit_length()
    if num << max(0, -k) < den << max(0, k):
        k -= 1
    return k


def _plan(trapezoid, w_num: int, w_den: int) -> tuple:
    """How _trapezoid_clippers cuts the parallelogram of a trapezoid of
    _trapezoids into a rectangle, at the width w_num / w_den in the
    sweep's units: (pieces, slanted, on_v, halvings), made by _scaled_plan.
    Each side's y is held over the side's dx, so the plan's lengths are
    ints in units of 1 over twice the two dx and w_den."""
    x0, x1, (lx, ly, lbx, lby), (ux, uy, ubx, uby) = trapezoid
    ldx, ldy, udx, udy = lbx - lx, lby - ly, ubx - ux, uby - uy
    mid = x0 + x1
    lower = ly * (2 * lbx - mid) + lby * (mid - 2 * lx)  # (y at x0 + y at x1) * ldx
    upper = uy * (2 * ubx - mid) + uby * (mid - 2 * ux)
    run = 2 * (x1 - x0) * w_den
    return _scaled_plan(
        run * ldx * udx, (upper * ldx - lower * udx) * w_den, run * ldy * udx, run * udy * ldx,
        2 * ldx * udx * w_num,
    )


def _scaled_plan(width: int, height: int, dl: int, du: int, w: int) -> tuple:
    """The plan of a trapezoid of the given width, mean height and rises
    of its lower and upper sides, for the target width w: positive ints
    but for the rises, all in one unit, so only their ratios count.

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
    many.  The prediction bounds the pieces of one part; a cut
    trapezoid's two parts can each span all of its bands (see
    MAX_TRAPEZOID_PIECES).
    """
    rise = dl if abs(du) >= abs(dl) else du
    cut = dl != du
    bands = -(-abs(rise) // height) + 1
    pieces, on_v, k = _strips(width, height, w, bands + cut)
    plan = pieces, False, on_v, k
    if bands > 2:
        length_sq = width * width + rise * rise
        bands = -(-abs(rise) * height // length_sq) + 1
        # the sides' squares length_sq and (width * height)**2 / length_sq,
        # and w**2, all times length_sq
        side_sq = (width * height) ** 2
        pieces, on_v, k = _strips(length_sq * length_sq, side_sq, w * w * length_sq, bands + cut, 4)
        if pieces < plan[0]:
            plan = pieces, True, on_v, k
    return plan


def _strips(u: int, v: int, w: int, parts: int, step: int = 2) -> tuple:
    """(pieces, on_v, halvings) of a rectangle of sides u and v, each of
    whose strips is cut into parts (see _scaled_plan); u, v and w are
    lengths, or, with step 4, their squares, all positive ints in one
    unit."""
    on_v = max(v, w) * min(u, w) < max(u, w) * min(v, w)  # v/w nearer 1 than u/w
    base = v if on_v else u
    k = _halvings(base, w) // (step // 2)  # step**k * w <= base < step**(k + 1) * w
    if abs(k) > MAX_HALVINGS:
        return math.inf, on_v, k
    fits = base == step**k * w if k >= 0 else base * step**-k == w
    return 2 ** abs(k) * (1 if fits else 3) * parts, on_v, k


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


def _trapezoid_clippers(trapezoid, plan, t: Fraction, scale: int) -> tuple[tuple, list]:
    """A rectangle of the area of a trapezoid of _chosen_rotation, given in
    units of 1/scale, in the plane the rotation R of t maps the source
    to, as the _int_affine map from its unit frame, and the pieces that
    form it, as plan says (see _plan): for each, the _lines of its points
    in the frame, the _int_affine map that takes a frame point to the
    source point its motion places there, and that motion, from the
    source into the rectangle's plane, as a NumericMotion.

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

    All of it runs on ints.  The trapezoid's corners are taken over
    2 ldx udx scale, ldx and udx its sides' runs, less the gcd of their
    ints and ldx udx scale: over twice their least common denominator,
    so they and M are int points.  R is (c, s) / n, less their gcd.  The
    cut is a clip of homogeneous points, and the half turn about M maps
    them to ints again.  One int affine map takes each part into the
    frame.  e lies along a frame axis, and moving a point back by k
    bands moves that frame coordinate by k, so a band's lines, its map
    to the source and its motion's translation are band 0's with an int
    translation added.  Each float of a motion is the quotient of two
    ints, rounded once, as float() of the rational is.
    """
    x0, x1, lower, upper = trapezoid
    ldx, udx = lower[2] - lower[0], upper[2] - upper[0]
    ints = [x0 * ldx * udx, x1 * ldx * udx, *(
        (ay * (bx - x) + by * (x - ax)) * dx  # the side's y at x, over ldx udx scale
        for (ax, ay, bx, by), dx in ((lower, udx), (upper, ldx)) for x in (x0, x1)
    ), ldx * udx * scale]
    g = math.gcd(*ints)
    # every plane coordinate below is an int over scale
    x0, x1, yl0, yl1, yu0, yu1, scale = (2 * v // g for v in ints)
    _, slanted, on_v, _ = plan
    width = x1 - x0
    dl, du = yl1 - yl0, yu1 - yu0
    corners = [(x0, yl0), (x1, yl1), (x1, yu1), (x0, yu0)]
    trapezoid_pts = [(x, y, 1) for k, (x, y) in enumerate(corners) if (x, y) != corners[k - 1]]
    if dl == du:
        parts = [(trapezoid_pts, 1, (0, 0))]
        bottom, rise = yl0, dl
    else:
        xm = (x0 + x1) // 2
        if abs(du) >= abs(dl):  # keep what is below the cut, parallel to the lower side
            ym, rise = (yu0 + yu1) // 2, dl
            bottom, sense = yl0, -1
        else:
            ym, rise = (yl0 + yl1) // 2, du
            bottom, sense = ym - rise // 2, 1
        # the cut through M along sense * (width, rise): what lies left of it is kept
        keep = (-sense * rise, sense * width, sense * (rise * xm - width * ym))
        turned = [
            (2 * xm * wp - x, 2 * ym * wp - y, wp)
            for x, y, wp in _clip_homogeneous(trapezoid_pts, [tuple(-v for v in keep)])
        ]
        parts = [(_clip_homogeneous(trapezoid_pts, [keep]), 1, (0, 0)), (turned, -1, (2 * xm, 2 * ym))]
    a, b = (width, rise), (0, (yu0 - yl0 + yu1 - yl1) // 2)
    (ex, ey), (fx, fy) = (a, b) if slanted else (b, a)
    e_sq = ex * ex + ey * ey
    cross = ex * fy - ey * fx  # f - mu e = cross * e.rot90() / e_sq
    lead = min(fx * ex + fy * ey, 0)  # e_sq times the parallelogram's least point along e
    # the rectangle's corner and sides, times e_sq
    along, across = (e_sq * ex, e_sq * ey), (-cross * ey, cross * ex)
    (ux, uy), (vx, vy) = (along, across) if slanted else (across, along)
    cx, cy = e_sq * x0 + lead * ex, e_sq * bottom + lead * ey
    if on_v:  # based on the side v
        cx, cy, ux, uy, vx, vy = cx + ux, cy + uy, vx, vy, -ux, -uy
    frame = (ux, vx, cx), (uy, vy, cy), e_sq * scale
    uu, vv = ux * ux + uy * uy, vx * vx + vy * vy
    to_frame = (  # the plane to the frame: ((e_sq q - c).u / uu, (e_sq q - c).v / vv)
        (e_sq * vv * ux, e_sq * vv * uy, -vv * (cx * ux + cy * uy)),
        (e_sq * uu * vx, e_sq * uu * vy, -uu * (cx * vx + cy * vy)),
        uu * vv,
    )
    axis = 0 if ux * ey == uy * ex else 1  # the frame axis along e
    sign = 1 if (ux * ex + uy * ey if axis == 0 else vx * ex + vy * ey) > 0 else -1

    # frame point (a, b) of band k of a part is the source point
    # turn * R**-1 (c + a u + b v - e_sq (tx, ty) + k e_sq e) / (e_sq scale),
    # with R**-1 = (c, s; -s, c) / n, and its motion turns by R and turn
    tn, td = t.numerator, t.denominator
    c, s, n = td * td - tn * tn, 2 * tn * td, tn * tn + td * td
    g = math.gcd(c, s, n)
    c, s, n = c // g, s // g, n // g
    sin, cos = s / n, c / n
    angles = {1: math.atan2(sin, cos), -1: math.atan2(0.0 - sin, 0.0 - cos)}
    clippers = []
    for pts, turn, (tx, ty) in parts:
        frame_pts = _map_homogeneous(to_frame, pts)
        lines = _lines(frame_pts)
        # each point's band coordinate (q - c0).e / e_sq, c0 the least point
        # along e: its frame coordinate on the axis, or 1 less it when e
        # points back along the axis
        offsets = [(q[axis] if sign > 0 else q[2] - q[axis], q[2]) for q in frame_pts]
        k0, k1 = min(g // wq for g, wq in offsets), max(-(-g // wq) for g, wq in offsets)
        ox, oy = cx - e_sq * tx, cy - e_sq * ty
        m0 = turn * (c * ux + s * uy), turn * (c * vx + s * vy), turn * (c * ox + s * oy)
        m1 = turn * (c * uy - s * ux), turn * (c * vy - s * vx), turn * (c * oy - s * ox)
        step0, step1 = turn * e_sq * (c * ex + s * ey), turn * e_sq * (c * ey - s * ex)
        for k in range(k0, k1):
            shift = k * sign  # the band's frame points are band 0's less shift on the axis
            clippers.append((
                [(la, lb, lc + shift * (la, lb)[axis]) for la, lb, lc in lines],
                ((*m0[:2], m0[2] + k * step0), (*m1[:2], m1[2] + k * step1), e_sq * scale * n),
                NumericMotion(angles[turn], (tx - k * ex) / scale, (ty - k * ey) / scale),
            ))
    return frame, clippers


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
