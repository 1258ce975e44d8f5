"""Classical equidecomposition between equal-area polygons.

Pipeline: triangulate the polygon, dissect each triangle to a rectangle,
convert every rectangle to a common width, stack the results into one
rectangle, and overlay two such stacks to obtain a mutual dissection.

Arithmetic is hybrid.  Every cut is exact rational in source
coordinates, so the source side of a chart partitions the input polygon
exactly.  Aligning an oblique rectangle with the axes needs an
irrational rotation, so assembly motions are carried numerically and
the target side of a chart is verified against a tolerance.  The one
place a cut position is irrational by nature (the slide that fixes the
width) is snapped to a nearby rational fraction; the snap error is
around 1e-12 relative, far below the 1e-9 verification tolerance.
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
    _dedupe_collinear,
    _homogeneous,
    _int_affine,
    _lines,
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
    triangulate_simple,
)
from .figures import VerifyReport, _partition_failures, _value_text, check_tolerance
from .numeric import (
    NUMERIC_IDENTITY,
    NumericMotion,
    apply_numeric_points,
    compose_numeric,
    invert_numeric,
    numeric_between_segments,
    numeric_from_rigid,
)
from .overlap import overlapping_pairs, part_clips, parts_and_bounds

SLIVER_FRACTION = 1e-12  # fragments below this share of the total area are dropped
SNAP_DENOMINATOR = 10**12
MAX_HALVINGS = 10  # width normalization cuts a rectangle into at most 2**10 strips


class DissectionError(ValueError):
    """Base class for equidecomposition errors."""


class DegenerateTriangle(DissectionError):
    pass


class BadWidth(DissectionError):
    pass


class WidthMismatch(DissectionError):
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
    if isinstance(tri, SimplePolygon):
        verts = tri.vertices
    else:
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


class _FramePiece(NamedTuple):
    """A convex piece of a rectangle in intrinsic-frame coordinates, as
    homogeneous int points (see exact_geom._homogeneous), with its numeric
    motion into the normalized axis-aligned rectangle."""

    frame_polygon: list
    motion: NumericMotion


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
    return SimplePolygon(
        [Point2(Fraction(x, w), Fraction(y, w)) for x, y, w in pts], _validated=True
    )


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
    pieces = []
    motions = []
    for fp in _normalize_frame_pieces(r, w):
        pieces.append(_rational_polygon(_map_homogeneous(to_source, fp.frame_polygon)))
        motions.append(fp.motion)
    return pieces, motions, out_rect


def _choose_halvings(len_u_sq: Fraction, w: Fraction, a: float) -> int:
    """Exact k with 4**k * w**2 <= |u|**2 < 4**(k+1) * w**2, where a is
    the float |u|; a and w are positive floats."""
    k = math.floor(math.log2(a) - math.log2(float(w)))
    w_sq = w * w
    while len_u_sq < Fraction(4) ** k * w_sq:
        k -= 1
    while len_u_sq >= Fraction(4) ** (k + 1) * w_sq:
        k += 1
    return k


def _normalize_frame_pieces(r: RectangleForm, w: Fraction) -> list[_FramePiece]:
    """Width normalization in the rectangle's unit frame.

    Each strip is cut out of the slide pieces in stacked-frame
    coordinates and mapped to frame coordinates by an integer affine
    map, all on homogeneous ints.  A rectangle whose side or corner does
    not fit a float, or which needs more than MAX_HALVINGS halvings or
    doublings, is rejected before any strip is built.
    """
    len_u_sq = r.width_sq
    a = math.sqrt(_in_float_range(len_u_sq, "a rectangle side squared"))
    b = math.sqrt(_in_float_range(r.height_sq, "a rectangle side squared"))
    c0, c1 = (
        tuple(_in_float_range(v, "a rectangle corner coordinate") for v in r.corners[i])
        for i in (0, 1)
    )
    k = _choose_halvings(len_u_sq, w, a)
    if abs(k) > MAX_HALVINGS:
        raise BadWidth(
            f"width {_value_text(w)} needs 2**{abs(k)} strips of a rectangle of side "
            f"{a:g}; at most 2**{MAX_HALVINGS}"
        )

    a_prime = a / (2.0**k)
    b_prime = b * (2.0**k)
    align = numeric_between_segments(c0, c1, (0.0, 0.0), (a, 0.0))

    # stacked-frame bands, one per strip, each with its stacking translation
    # and the int affine map from stacked-frame to frame coordinates
    bands: list[tuple[list, NumericMotion, tuple]] = []
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
        bands.append((band, shift, to_frame))

    exact_fit = len_u_sq == Fraction(4) ** k * (w * w)
    omega = Fraction(1)
    if not exact_fit:
        omega = Fraction(float(w) / a_prime).limit_denominator(SNAP_DENOMINATOR)
        omega = min(max(omega, Fraction(1, 2)), Fraction(1))

    if exact_fit or omega == 1:
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

    out: list[_FramePiece] = []
    for band, shift, to_frame in bands:
        lines = _lines(band)
        for stacked_piece, slide_motion in slides:
            frag = _clip_homogeneous(stacked_piece, lines)
            if not frag:
                continue
            piece_motion = compose_numeric(slide_motion, compose_numeric(shift, align))
            out.append(_FramePiece(_map_homogeneous(to_frame, frag), piece_motion))
    return out


def stack_rectangles(rects) -> tuple[list[NumericMotion], RectangleForm]:
    """Stack equal-width axis-aligned rectangles upward from y = 0."""
    rects = list(rects)
    if not rects:
        raise DissectionError("nothing to stack")
    w_sq = rects[0].width_sq
    for r in rects[1:]:
        if r.width_sq != w_sq:
            raise WidthMismatch(f"widths differ: {r.width_sq} vs {w_sq}")
    w = _exact_sqrt(w_sq)
    motions = []
    offset = 0
    for r in rects:
        motions.append(NumericMotion(0.0, 0.0, float(offset)))
        offset += Fraction(r.area(), w)
    total = RectangleForm.axis_aligned(w, offset)
    return motions, total


def _exact_sqrt(value: Fraction) -> Fraction:
    """Rational square root; stacking requires rationally-sized widths."""
    num = math.isqrt(value.numerator)
    den = math.isqrt(value.denominator)
    if num * num != value.numerator or den * den != value.denominator:
        raise WidthMismatch(f"width sqrt({value}) is irrational")
    return Fraction(num, den)


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
    source_exact: bool = True
    sliver_report: Sequence[tuple[int, int, float]] = ()


def polygon_to_canonical_chart(p: SimplePolygon, w) -> DissectionChart:
    """Dissect a polygon to the canonical w x (area/w) rectangle.

    Composition of triangulation, triangle-to-rectangle, width
    normalization and stacking; the pieces refine all stage cuts and
    remain exact rational in source coordinates.

    Each rectangle's width-normalized pieces are cut against its
    triangle pieces in the rectangle's unit frame, and each fragment is
    mapped to the source once.  Positive-determinant affine maps commute
    exactly with clipping, so the fragments equal those cut in the source
    plane.  Both clips and both maps run on homogeneous ints, and each
    output coordinate becomes one Fraction.  A fragment is an exact clip
    of a strictly convex piece by a convex one, which repeats no vertex
    and has no three collinear (see _clip_convex_raw), so it is built
    without re-validation.

    The motions are floats, so a coordinate, the area or the width that
    does not fit a float (beyond its range, or nonzero and rounding to
    0) is a DissectionError, as are the cases rectangle_to_width rejects.
    """
    w = _width(w)
    for v in p.vertices:
        _in_float_range(v.x, "a coordinate")
        _in_float_range(v.y, "a coordinate")
    area = polygon_area(p)
    _in_float_range(area, "the area")
    h_total = Fraction(area, w)
    _in_float_range(h_total, "the target height")
    target = RectangleForm.axis_aligned(w, h_total).polygon()

    direct = _axis_aligned_width_w(p, w)
    if direct is not None:
        return DissectionChart([p], [direct], p, target)

    stages = [triangle_to_rectangle(tri) for tri in triangulate_simple(p)]
    stack_shifts, _ = stack_rectangles(
        RectangleForm.axis_aligned(w, Fraction(rect.area(), w)) for _, rect, _ in stages
    )
    pieces: list[SimplePolygon] = []
    target_motions: list[NumericMotion] = []
    for (tri_pieces, rect, tri_motions), stack_shift in zip(stages, stack_shifts):
        clippers = []
        for piece, m in zip(tri_pieces, tri_motions):
            pts = [_homogeneous(*rect.frame_coords(apply_motion(m, q))) for q in piece.vertices]
            clippers.append((_lines(pts), _frame_to_source(rect, m), numeric_from_rigid(m)))
        for fp in _normalize_frame_pieces(rect, w):
            for lines, to_source, rigid in clippers:
                frag = _clip_homogeneous(fp.frame_polygon, lines)
                if not frag:
                    continue
                pieces.append(_rational_polygon(_map_homogeneous(to_source, frag)))
                target_motions.append(
                    compose_numeric(stack_shift, compose_numeric(fp.motion, rigid))
                )
    return DissectionChart(pieces, target_motions, p, target)


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


def _axis_aligned_width_w(p: SimplePolygon, w: Fraction):
    """Translation when p already is an axis-aligned rectangle of width w."""
    if len(p.vertices) != 4:
        return None
    for i in range(4):
        d = p.vertices[(i + 1) % 4] - p.vertices[i]
        if d.x != 0 and d.y != 0:
            return None
    xs = [v.x for v in p.vertices]
    ys = [v.y for v in p.vertices]
    if max(xs) - min(xs) != w:
        return None
    return NumericMotion(0.0, -float(min(xs)), -float(min(ys)))


def overlay_charts(ca: DissectionChart, cb: DissectionChart) -> DissectionChart:
    """Mutual dissection from two charts sharing the same target rectangle.

    Every piece of ca is intersected with every piece of cb inside the
    shared rectangle (numerically, at convex-part granularity: convex
    pieces clip whole, non-convex ones via their triangulations); each
    fragment, mapped back by the inverse of its ca motion, becomes a
    float piece of the source-of-ca to source-of-cb chart.  Duplicate and
    collinear vertices are dropped in floats before the sliver test and
    again after the map back.  Fragments below the sliver threshold are
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
        for frag, _ in part_clips(parts_a[ia], parts_b[ib]):
            frag = _dedupe_collinear(frag)  # a copy: frag may be a part itself
            if len(frag) < 3:
                continue
            frag_area = _signed_area2(frag) / 2.0
            if frag_area < threshold:
                if frag_area > 0.0:
                    slivers.append((ia, ib, frag_area))
                continue
            pieces.append(tuple(_dedupe_collinear(apply_numeric_points(back_a, frag))))
            target_motions.append(relative)
    return DissectionChart(
        pieces, target_motions, ca.source, cb.source, source_exact=False, sliver_report=slivers
    )


# ---------------------------------------------------------------------------
# chart verification and serialization


def verify_chart(c: DissectionChart, tolerance: float = 1e-9) -> VerifyReport:
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
        _piece_points(c), c.source.vertices, 0 if exact else tolerance, exact,
        ("SourceDisjoint", "SourceContainment", "SourceArea"), "source",
    )
    target_failures, _ = _partition_failures(
        _placed(c), c.target.vertices, tolerance, False,
        ("TargetOverlap", "TargetContainment", "TargetArea"), "target",
    )
    failures += target_failures
    return VerifyReport(not failures, failures, computed)


def _piece_points(c: DissectionChart) -> list:
    """Each piece's vertices as (x, y) pairs: rationals from an exact
    chart's SimplePolygons, the stored float tuples of an approximate one."""
    if c.source_exact:
        return [p.vertices for p in c.pieces]
    return c.pieces


def _placed(c: DissectionChart) -> list:
    """Float vertices of each piece moved by its target motion."""
    return [apply_numeric_points(m, pts) for pts, m in zip(_piece_points(c), c.target_motions)]


def chart_to_json(c: DissectionChart) -> dict:
    encode = rational_to_json if c.source_exact else float
    return {
        "source": [point_to_json(v) for v in c.source.vertices],
        "target": [point_to_json(v) for v in c.target.vertices],
        "pieces": [[[encode(x), encode(y)] for x, y in pts] for pts in _piece_points(c)],
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
        return DissectionChart(pieces, motions, source, target, exact)
    except DissectionError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DissectionError(f"bad chart encoding: {exc}") from exc
