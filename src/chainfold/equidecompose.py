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

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exact_geom import (
    IDENTITY_MOTION,
    Point2,
    RigidMotion,
    SimplePolygon,
    _bbox,
    _bboxes_interiors_overlap,
    _convex_clip,
    _dedupe_collinear,
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
from .figures import VerifyReport, _partition_failures, check_tolerance
from .numeric import (
    NUMERIC_IDENTITY,
    NumericMotion,
    apply_numeric_points,
    compose_numeric,
    float_polygon,
    invert_numeric,
    numeric_between_segments,
    numeric_from_rigid,
)
from .overlap import clip_parts, convex_parts, pairs_across, partition_residuals

log = logging.getLogger(__name__)

SLIVER_FRACTION = 1e-12  # fragments below this share of the total area are dropped
SNAP_DENOMINATOR = 10**12


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


@dataclass(frozen=True)
class RectangleForm:
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

    def frame_point(self, alpha: Fraction, beta: Fraction) -> Point2:
        """Map intrinsic-frame coordinates in [0,1]^2 to the plane."""
        return self.corners[0] + self.u.scaled(alpha) + self.v.scaled(beta)

    def frame_coords(self, q: Point2) -> tuple[Fraction, Fraction]:
        """Exact inverse of frame_point; u and v are perpendicular, so each
        coordinate is a projection."""
        d = q - self.corners[0]
        return d.dot(self.u) / self.width_sq, d.dot(self.v) / self.height_sq


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
    area2 = _signed_area2([v.as_tuple() for v in verts])
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

    area = area2 / 2
    half_alt = (b - a).rot90().scaled(area / side_sq[base_i])
    m1 = Point2((a.x + c.x) / 2, (a.y + c.y) / 2)
    m2 = Point2((b.x + c.x) / 2, (b.y + c.y) / 2)
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
    return RigidMotion(Fraction(-1), Fraction(0), center + center)


# ---------------------------------------------------------------------------
# width normalization


@dataclass(frozen=True)
class _FramePiece:
    """A convex piece of a rectangle in intrinsic-frame coordinates with its
    numeric motion into the normalized axis-aligned rectangle."""

    frame_polygon: tuple  # tuples of rational (alpha, beta)
    motion: NumericMotion


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
    re-validation.
    """
    w = rat(w)
    if w <= 0:
        raise BadWidth(f"target width must be positive, got {w}")
    h_out = r.area() / w
    out_rect = RectangleForm.axis_aligned(w, h_out)
    pieces = []
    motions = []
    for fp in _normalize_frame_pieces(r, w):
        corners = [r.frame_point(alpha, beta) for alpha, beta in fp.frame_polygon]
        pieces.append(SimplePolygon(corners, _validated=True))
        motions.append(fp.motion)
    return pieces, motions, out_rect


def _choose_halvings(len_u_sq: Fraction, w: Fraction) -> int:
    """Exact k with 4**k * w**2 <= |u|**2 < 4**(k+1) * w**2."""
    a = math.sqrt(float(len_u_sq))
    guess = math.floor(math.log2(max(a / float(w), 1e-300)))
    k = guess
    w_sq = w * w
    while len_u_sq < Fraction(4) ** k * w_sq:
        k -= 1
    while len_u_sq >= Fraction(4) ** (k + 1) * w_sq:
        k += 1
    return k


def _normalize_frame_pieces(r: RectangleForm, w: Fraction) -> list[_FramePiece]:
    len_u_sq = r.width_sq
    k = _choose_halvings(len_u_sq, w)

    a = math.sqrt(float(len_u_sq))
    b = math.sqrt(float(r.height_sq))
    a_prime = a / (2.0**k)
    b_prime = b * (2.0**k)
    align = numeric_between_segments(
        (float(r.corners[0].x), float(r.corners[0].y)),
        (float(r.corners[1].x), float(r.corners[1].y)),
        (0.0, 0.0),
        (a, 0.0),
    )

    # stacked-frame bands, one per strip, each with its stacking translation
    bands: list[tuple[tuple, NumericMotion]] = []
    if k >= 0:
        count = 2**k
        for i in range(count):
            lo = Fraction(i, count)
            hi = Fraction(i + 1, count)
            band = ((Fraction(0), lo), (Fraction(1), lo), (Fraction(1), hi), (Fraction(0), hi))
            shift = NumericMotion(0.0, -i * a_prime, i * b)
            bands.append((band, shift))
    else:
        count = 2**(-k)
        for j in range(count):
            lo = Fraction(j, count)
            hi = Fraction(j + 1, count)
            band = ((lo, Fraction(0)), (hi, Fraction(0)), (hi, Fraction(1)), (lo, Fraction(1)))
            shift = NumericMotion(0.0, j * a, -j * (b / count))
            bands.append((band, shift))

    exact_fit = len_u_sq == Fraction(4) ** k * (w * w)
    omega = Fraction(1)
    if not exact_fit:
        omega = Fraction(float(w) / a_prime).limit_denominator(SNAP_DENOMINATOR)
        omega = min(max(omega, Fraction(1, 2)), Fraction(1))

    if exact_fit or omega == 1:
        slide_pieces = [
            (
                ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
                 (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))),
                NUMERIC_IDENTITY,
            )
        ]
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

    out: list[_FramePiece] = []
    for band, shift in bands:
        for stacked_piece, slide_motion in slide_pieces:
            frag = _convex_clip([tuple(p) for p in stacked_piece], [tuple(p) for p in band])
            if not frag:
                continue
            frame_poly = tuple(_stacked_to_frame(sigma, tau, band, k) for sigma, tau in frag)
            piece_motion = compose_numeric(slide_motion, compose_numeric(shift, align))
            out.append(_FramePiece(frame_poly, piece_motion))
    return out


def _stacked_to_frame(sigma: Fraction, tau: Fraction, band, k: int):
    """Invert the per-strip map from intrinsic frame to stacked-frame coords."""
    if k >= 0:
        count = 2**k
        i = int(band[0][1] * count)  # band lower bound identifies the strip
        return ((sigma + i) / count, tau * count - i)
    count = 2**(-k)
    j = int(band[0][0] * count)
    return (sigma * count - j, (tau + j) / count)


def stack_rectangles(rects) -> tuple[list[NumericMotion], RectangleForm]:
    """Stack equal-width axis-aligned rectangles upward from y = 0."""
    rects = list(rects)
    if not rects:
        raise DissectionError("nothing to stack")
    w_sq = rects[0].width_sq
    for r in rects[1:]:
        if r.width_sq != w_sq:
            raise WidthMismatch(f"widths differ: {r.width_sq} vs {w_sq}")
    motions = []
    offset = Fraction(0)
    for r in rects:
        motions.append(NumericMotion(0.0, 0.0, float(offset)))
        offset += r.area() / _exact_sqrt(w_sq)
    total = RectangleForm.axis_aligned(_exact_sqrt(w_sq), offset)
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


@dataclass
class DissectionChart:
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
    sliver_report: list = field(default_factory=list)


def polygon_to_canonical_chart(p: SimplePolygon, w) -> DissectionChart:
    """Dissect a polygon to the canonical w x (area/w) rectangle.

    Composition of triangulation, triangle-to-rectangle, width
    normalization and stacking; the pieces refine all stage cuts and
    remain exact rational in source coordinates.

    Each rectangle's width-normalized pieces are cut against its
    triangle pieces in the rectangle's unit frame, where the edges on the
    unit square's boundary are axis-parallel, and each fragment is mapped
    to the source once.  Positive-determinant affine maps commute exactly
    with clipping, so the fragments equal those cut in the source plane.
    A fragment is an exact clip of a strictly convex piece by a convex
    one, which repeats no vertex and has no three collinear (see
    _clip_convex_raw), so it is built without re-validation.
    """
    w = rat(w)
    if w <= 0:
        raise BadWidth(f"target width must be positive, got {w}")
    area = polygon_area(p)
    h_total = area / w
    target = RectangleForm.axis_aligned(w, h_total).polygon()

    direct = _axis_aligned_width_w(p, w)
    if direct is not None:
        return DissectionChart([p], [direct], p, target)

    stages = [triangle_to_rectangle(tri) for tri in triangulate_simple(p)]
    stack_shifts, _ = stack_rectangles(
        RectangleForm.axis_aligned(w, rect.area() / w) for _, rect, _ in stages
    )
    pieces: list[SimplePolygon] = []
    target_motions: list[NumericMotion] = []
    for (tri_pieces, rect, tri_motions), stack_shift in zip(stages, stack_shifts):
        clippers = []
        for piece, m in zip(tri_pieces, tri_motions):
            pts = [rect.frame_coords(apply_motion(m, q)) for q in piece.vertices]
            clippers.append((pts, _bbox(pts), _frame_to_source(rect, m), numeric_from_rigid(m)))
        for fp in _normalize_frame_pieces(rect, w):
            box = _bbox(fp.frame_polygon)
            for pts, clip_box, (origin, ex, ey), rigid in clippers:
                if not _bboxes_interiors_overlap(clip_box, box):
                    continue
                frag = _convex_clip(fp.frame_polygon, pts)
                if not frag:
                    continue
                pieces.append(SimplePolygon(
                    [
                        Point2(origin.x + ex.x * a + ey.x * b, origin.y + ex.y * a + ey.y * b)
                        for a, b in frag
                    ],
                    _validated=True,
                ))
                target_motions.append(
                    compose_numeric(stack_shift, compose_numeric(fp.motion, rigid))
                )
    return DissectionChart(pieces, target_motions, p, target)


def _frame_to_source(r: RectangleForm, m: RigidMotion) -> tuple[Point2, Point2, Point2]:
    """Affine map (origin, ex, ey), (a, b) -> origin + a*ex + b*ey, that sends
    frame coordinates to the source point which m places at r.frame_point(a, b)."""
    back = invert_motion(m)
    c, s = back.rot_cos, back.rot_sin
    u, v = r.u, r.v
    return (
        apply_motion(back, r.corners[0]),
        Point2(c * u.x - s * u.y, s * u.x + c * u.y),
        Point2(c * v.x - s * v.y, s * v.x + c * v.y),
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
    dropped and logged.
    """
    if ca.target != cb.target:
        raise TargetMismatch("charts do not share a target rectangle")
    total_area = float(polygon_area(ca.target))
    threshold = SLIVER_FRACTION * total_area

    placed_a = _placed(ca)
    placed_b = _placed(cb)
    parts_a = [convex_parts(pts) for pts in placed_a]
    parts_b = [convex_parts(pts) for pts in placed_b]

    pieces: list[tuple] = []
    target_motions: list[NumericMotion] = []
    slivers: list[tuple[int, int, float]] = []
    for ia, ib in pairs_across([_bbox(p) for p in placed_a], [_bbox(p) for p in placed_b]):
        ma, mb = ca.target_motions[ia], cb.target_motions[ib]
        back_a = invert_numeric(ma)
        relative = compose_numeric(invert_numeric(mb), ma)
        for frag in clip_parts(parts_a[ia], parts_b[ib]):
            frag = _dedupe_collinear(frag)
            if len(frag) < 3:
                continue
            frag_area = _signed_area2(frag) / 2.0
            if frag_area < threshold:
                if frag_area > 0.0:
                    slivers.append((ia, ib, frag_area))
                continue
            pieces.append(tuple(_dedupe_collinear(apply_numeric_points(back_a, frag))))
            target_motions.append(relative)
    if slivers:
        log.info("overlay dropped %d sliver fragments", len(slivers))
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
    source, source_area2 = c.source.as_tuples(), 2 * polygon_area(c.source)
    if not exact:
        source, source_area2 = float_polygon(source), float(source_area2)
    failures, computed = _partition_failures(
        partition_residuals(_piece_points(c), source), source_area2,
        0 if exact else tolerance, exact,
        ("SourceDisjoint", "SourceContainment", "SourceArea"), "source",
    )
    target_failures, _ = _partition_failures(
        partition_residuals(_placed(c), float_polygon(c.target.as_tuples())),
        float(2 * polygon_area(c.target)), tolerance, False,
        ("TargetOverlap", "TargetContainment", "TargetArea"), "target",
    )
    failures += target_failures
    return VerifyReport(not failures, failures, computed)


def _piece_points(c: DissectionChart) -> list:
    """Each piece's vertices as (x, y) pairs: rationals from an exact
    chart's SimplePolygons, the stored float tuples of an approximate one."""
    if c.source_exact:
        return [p.as_tuples() for p in c.pieces]
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


def chart_from_json(obj) -> DissectionChart:
    """Read a chart written by chart_to_json.

    The exactness rule: a chart is approximate when any piece coordinate
    is a JSON float, and exact otherwise.  An exact chart's pieces are
    validated SimplePolygons.  An approximate chart's pieces are tuples
    of finite float (x, y) points, at least 3 per piece, and are not
    validated as exact polygons: a chart that verify_chart accepts may
    hold float vertices 6e-16 apart, which exact validation rejects.
    verify_chart checks them.  Source and target are exact polygons
    either way.  Any malformed or non-finite value is a DissectionError.
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
            NumericMotion(float(m["angle_rad"]), float(m["tx"]), float(m["ty"]))
            for m in obj["target_motions"]
        ]
        if len(motions) != len(pieces):
            raise DissectionError("piece and motion counts differ")
        return DissectionChart(pieces, motions, source, target, exact)
    except DissectionError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DissectionError(f"bad chart encoding: {exc}") from exc
