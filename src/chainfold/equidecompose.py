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
    apply_motion_polygon,
    invert_motion,
    point,
    point_from_json,
    point_to_json,
    polygon_area,
    rat,
    triangulate_simple,
)
from .figures import VerifyReport
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
from .overlap import clip_parts, convex_parts, overlap_sum, pairs_across, pairs_within

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
    are exact in the source plane; placement motions are numeric.
    """
    w = rat(w)
    if w <= 0:
        raise BadWidth(f"target width must be positive, got {w}")
    h_out = r.area() / w
    out_rect = RectangleForm.axis_aligned(w, h_out)
    frame_pieces = _normalize_frame_pieces(r, w)
    pieces = []
    motions = []
    for fp in frame_pieces:
        corners = [r.frame_point(alpha, beta) for alpha, beta in fp.frame_polygon]
        pieces.append(SimplePolygon(corners))
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
            frag = _dedupe_collinear(frag)
            if len(frag) < 3:
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
    """Unhinged dissection: one piece list with two assembly motion sets.

    Pieces live in source coordinates; the source assembly is the
    identity by convention and the target assembly is numeric.  An
    overlay lists the fragments it dropped as (piece of a, piece of b,
    area): slivers below the area threshold in sliver_report, and
    fragments whose vertices fail SimplePolygon validation once mapped
    back to the source in invalid_report.
    """

    pieces: list[SimplePolygon]
    source_motions: list[RigidMotion]
    target_motions: list[NumericMotion]
    source: SimplePolygon
    target: SimplePolygon
    source_exact: bool = True
    sliver_report: list = field(default_factory=list)
    invalid_report: list = field(default_factory=list)


def polygon_to_canonical_chart(p: SimplePolygon, w) -> DissectionChart:
    """Dissect a polygon to the canonical w x (area/w) rectangle.

    Composition of triangulation, triangle-to-rectangle, width
    normalization and stacking; the pieces refine all stage cuts and
    remain exact rational in source coordinates.
    """
    w = rat(w)
    if w <= 0:
        raise BadWidth(f"target width must be positive, got {w}")
    area = polygon_area(p)
    h_total = area / w
    target = RectangleForm.axis_aligned(w, h_total).polygon()

    direct = _axis_aligned_width_w(p, w)
    if direct is not None:
        return DissectionChart([p], [IDENTITY_MOTION], [direct], p, target)

    pieces: list[SimplePolygon] = []
    target_motions: list[NumericMotion] = []
    offset = Fraction(0)
    for tri in triangulate_simple(p):
        tri_pieces, rect, tri_motions = triangle_to_rectangle(tri)
        norm_pieces, norm_motions, out_rect = rectangle_to_width(rect, w)
        stack_shift = NumericMotion(0.0, 0.0, float(offset))
        offset += rect.area() / w

        placed2 = [
            apply_motion_polygon(m2, piece).as_tuples()
            for piece, m2 in zip(tri_pieces, tri_motions)
        ]
        boxes2 = [_bbox(pts) for pts in placed2]
        for norm_piece, norm_motion in zip(norm_pieces, norm_motions):
            pts3 = norm_piece.as_tuples()
            box3 = _bbox(pts3)
            for (pts2, m2, box2) in zip(placed2, tri_motions, boxes2):
                if not _bboxes_interiors_overlap(box2, box3):
                    continue
                frag = _convex_clip(pts3, pts2)
                if not frag:
                    continue
                frag = _dedupe_collinear(frag)
                if len(frag) < 3:
                    continue
                back = invert_motion(m2)
                source_piece = SimplePolygon(
                    [apply_motion(back, Point2(x, y)) for x, y in frag]
                )
                pieces.append(source_piece)
                target_motions.append(
                    compose_numeric(
                        stack_shift,
                        compose_numeric(norm_motion, numeric_from_rigid(m2)),
                    )
                )
    chart = DissectionChart(
        pieces, [IDENTITY_MOTION] * len(pieces), target_motions, p, target
    )
    return chart


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
    fragment becomes a piece of the source-of-ca to source-of-cb chart.
    Fragments below the sliver threshold are dropped and logged.
    """
    if ca.target != cb.target:
        raise TargetMismatch("charts do not share a target rectangle")
    total_area = float(polygon_area(ca.target))
    threshold = SLIVER_FRACTION * total_area

    placed_a = _placed(ca)
    placed_b = _placed(cb)
    parts_a = [convex_parts(pts) for pts in placed_a]
    parts_b = [convex_parts(pts) for pts in placed_b]

    pieces: list[SimplePolygon] = []
    target_motions: list[NumericMotion] = []
    slivers: list[tuple[int, int, float]] = []
    invalid: list[tuple[int, int, float]] = []
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
            source_pts = apply_numeric_points(back_a, frag)
            try:
                piece = SimplePolygon([point(x, y) for x, y in source_pts])
            except ValueError:
                invalid.append((ia, ib, frag_area))
                continue
            pieces.append(piece)
            target_motions.append(relative)
    if slivers or invalid:
        log.info(
            "overlay dropped %d sliver fragments and %d invalid fragments",
            len(slivers),
            len(invalid),
        )
    chart = DissectionChart(
        pieces,
        [IDENTITY_MOTION] * len(pieces),
        target_motions,
        ca.source,
        cb.source,
        source_exact=False,
        sliver_report=slivers,
        invalid_report=invalid,
    )
    return chart


# ---------------------------------------------------------------------------
# chart verification and serialization


def verify_chart(c: DissectionChart, tolerance: float = 1e-9) -> VerifyReport:
    """Check the source-side partition and the target-side assembly.

    The source side is exact (disjointness, containment, and areas
    summing exactly) when the chart is all-rational, else it is checked
    at the tolerance like the target side.  Target-side containment,
    pairwise overlap and the area residual must each stay below
    tolerance times the target area.
    """
    failures: list[tuple[str, str]] = []
    source_area = polygon_area(c.source)
    exact = c.source_exact
    if exact:
        pieces, source, tol_abs = [p.as_tuples() for p in c.pieces], c.source.as_tuples(), 0
    else:
        pieces = [float_polygon(p.as_tuples()) for p in c.pieces]
        source = float_polygon(c.source.as_tuples())
        tol_abs = tolerance * float(source_area)
    areas, overlaps, outside = _partition_residuals(pieces, source)
    for i, j, area in overlaps:
        if area > tol_abs:
            detail = "" if exact else f" by {area:g}"
            failures.append(("SourceDisjoint", f"pieces {i} and {j} overlap{detail}"))
    for i, area in enumerate(outside):
        if area > tol_abs:
            detail = "leaves the source" if exact else f": {area:g} outside source"
            failures.append(("SourceContainment", f"piece {i} {detail}"))
    computed = sum(areas)
    if abs(computed - source_area) > tol_abs:
        detail = f"{computed}, source is {source_area}" if exact else f"{computed:g}"
        failures.append(("SourceArea", f"piece areas sum to {detail}"))

    target_area = float(polygon_area(c.target))
    tol_abs = tolerance * target_area
    areas, overlaps, outside = _partition_residuals(
        _placed(c), float_polygon(c.target.as_tuples())
    )
    for i, j, area in overlaps:
        if area > tol_abs:
            failures.append(("TargetOverlap", f"pieces {i} and {j} overlap by {area:g}"))
    for i, area in enumerate(outside):
        if area > tol_abs:
            failures.append(("TargetContainment", f"piece {i}: {area:g} outside"))
    placed_total = sum(areas)
    if abs(placed_total - target_area) > tol_abs:
        failures.append(
            ("TargetArea", f"placed areas sum to {placed_total:g}, target {target_area:g}")
        )

    return VerifyReport(not failures, failures, computed)


def _placed(c: DissectionChart) -> list:
    """Float vertices of each piece moved by its target motion."""
    return [
        apply_numeric_points(m, float_polygon(p.as_tuples()))
        for p, m in zip(c.pieces, c.target_motions)
    ]


def _partition_residuals(pieces, region):
    """What keeps pieces from partitioning a region: each piece's area,
    the overlap (i, j, area) of every pair whose boxes meet, and each
    piece's area outside the region."""
    parts = [convex_parts(pts) for pts in pieces]
    areas = [_signed_area2(pts) / 2 for pts in pieces]
    overlaps = [
        (i, j, overlap_sum(parts[i], parts[j]))
        for i, j in pairs_within([_bbox(pts) for pts in pieces])
    ]
    region_parts = convex_parts(region)
    outside = [area - overlap_sum(p, region_parts) for area, p in zip(areas, parts)]
    return areas, overlaps, outside


def chart_to_json(c: DissectionChart) -> dict:
    def encode_poly(p: SimplePolygon):
        if c.source_exact:
            return [point_to_json(v) for v in p.vertices]
        return [[float(v.x), float(v.y)] for v in p.vertices]

    return {
        "source": [point_to_json(v) for v in c.source.vertices],
        "target": [point_to_json(v) for v in c.target.vertices],
        "pieces": [encode_poly(p) for p in c.pieces],
        "target_motions": [
            {"angle_rad": m.angle_rad, "tx": m.tx, "ty": m.ty} for m in c.target_motions
        ],
    }


def chart_from_json(obj) -> DissectionChart:
    try:
        source = SimplePolygon([point_from_json(v) for v in obj["source"]])
        target = SimplePolygon([point_from_json(v) for v in obj["target"]])
        exact = True
        for piece in obj["pieces"]:
            for coord in piece:
                if any(isinstance(x, float) for x in coord):
                    exact = False
        pieces = [SimplePolygon([point_from_json(v) for v in piece]) for piece in obj["pieces"]]
        motions = [
            NumericMotion(float(m["angle_rad"]), float(m["tx"]), float(m["ty"]))
            for m in obj["target_motions"]
        ]
        if len(motions) != len(pieces):
            raise DissectionError("piece and motion counts differ")
        return DissectionChart(
            pieces, [IDENTITY_MOTION] * len(pieces), motions, source, target, exact
        )
    except (KeyError, TypeError) as exc:
        raise DissectionError(f"bad chart encoding: {exc}") from exc
