"""Exact rational planar geometry kernel.

Points, proper rigid motions, simple polygons, orientation predicates,
areas, convex clipping and ear-clipping triangulation, all over
arbitrary-precision rationals.  Nothing in this module ever rounds:
two runs on the same input are bit-identical.

The low-level helpers prefixed with an underscore operate on plain
``(x, y)`` coordinate tuples and are deliberately agnostic about the
number type, so the same clipping/triangulation code serves both the
exact rational paths and the float paths used by tolerance-based
verification elsewhere in the package.  On exact paths a coordinate may
be an int or a Fraction: every division either stays a Fraction or is
avoided (doubled areas, a doubled midpoint), so ints never turn into
floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

Rational = Fraction


class GeometryError(ValueError):
    """Base class for geometry kernel errors."""


class LengthMismatch(GeometryError):
    """Segments of different squared length cannot be matched by an isometry."""


class DegenerateSegment(GeometryError):
    """A zero-length segment does not determine a motion."""


class NotConvex(GeometryError):
    """Operation requires convex input."""


class InvalidPolygon(GeometryError):
    """Vertex list does not describe a counterclockwise simple polygon."""


RAT_MAX_DIGITS = 1000


def _text_within_cap(text: str) -> bool:
    """The digits of a number's text, and its exponent, are within
    RAT_MAX_DIGITS; counted on the text, before any number is built."""
    mantissa, _, exponent = text.lower().partition("e")
    if sum(map(str.isdecimal, mantissa)) > RAT_MAX_DIGITS:
        return False
    exponent = "".join(filter(str.isdecimal, exponent)).lstrip("0")
    return len(exponent) <= len(str(RAT_MAX_DIGITS)) and int(exponent or 0) <= RAT_MAX_DIGITS


def rat(value) -> Fraction:
    """Coerce ints, 'p/q' strings, floats and Fractions to an exact Fraction.

    Floats keep their exact binary expansion, with no rounding.  A zero
    denominator or a non-finite float is a ValueError.  So is a string
    with more than RAT_MAX_DIGITS digits or an exponent beyond that in
    magnitude: the cap is read off the text before the number is built,
    so "1e3000000" costs nothing.
    """
    if type(value) is int:  # the common case, before the slower ABC checks
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, str) and not _text_within_cap(value):
        raise ValueError(
            f"{value[:24]!r}{'...' if len(value) > 24 else ''} has more than "
            f"{RAT_MAX_DIGITS} digits or an exponent beyond {RAT_MAX_DIGITS}"
        )
    if isinstance(value, (int, str, float)):
        try:
            return Fraction(value)
        except (ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"cannot interpret {value!r} as a rational: {exc}") from None
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rational_to_json(value: Fraction):
    """Serialize a rational as a bare int (q=1) or a 'p/q' string."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def rational_from_json(value) -> Fraction:
    return rat(value)


# ---------------------------------------------------------------------------
# points and motions


@dataclass(frozen=True)
class Point2:
    """Exact point in the plane."""

    x: Fraction
    y: Fraction

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)

    def scaled(self, k: Fraction) -> "Point2":
        return Point2(self.x * k, self.y * k)

    def dot(self, other: "Point2") -> Fraction:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point2") -> Fraction:
        return self.x * other.y - self.y * other.x

    def rot90(self) -> "Point2":
        """Quarter turn counterclockwise about the origin."""
        return Point2(-self.y, self.x)

    def norm_sq(self) -> Fraction:
        return self.x * self.x + self.y * self.y

    def as_tuple(self) -> tuple[Fraction, Fraction]:
        return (self.x, self.y)


def point(x, y) -> Point2:
    return Point2(rat(x), rat(y))


def point_to_json(p: Point2) -> list:
    return [rational_to_json(p.x), rational_to_json(p.y)]


def point_from_json(obj) -> Point2:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise GeometryError(f"bad point encoding: {obj!r}")
    return Point2(rat(obj[0]), rat(obj[1]))


@dataclass(frozen=True)
class RigidMotion:
    """Proper planar isometry: rotate by the (cos, sin) pair, then translate.

    The linear part is applied as [[c, -s], [s, c]], whose determinant is
    c**2 + s**2 >= 0, so reflections are unrepresentable by construction.
    A valid motion has c**2 + s**2 == 1 exactly; pairs off the unit circle
    can be stored (tolerance-mode files carry float rotations) and are
    flagged by the verifier's proper-motion check rather than here.
    """

    rot_cos: Fraction
    rot_sin: Fraction
    translate: Point2

    def is_unit(self) -> bool:
        return self.rot_cos * self.rot_cos + self.rot_sin * self.rot_sin == 1


IDENTITY_MOTION = RigidMotion(Fraction(1), Fraction(0), Point2(Fraction(0), Fraction(0)))


def motion(cos, sin, tx, ty) -> RigidMotion:
    return RigidMotion(rat(cos), rat(sin), point(tx, ty))


def apply_motion(m: RigidMotion, p: Point2) -> Point2:
    return Point2(
        m.rot_cos * p.x - m.rot_sin * p.y + m.translate.x,
        m.rot_sin * p.x + m.rot_cos * p.y + m.translate.y,
    )


def compose_motions(outer: RigidMotion, inner: RigidMotion) -> RigidMotion:
    """Motion equal to applying ``inner`` first, then ``outer``."""
    return RigidMotion(
        outer.rot_cos * inner.rot_cos - outer.rot_sin * inner.rot_sin,
        outer.rot_sin * inner.rot_cos + outer.rot_cos * inner.rot_sin,
        apply_motion(outer, inner.translate),
    )


def invert_motion(m: RigidMotion) -> RigidMotion:
    c, s = m.rot_cos, m.rot_sin
    t = m.translate
    return RigidMotion(c, -s, Point2(-(c * t.x + s * t.y), -(-s * t.x + c * t.y)))


def motion_between_segments(a1: Point2, a2: Point2, b1: Point2, b2: Point2) -> RigidMotion:
    """Unique proper motion sending a1 to b1 and a2 to b2.

    Exists exactly when the squared lengths agree; the rotation entries are
    the dot and cross products of the direction vectors divided by the
    common squared length, hence rational.
    """
    da = a2 - a1
    db = b2 - b1
    len_sq = da.norm_sq()
    if len_sq == 0:
        raise DegenerateSegment("a1 == a2")
    if len_sq != db.norm_sq():
        raise LengthMismatch(f"squared lengths differ: {len_sq} vs {db.norm_sq()}")
    c = da.dot(db) / len_sq
    s = da.cross(db) / len_sq
    rotated_a1 = Point2(c * a1.x - s * a1.y, s * a1.x + c * a1.y)
    return RigidMotion(c, s, b1 - rotated_a1)


# ---------------------------------------------------------------------------
# tuple-level core (number-type agnostic)


def _orient(a, b, c):
    """Twice the signed area of triangle abc; >0 for a counterclockwise turn."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _signed_area2(pts) -> object:
    """Twice the signed shoelace area of the vertex sequence."""
    total = 0
    n = len(pts)
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return total


def _bbox(pts):
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return min(xs), min(ys), max(xs), max(ys)


def _bboxes_interiors_overlap(b1, b2) -> bool:
    return b1[0] < b2[2] and b2[0] < b1[2] and b1[1] < b2[3] and b2[1] < b1[3]


def _on_segment(p, a, b) -> bool:
    """Point p lies on the closed segment ab (collinearity assumed checked by caller)."""
    if _orient(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _segments_intersect(a1, a2, b1, b2) -> bool:
    """Closed segments share at least one point."""
    # disjoint bounding boxes settle most pairs with comparisons alone
    if (max(a1[0], a2[0]) < min(b1[0], b2[0]) or max(b1[0], b2[0]) < min(a1[0], a2[0])
            or max(a1[1], a2[1]) < min(b1[1], b2[1]) or max(b1[1], b2[1]) < min(a1[1], a2[1])):
        return False
    d1 = _orient(b1, b2, a1)
    d2 = _orient(b1, b2, a2)
    d3 = _orient(a1, a2, b1)
    d4 = _orient(a1, a2, b2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and _on_segment(a1, b1, b2):
        return True
    if d2 == 0 and _on_segment(a2, b1, b2):
        return True
    if d3 == 0 and _on_segment(b1, a1, a2):
        return True
    if d4 == 0 and _on_segment(b2, a1, a2):
        return True
    return False


def _point_in_polygon(pts, p) -> str:
    """Classify p against the polygon: 'inside', 'boundary' or 'outside'.

    Exact crossing-number walk; each edge is treated half-open in y so a
    ray through a vertex is counted once.
    """
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        if _on_segment(p, a, b):
            return "boundary"
    inside = False
    px, py = p
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        ay, by = a[1], b[1]
        if (ay > py) != (by > py):
            # exact x coordinate of the edge at height py, compared via cross product
            side = _orient(a, b, p)
            if by > ay:
                if side > 0:
                    inside = not inside
            else:
                if side < 0:
                    inside = not inside
    return "inside" if inside else "outside"


def _is_convex(pts) -> bool:
    n = len(pts)
    for i in range(n):
        if _orient(pts[i], pts[(i + 1) % n], pts[(i + 2) % n]) <= 0:
            return False
    return True


def _clip_halfplane(pts, e1, e2):
    """Keep the part of the polygon on or left of the directed line e1->e2.

    Each vertex's side is computed once, as _orient(e1, e2, p) with the
    same operands in the same order, so float results match it bit for bit.
    A crossing between int sides gets a Fraction parameter, so int
    coordinates give exact crossings, never floats.

    Two early-outs return what the loop would: the input itself when no
    vertex is strictly outside, and [] when every vertex is.  A NaN side
    is neither inside nor outside, so it always reaches the loop.
    """
    ax, ay = e1
    dx = e2[0] - ax
    dy = e2[1] - ay
    sides = [dx * (y - ay) - dy * (x - ax) for x, y in pts]
    for d in sides:
        if not d >= 0:
            break
    else:
        return pts
    for d in sides:
        if not d < 0:
            break
    else:
        return []
    out = []
    n = len(pts)
    for i in range(n):
        cur = pts[i]
        d_cur = sides[i]
        j = i + 1 if i + 1 < n else 0
        d_nxt = sides[j]
        if d_cur >= 0:
            out.append(cur)
        if (d_cur > 0 and d_nxt < 0) or (d_cur < 0 and d_nxt > 0):
            nxt = pts[j]
            den = d_cur - d_nxt
            t = Fraction(d_cur, den) if type(den) is int else d_cur / den
            out.append(
                (cur[0] + (nxt[0] - cur[0]) * t, cur[1] + (nxt[1] - cur[1]) * t)
            )
    return out


def _box_inside_axis_edge(box, e1, e2) -> bool:
    """The box lies on or left of the axis-parallel directed line e1->e2.

    Then every vertex inside the box has a side value >= 0 and clipping by
    the edge returns its input unchanged.  A zero-length edge gives every
    vertex side 0, so it cannot cut either.
    """
    x0, y0, x1, y1 = box
    if e1[1] == e2[1]:
        if e2[0] > e1[0]:
            return y0 >= e1[1]
        if e2[0] < e1[0]:
            return y1 <= e1[1]
        return True
    if e2[1] > e1[1]:
        return x1 <= e1[0]
    return x0 >= e1[0]


def _clip_convex_raw(subject, clipper):
    """The Sutherland-Hodgman loop of _convex_clip, without its final test.

    Returns the clipped vertex list, which may have fewer than three
    vertices or zero area, and may be the subject itself when no clipper
    edge cuts it.  Axis-parallel clipper edges with the current polygon's
    bounding box on their inner side are skipped: clipping by them would
    change nothing.  The box is computed only when such an edge comes up.

    On exact (int or Fraction) coordinates a strictly convex subject (no
    repeated vertex, no three collinear) gives a strictly convex result,
    or one with no area, which _convex_clip drops; so neither needs a
    dedupe.  A crossing is added only inside an edge whose ends lie
    strictly on opposite sides, so it repeats no vertex.  Three collinear
    vertices of a convex polygon lie on one of its edge lines, and each
    edge of a half-plane clip lies on the clip line, which meets the
    subject's boundary in at most two points or one edge, or on a subject
    edge, which keeps both ends or one end and one crossing.  Induction
    over the clipper's edges ends the proof; a clip with no area stays so.
    """
    out = subject
    box = None
    n = len(clipper)
    for i in range(n):
        if not out:
            return []
        e1 = clipper[i]
        e2 = clipper[(i + 1) % n]
        if e1[0] == e2[0] or e1[1] == e2[1]:
            if box is None:
                box = _bbox(out)
            if _box_inside_axis_edge(box, e1, e2):
                continue
        clipped = _clip_halfplane(out, e1, e2)
        if clipped is not out:
            out = clipped
            box = None
    return out


def _convex_clip(subject, clipper):
    """Sutherland-Hodgman intersection of two convex ccw polygons.

    Returns a new vertex list of the intersection, or an empty list when
    the intersection has no area.  Float inputs may give duplicate or
    collinear vertices; exact strictly convex ones give neither (see
    _clip_convex_raw).
    """
    out = _clip_convex_raw(subject, clipper)
    if len(out) < 3 or _signed_area2(out) == 0:
        return []
    return list(out)


def _dedupe_collinear(pts):
    """Drop consecutive duplicates and collinear middle vertices.

    Removals happen one vertex at a time: a vertex straight relative to
    its neighbors is only redundant while both neighbors remain, so
    batch removal could delete two vertices that each justified the
    other and lose a corner.
    """
    pts = list(pts)
    changed = True
    while changed and len(pts) >= 3:
        changed = False
        n = len(pts)
        for i in range(n):
            prv = pts[(i - 1) % n]
            cur = pts[i]
            nxt = pts[(i + 1) % n]
            if cur == nxt or (prv != cur and _orient(prv, cur, nxt) == 0):
                del pts[i]
                changed = True
                break
    return pts


def _ear_clip(pts):
    """Triangulate a ccw simple polygon into exactly n-2 triangles.

    Ear clipping on the fast path; clips introduce straight (collinear)
    vertices, which are skipped rather than removed so every input
    vertex ends up in some positive-area triangle.  When the ear scan
    stalls on such a degenerate case, the remainder is finished by exact
    diagonal splitting, which always succeeds on simple polygons.
    """
    verts = list(pts)
    triangles = []
    while len(verts) > 3:
        n = len(verts)
        clipped = False
        for i in range(n):
            prv = verts[(i - 1) % n]
            cur = verts[i]
            nxt = verts[(i + 1) % n]
            if _orient(prv, cur, nxt) <= 0:
                continue
            ear = (prv, cur, nxt)
            blocked = False
            for v in verts:
                if v is prv or v is cur or v is nxt:
                    continue
                if v == prv or v == cur or v == nxt:
                    continue
                if _point_in_triangle_closed(ear, v):
                    blocked = True
                    break
            if blocked:
                continue
            triangles.append(ear)
            del verts[i]
            clipped = True
            break
        if not clipped:
            triangles.extend(_split_by_diagonals(verts))
            return triangles
    triangles.append(tuple(verts))
    return triangles


def _split_by_diagonals(verts):
    """Exact recursive triangulation by any valid diagonal.

    A diagonal must touch no vertex in its open interior, meet no
    non-incident edge, and run through the polygon's interior.  Every
    simple polygon of positive area has one.
    """
    n = len(verts)
    if n == 3:
        if _orient(*verts) <= 0:
            raise InvalidPolygon("degenerate triangle in triangulation")
        return [tuple(verts)]
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            if _is_diagonal(verts, i, j):
                left = verts[i : j + 1]
                right = verts[j:] + verts[: i + 1]
                return _split_by_diagonals(left) + _split_by_diagonals(right)
    raise InvalidPolygon("no diagonal found; polygon is not simple")


def _is_diagonal(verts, i, j) -> bool:
    n = len(verts)
    a, b = verts[i], verts[j]
    for k, v in enumerate(verts):
        if k in (i, j):
            continue
        if _on_segment(v, a, b):
            return False
    for k in range(n):
        k2 = (k + 1) % n
        if k in (i, j) or k2 in (i, j):
            continue
        if _segments_intersect(a, b, verts[k], verts[k2]):
            return False
    # the midpoint against the polygon scaled by 2, so nothing is halved
    doubled = [(x + x, y + y) for x, y in verts]
    return _point_in_polygon(doubled, (a[0] + b[0], a[1] + b[1])) == "inside"


def _point_in_triangle_closed(tri, p) -> bool:
    a, b, c = tri
    return _orient(a, b, p) >= 0 and _orient(b, c, p) >= 0 and _orient(c, a, p) >= 0


# ---------------------------------------------------------------------------
# simple polygons


class SimplePolygon:
    """Counterclockwise simple polygon with exact rational vertices.

    Collinear and repeated input vertices are removed during construction;
    the cleaned vertex list must have positive signed area and strictly
    simple edges (non-adjacent edges share no point).
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: Iterable[Point2], _validated: bool = False):
        pts = [v if isinstance(v, Point2) else point(v[0], v[1]) for v in vertices]
        if not _validated:
            tuples = _dedupe_collinear([p.as_tuple() for p in pts])
            if len(tuples) < 3:
                raise InvalidPolygon("fewer than 3 vertices after normalization")
            if _signed_area2(tuples) <= 0:
                raise InvalidPolygon("vertices are not in counterclockwise order")
            _check_simple(tuples)
            pts = [Point2(x, y) for x, y in tuples]
        object.__setattr__(self, "vertices", tuple(pts))

    def __setattr__(self, name, value):
        raise AttributeError("SimplePolygon is immutable")

    def __eq__(self, other):
        return isinstance(other, SimplePolygon) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        coords = ", ".join(f"({v.x},{v.y})" for v in self.vertices)
        return f"SimplePolygon[{coords}]"

    def __len__(self):
        return len(self.vertices)

    def as_tuples(self):
        return [v.as_tuple() for v in self.vertices]


def _check_simple(tuples):
    n = len(tuples)
    edges = [(tuples[i], tuples[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue  # adjacent edges share an endpoint by construction
            if _segments_intersect(*edges[i], *edges[j]):
                raise InvalidPolygon(f"edges {i} and {j} intersect")


def polygon(coords) -> SimplePolygon:
    """Build a SimplePolygon from an iterable of (x, y) pairs."""
    return SimplePolygon([point(x, y) for x, y in coords])


def polygon_area(p: SimplePolygon) -> Fraction:
    """Exact signed shoelace area; positive for the stored ccw orientation."""
    return _signed_area2(p.as_tuples()) / 2


def apply_motion_polygon(m: RigidMotion, p: SimplePolygon) -> SimplePolygon:
    return SimplePolygon([apply_motion(m, v) for v in p.vertices], _validated=True)


def convex_clip(a: SimplePolygon, b: SimplePolygon):
    """Exact intersection of two convex polygons; None when it has no area."""
    ta = a.as_tuples()
    tb = b.as_tuples()
    if not _is_convex(ta):
        raise NotConvex("first polygon is not convex")
    if not _is_convex(tb):
        raise NotConvex("second polygon is not convex")
    out = _convex_clip(ta, tb)
    if not out:
        return None
    return SimplePolygon([Point2(x, y) for x, y in out], _validated=True)


def triangulate_simple(p: SimplePolygon) -> list[SimplePolygon]:
    """Ear-clipping triangulation into exactly len(p)-2 triangles.

    Triangle vertices are drawn from the polygon's own vertices and the
    triangles partition the polygon exactly.
    """
    tris = _ear_clip(p.as_tuples())
    return [
        SimplePolygon([Point2(*a), Point2(*b), Point2(*c)], _validated=True)
        for a, b, c in tris
    ]


def overlap_area(a: SimplePolygon, b: SimplePolygon) -> Fraction:
    """Exact area of the intersection of two simple polygons."""
    from .overlap import polygon_overlap  # the engine builds on the tuple core above

    return Fraction(polygon_overlap(a.as_tuples(), b.as_tuples()))


def interiors_overlap(a: SimplePolygon, b: SimplePolygon) -> bool:
    """True iff the open interiors intersect; touching along edges is not overlap."""
    return overlap_area(a, b) > 0


def polygon_contains(outer: SimplePolygon, inner: SimplePolygon) -> bool:
    """True iff inner lies in the closure of outer.

    Both are closed regions, so this holds exactly when the part of inner
    covered by outer has all of inner's area.
    """
    from .overlap import partition_residuals

    return partition_residuals([inner.as_tuples()], outer.as_tuples())[2] == [0]
