"""Exact rational planar geometry kernel.

Points, proper rigid motions, simple polygons, orientation predicates,
areas, convex clipping and ear-clipping triangulation, all over
arbitrary-precision rationals.  Nothing in this module ever rounds:
two runs on the same input are bit-identical.

One rule picks the number type: every outside value enters through
``rat``, which gives an int for an integral value and a Fraction for
any other.  A chain fold's values are therefore ints from the reader or
the fold to the verdict, and nothing converts them on the way.

Points and motions are NamedTuples, and a polygon is the tuple of its
points.  The low-level helpers prefixed with an underscore operate on
sequences of ``(x, y)`` coordinate tuples, which a Point2 is, so they
read a polygon as it is.  They are deliberately agnostic about the
number type, so the same clipping/triangulation code serves both the
exact rational paths and the float paths used by tolerance-based
verification elsewhere in the package.  On exact paths a coordinate may be an int or a Fraction:
every division is a Fraction(a, b) or is avoided (doubled areas), so
ints never turn into floats.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from heapq import heappop, heappush
from typing import Iterable, NamedTuple


class GeometryError(ValueError):
    """Base class for geometry kernel errors."""


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


def rat(value) -> int | Fraction:
    """The exact value of an int, a 'p/q' or decimal string, a float or a
    Fraction: an int when it is integral, so 3, "6/2", 2.0 and
    Fraction(4, 2) all give an int, and a Fraction otherwise.  This is
    the one place that picks between the two.

    Floats keep their exact binary expansion, with no rounding.  A zero
    denominator or a non-finite float is a ValueError.  So is a string
    with more than RAT_MAX_DIGITS digits or an exponent beyond that in
    magnitude: the cap is read off the text before the number is built,
    so "1e3000000" costs nothing.  A bool is a TypeError.
    """
    if type(value) is int:  # the common case, before the slower ABC checks
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
            value = Fraction(value)
        except (ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"cannot interpret {value!r:.40} as a rational: {exc}") from None
        except ValueError:
            if not isinstance(value, str):
                raise  # a float NaN
            # Fraction's own text, with the string cut as every quoted value is
            raise ValueError(f"Invalid literal for Fraction: {value!r:.40}") from None
    elif not isinstance(value, Fraction):
        raise TypeError(f"cannot interpret {value!r:.40} as a rational")
    return value.numerator if value.denominator == 1 else value


def rational_to_json(value: int | Fraction):
    """Serialize a rational as a bare int (q=1) or a 'p/q' string."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# points and motions


class Point2(NamedTuple):
    """Exact point in the plane: the tuple (x, y), equal to the plain pair
    and hashed like it, so the tuple core reads it as it is.  + and - are
    vector operations, not tuple concatenation."""

    x: int | Fraction
    y: int | Fraction

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


def point(x, y) -> Point2:
    return Point2(rat(x), rat(y))


def point_to_json(p: Point2) -> list:
    return [rational_to_json(p.x), rational_to_json(p.y)]


def point_from_json(obj) -> Point2:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise GeometryError(f"bad point encoding: {obj!r:.40}")
    return Point2(rat(obj[0]), rat(obj[1]))


class RigidMotion(NamedTuple):
    """Proper planar isometry: rotate by the (cos, sin) pair, then translate;
    the tuple (rot_cos, rot_sin, translate).

    The linear part is applied as [[c, -s], [s, c]], whose determinant is
    c**2 + s**2 >= 0, so reflections are unrepresentable by construction.
    A valid motion has c**2 + s**2 == 1 exactly; pairs off the unit circle
    can be stored (approx-mode files carry decimal cos and sin) and are
    flagged by the verifier's proper-motion check rather than here.
    """

    rot_cos: int | Fraction
    rot_sin: int | Fraction
    translate: Point2


IDENTITY_MOTION = RigidMotion(1, 0, Point2(0, 0))


def apply_motion(m: RigidMotion, p: Point2) -> Point2:
    return Point2(
        m.rot_cos * p.x - m.rot_sin * p.y + m.translate.x,
        m.rot_sin * p.x + m.rot_cos * p.y + m.translate.y,
    )


# ---------------------------------------------------------------------------
# tuple-level core (number-type agnostic)


def _orient(a, b, c):
    """Twice the signed area of triangle abc; >0 for a counterclockwise turn."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _signed_area2(pts) -> object:
    """Twice the signed shoelace area of the vertex sequence, its terms
    added from the edge pts[0] -> pts[1] on, the closing edge last."""
    total = 0
    if not pts:
        return total
    x0, y0 = pts[0]
    for x1, y1 in pts[1:]:
        total += x0 * y1 - x1 * y0
        x0, y0 = x1, y1
    x1, y1 = pts[0]
    return total + (x0 * y1 - x1 * y0)


def _bbox(pts):
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return min(xs), min(ys), max(xs), max(ys)


def _bboxes_interiors_overlap(b1, b2) -> bool:
    return b1[0] < b2[2] and b2[0] < b1[2] and b1[1] < b2[3] and b2[1] < b1[3]


def _on_segment(p, a, b) -> bool:
    """Point p lies on the closed segment ab, given that p is on the line
    ab (_orient(a, b, p) == 0, which the caller has tested): p lies in
    the segment's closed bounding box."""
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


def _is_convex(pts) -> bool:
    n = len(pts)
    for i in range(n):
        if _orient(pts[i], pts[(i + 1) % n], pts[(i + 2) % n]) <= 0:
            return False
    return True


def _edges(pts) -> list[tuple]:
    """(ax, ay, dx, dy), dx = bx - ax and dy = by - ay, for each edge a->b of the polygon."""
    out = []
    n = len(pts)
    for i in range(n):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % n]
        out.append((ax, ay, bx - ax, by - ay))
    return out


def _crossing(p, q, d_p, d_q):
    """The point where the edge p -> q crosses a clip line, given the
    sides d_p and d_q of its ends, strictly opposite; between int sides
    the parameter is a Fraction, so int coordinates cross exactly."""
    x, y = p
    qx, qy = q
    den = d_p - d_q
    t = Fraction(d_p, den) if type(den) is int else d_p / den
    return (x + (qx - x) * t, y + (qy - y) * t)


def _clip_convex_raw(subject, edges):
    """The Sutherland-Hodgman loop of _convex_clip, without its final test:
    the subject cut, edge by edge, to the left of each line of _edges.

    A vertex's side, dx * (y - ay) - dy * (x - ax), is computed once per
    edge, as _orient(a, b, p) with the same operands in the same order, so
    float results match it bit for bit.  A vertex of side >= 0 is kept,
    and a crossing (_crossing) follows each vertex whose successor lies
    strictly on the other side.  Two early-outs give what the loop would:
    the polygon itself when no vertex is strictly outside an edge, and []
    when every vertex is; a NaN side is neither, so it reaches the loop,
    which keeps nothing for it.  A pass over three vertices, the common
    one on triangles, is written out vertex by vertex under the same
    rule.  The result may have fewer than three vertices or zero area,
    and may be the subject itself.

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
    for ax, ay, dx, dy in edges:
        if len(out) == 3:
            p0, p1, p2 = out
            x, y = p0
            d0 = dx * (y - ay) - dy * (x - ax)
            x, y = p1
            d1 = dx * (y - ay) - dy * (x - ax)
            x, y = p2
            d2 = dx * (y - ay) - dy * (x - ax)
            if d0 >= 0 and d1 >= 0 and d2 >= 0:
                continue
            if d0 < 0 and d1 < 0 and d2 < 0:
                return []
            out = []
            if d0 >= 0:
                out.append(p0)
            if d0 > 0 and d1 < 0 or d0 < 0 and d1 > 0:
                out.append(_crossing(p0, p1, d0, d1))
            if d1 >= 0:
                out.append(p1)
            if d1 > 0 and d2 < 0 or d1 < 0 and d2 > 0:
                out.append(_crossing(p1, p2, d1, d2))
            if d2 >= 0:
                out.append(p2)
            if d2 > 0 and d0 < 0 or d2 < 0 and d0 > 0:
                out.append(_crossing(p2, p0, d2, d0))
            continue
        sides = [dx * (y - ay) - dy * (x - ax) for x, y in out]
        for d in sides:
            if not d >= 0:
                break
        else:
            continue
        for d in sides:
            if not d < 0:
                break
        else:
            return []
        clipped = []
        sides.append(sides[0])  # the side of each vertex's successor
        i = 0
        for cur in out:
            d_cur = sides[i]
            i += 1
            d_nxt = sides[i]
            if d_cur > 0:
                clipped.append(cur)
                if not d_nxt < 0:
                    continue
            elif not (d_cur < 0 and d_nxt > 0):
                if d_cur == 0:  # a NaN side keeps nothing
                    clipped.append(cur)
                continue
            # the ends lie strictly on opposite sides
            clipped.append(_crossing(cur, out[i] if i < len(out) else out[0], d_cur, d_nxt))
        out = clipped
    return out


def _convex_clip(subject, clipper):
    """Sutherland-Hodgman intersection of two convex ccw polygons.

    Returns a new vertex list of the intersection, or an empty list when
    the intersection has no area.  Float inputs may give duplicate or
    collinear vertices; exact strictly convex ones give neither (see
    _clip_convex_raw).
    """
    out = _clip_convex_raw(subject, _edges(clipper))
    if len(out) < 3 or _signed_area2(out) == 0:
        return []
    return list(out)


# ---------------------------------------------------------------------------
# homogeneous integer points
#
# A rational point (x, y) is held as ints (X, Y, W) with W > 0, x = X/W and
# y = Y/W.  A line is held as ints (a, b, c); a point's side of it is
# a*X + b*Y + c*W.  Divided by its gcd, a point has one such form, so a
# chain of clips and integer affine maps runs on ints alone and builds one
# Fraction per output coordinate at the end.


def _lines(pts) -> list[tuple[int, int, int]]:
    """The directed edge lines of a homogeneous polygon, each the cross
    product (a, b, c) of its end points p and q.  A point r's side,
    a*X + b*Y + c*W, is the determinant of p, q and r: the product of the
    three W and _orient(p, q, r) in rational coordinates, so it has that
    orientation's sign."""
    out = []
    n = len(pts)
    for i in range(n):
        px, py, pw = pts[i]
        qx, qy, qw = pts[(i + 1) % n]
        out.append((py * qw - pw * qy, pw * qx - px * qw, px * qy - py * qx))
    return out


def _clip_homogeneous(subject, lines):
    """_convex_clip on homogeneous int points, the clipper given by _lines.

    Each step is _clip_convex_raw's: the same kept vertices and crossings,
    in the same order, since every side has the sign of the rational
    orientation.  The crossing on edge p->q, between sides s_p and s_q of
    opposite signs, is |s_p|*q + |s_q|*p, which lies on the line and has
    a positive W, divided by the gcd of its three ints.  The subject may
    come back unchanged.  For a convex ccw sequence, every triangle of the
    fan from the first vertex has a determinant >= 0, so the area is zero
    exactly when all of them are zero, and then [] is returned.
    """
    out = subject
    for a, b, c in lines:
        sides = [a * x + b * y + c * w for x, y, w in out]
        if min(sides) >= 0:
            continue
        if max(sides) < 0:
            return []
        clipped = []
        n = len(out)
        for i in range(n):
            s_p = sides[i]
            j = i + 1 if i + 1 < n else 0
            s_q = sides[j]
            if s_p >= 0:
                clipped.append(out[i])
            if (s_p > 0 and s_q < 0) or (s_p < 0 and s_q > 0):
                px, py, pw = out[i]
                qx, qy, qw = out[j]
                s_p, s_q = abs(s_p), abs(s_q)
                x, y, w = s_p * qx + s_q * px, s_p * qy + s_q * py, s_p * qw + s_q * pw
                g = math.gcd(x, y, w)
                clipped.append((x // g, y // g, w // g))
        out = clipped
    for i in range(1, len(out) - 1):
        (x0, y0, w0), (px, py, pw), (qx, qy, qw) = out[0], out[i], out[i + 1]
        if x0 * (py * qw - pw * qy) + y0 * (pw * qx - px * qw) + w0 * (px * qy - py * qx):
            return out
    return []


def _int_affine(origin, ex, ey):
    """The affine map (a, b) -> origin + a*ex + b*ey, given by int or
    Fraction (x, y) pairs, as int rows over one denominator d > 0:
    ((m00, m01, m02), (m10, m11, m12), d)."""
    entries = (ex[0], ey[0], origin[0], ex[1], ey[1], origin[1])
    d = math.lcm(*(v.denominator for v in entries))
    m = [v.numerator * (d // v.denominator) for v in entries]
    return (m[0], m[1], m[2]), (m[3], m[4], m[5]), d


def _map_homogeneous(f, pts) -> list[tuple[int, int, int]]:
    """Homogeneous points moved by an _int_affine map, each divided by the
    gcd of its ints; W stays positive."""
    (a, b, c), (d, e, g), s = f
    out = []
    for x, y, w in pts:
        x, y, w = a * x + b * y + c * w, d * x + e * y + g * w, s * w
        k = math.gcd(x, y, w)
        out.append((x // k, y // k, w // k))
    return out


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

    An ear is a strictly convex live vertex whose closed triangle with its
    two live neighbours holds no other live vertex; a vertex equal to a
    corner does not count.  Each step clips one ear, and the last three
    vertices, in input order, make the last triangle.  Straight
    (collinear) vertices, which clips leave, are never clipped themselves,
    so every vertex ends up in some positive-area triangle.

    The ear clipped is the one of least input position, which is the
    first ear a scan from vertex 0 meets.

    On a simple polygon the clip cannot stall (the two-ears theorem,
    Meisters 1975): every simple polygon, straight vertices allowed, has a
    diagonal, so one with n >= 4 vertices has a triangulation, and its
    dual tree has at least two leaves.  A leaf is three consecutive
    vertices around a strictly convex middle one whose closed triangle
    holds no other vertex, so it is an ear, and clipping any ear leaves a
    simple polygon.  On exact input a stall therefore means the polygon is
    not simple, and raises InvalidPolygon; on float input rounding can
    also cause one.

    Each vertex's status is computed once, and again only when it can
    change.  A clip changes the triangles of the ear's two neighbours, and
    removes one point, its tip, from the others' tests; that can only
    unblock a vertex whose triangle holds the tip.  So a blocked vertex
    records the one vertex found in its triangle, and is computed again
    when that vertex is clipped.  On exact coordinates the search visits
    only the live vertices in the triangle's closed box, taken from a list
    sorted by x.  On floats it tests every live vertex: rounding can pass
    the three orientation tests for a point outside the box.
    """
    verts = list(pts)
    n = len(verts)
    if n <= 3:
        return [tuple(verts)]
    prv = [n - 1, *range(n - 1)]
    nxt = [*range(1, n), 0]
    exact = not any(isinstance(c, float) for v in verts for c in v)
    # the live vertices: (x, y, index) sorted on exact coordinates, else indices
    live = sorted((x, y, i) for i, (x, y) in enumerate(verts)) if exact else list(range(n))
    stamp = [0] * n  # bumped at each new status and at the clip; heap entries carry it
    blocks = {}  # vertex index -> (index, stamp) of the vertices it was found to block
    heap = []  # (index, stamp) of each ear

    def status(i):
        stamp[i] += 1
        tri = a, b, c = verts[prv[i]], verts[i], verts[nxt[i]]
        if _orient(a, b, c) <= 0:
            return
        if exact:
            x0, x1 = min(a[0], b[0], c[0]), max(a[0], b[0], c[0])
            y0, y1 = min(a[1], b[1], c[1]), max(a[1], b[1], c[1])
            near = live[bisect_left(live, (x0, y0, -1)):bisect_right(live, (x1, y1, n))]
            candidates = (j for _, y, j in near if y0 <= y <= y1)
        else:
            candidates = live
        for j in candidates:
            v = verts[j]
            if v != a and v != b and v != c and _point_in_triangle_closed(tri, v):
                blocks.setdefault(j, []).append((i, stamp[i]))
                return
        heappush(heap, (i, stamp[i]))

    for i in range(n):
        status(i)
    triangles = []
    for _ in range(n - 3):
        while heap and heap[0][1] != stamp[heap[0][0]]:
            heappop(heap)  # stale: the vertex was clipped or has a newer status
        if not heap:
            raise InvalidPolygon("no diagonal found; polygon is not simple")
        i = heappop(heap)[0]
        p, q = prv[i], nxt[i]
        triangles.append((verts[p], verts[i], verts[q]))
        nxt[p], prv[q] = q, p
        stamp[i] += 1
        del live[bisect_left(live, (*verts[i], i) if exact else i)]
        status(p)
        status(q)
        for j, s in blocks.pop(i, ()):
            if s == stamp[j]:
                status(j)
    triangles.append(tuple(verts[k] for k in sorted((p, q, nxt[q]))))
    return triangles


def _point_in_triangle_closed(tri, p) -> bool:
    a, b, c = tri
    return _orient(a, b, p) >= 0 and _orient(b, c, p) >= 0 and _orient(c, a, p) >= 0


# ---------------------------------------------------------------------------
# simple polygons


class SimplePolygon(tuple):
    """Counterclockwise simple polygon with exact rational vertices: the
    tuple of its Point2 vertices, equal to that tuple and hashed like it.

    Collinear and repeated input vertices are removed during construction;
    the cleaned vertex list must have positive signed area and strictly
    simple edges (non-adjacent edges share no point).  Code that already
    holds such a list builds the polygon unchecked with
    tuple.__new__(SimplePolygon, vertices).  A copy or an unpickled
    polygon is built through the checks.
    """

    __slots__ = ()

    def __new__(cls, vertices: Iterable[Point2]):
        pts = [v if isinstance(v, Point2) else point(v[0], v[1]) for v in vertices]
        pts = _dedupe_collinear(pts)
        if len(pts) < 3:
            raise InvalidPolygon("fewer than 3 vertices after normalization")
        if _signed_area2(pts) <= 0:
            raise InvalidPolygon("vertices are not in counterclockwise order")
        _check_simple(pts)
        return super().__new__(cls, pts)

    @property
    def vertices(self) -> "SimplePolygon":
        """The polygon itself, the tuple of its vertices."""
        return self

    def __repr__(self):
        coords = ", ".join(f"({v.x},{v.y})" for v in self)
        return f"SimplePolygon[{coords}]"


def _check_simple(pts):
    n = len(pts)
    edges = [(pts[i], pts[(i + 1) % n]) for i in range(n)]
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
    return Fraction(_signed_area2(p), 2)

