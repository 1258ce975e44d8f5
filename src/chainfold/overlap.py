"""The overlap engine: bounds, broad phase, convex parts and narrow phase.

Every overlap computation of the package runs through here: the
partition check that exact and approximate configuration verification
and both sides of chart verification share, the chart overlay and the
animation sampler's per-frame overlap report.

Like the tuple core of ``exact_geom`` it works on ``(x, y)`` tuples and
never looks at the number type: int and Fraction coordinates give exact
areas, float coordinates give float areas.  The sums are doubled areas,
as ``_signed_area2`` gives them, so an int sum is never halved into a
float; callers compare doubled areas, or halve an exact one as
``Fraction(area2, 2)``.

- Bounds: each piece is bounded once, by an octagon: its box and the
  ranges of x + y and of x - y over its vertices, held as
  (x0, y0, x1, y1, s0, s1, d0, d1).  A convex piece's box is its one
  part's box.
- Broad phase: one sort and sweep over the bounds, along the axis on
  which the boxes overlap less relative to their spread (judged on a
  strided sample).  Bounds are sorted by their lower end on that axis;
  each is tested only against those whose lower end falls inside its
  own range, found by bisection.  A pair is kept when its boxes'
  interiors overlap and its diagonal extents meet: two half-squares of
  one lattice cell, whose boxes coincide, meet only along the diagonal
  that their extents share.  The pairs come in lexicographic order.
  The cross form sweeps two lists as one and keeps the pairs that join
  them.
- Convex parts: a polygon is split once per call, after each point
  equal to the one before it is dropped, into itself when it is convex
  and into its ear-clip triangles otherwise, each with its box and edges.
  Parts live in the caller's lists, so nothing is cached across calls.
- Narrow phase: one loop clips every part pair whose boxes overlap and
  returns the list of fragments with their doubled areas, so area sums
  measure each raw clip once.  Each clip is a plain Sutherland-Hodgman
  pass, one half-plane per stored edge of the clipper part.
- Cell partitions: verification against a polyomino, on int, Fraction
  or float pieces alike, first cancels the pieces' directed edges
  against each other and the cells', and runs the engine only on the
  pieces near the edges left; a chain fold's edges all cancel, so its
  verify runs no sweep in either mode.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import chain

from .exact_geom import _bbox, _bboxes_interiors_overlap, _clip_convex_raw, _ear_clip, _edges
from .exact_geom import _is_convex, _signed_area2


def convex_parts(pts) -> list[tuple[list, tuple, list]]:
    """(part, bounding box, _edges) for each convex part of a ccw simple
    polygon: the polygon itself when convex, else its ear-clip triangles.  A
    polygon collapsed to zero area, as a zero (cos, sin) leaves one, has
    no parts.  When the ear clip finds no ear, InvalidPolygon is raised:
    an exact polygon is then not simple, and a float one may have lost
    its simplicity to rounding.

    A point equal to the one before it, as rounding leaves in placed
    float pieces, is dropped first: it adds a zero-length edge, whose
    shoelace term is exactly 0, and a straight vertex that could stall
    the ear clip."""
    pts = [p for k, p in enumerate(pts) if p != pts[k - 1]]
    if len(pts) < 3:
        parts = []  # a point or a segment is left
    elif len(pts) == 3 or _is_convex(pts):
        parts = [pts]
    elif _signed_area2(pts) == 0:
        parts = []
    else:
        parts = [list(t) for t in _ear_clip(pts)]
    return [(part, _bbox(part), _edges(part)) for part in parts]


def parts_and_bounds(pieces):
    """Each piece's convex parts, and each piece's bound
    (x0, y0, x1, y1, s0, s1, d0, d1): its box, and the min and max of x + y
    and of x - y over its points, in one pass that keeps the first of equal
    values as min() and max() do.  A convex piece's box is its part's."""
    parts = [convex_parts(pts) for pts in pieces]
    bounds = []
    for p, pts in zip(parts, pieces):
        x, y = pts[0]
        s0 = s1 = x + y
        d0 = d1 = x - y
        for x, y in pts:
            s = x + y
            if s < s0:
                s0 = s
            elif s > s1:
                s1 = s
            d = x - y
            if d < d0:
                d0 = d
            elif d > d1:
                d1 = d
        box = p[0][1] if len(p) == 1 else _bbox(pts)
        bounds.append((*box, s0, s1, d0, d1))
    return parts, bounds


def overlapping_pairs(bounds_a, bounds_b=None) -> list[tuple[int, int]]:
    """Index pairs whose boxes' interiors overlap and whose diagonal
    extents meet, sorted: i < j into bounds_a, or, given bounds_b, i into
    bounds_a and j into bounds_b.

    A dropped pair has disjoint interiors, so its overlap is exactly 0.
    Boxes that only touch are apart, and so are exact (int or Fraction)
    extents that only touch; float extents are apart only with a computed
    gap, since rounding is monotone and a gap between rounded values is a
    real one, but a tie may hide an overlap.  Each piece's coordinates
    are all exact or all floats.
    """
    n = len(bounds_a)
    cross = bounds_b is not None
    bounds = list(bounds_a) + list(bounds_b) if cross else bounds_a
    if len(bounds) > 1:
        # sweep on y when, in a strided sample of at most 33 boxes, they
        # overlap more along x relative to their span on x than along y;
        # multiplied out, the test raises nothing on any coordinates
        x0s, y0s, x1s, y1s, *_ = zip(*bounds[:: len(bounds) // 32 + 1])
        if (sum(x1s) - sum(x0s)) * (max(y1s) - min(y0s)) > (
            (sum(y1s) - sum(y0s)) * (max(x1s) - min(x0s))
        ):  # x - y turns into y - x, whose ranges meet alike
            bounds = [(y0, x0, y1, x1, s0, s1, d0, d1)
                      for x0, y0, x1, y1, s0, s1, d0, d1 in bounds]
    order = sorted(range(len(bounds)), key=lambda k: bounds[k][0])
    starts = [bounds[k][0] for k in order]
    pairs = []
    for pos, i in enumerate(order):
        x0, y0, x1, y1, s0, s1, d0, d1 = bounds[i]
        # later boxes start at or after x0; those starting before x1 meet in x
        for j in order[pos + 1 : bisect_left(starts, x1, pos + 1)]:
            if cross and (i < n) == (j < n):
                continue  # both from one list
            bx0, by0, bx1, by1, bs0, bs1, bd0, bd1 = bounds[j]
            if x0 < bx1 and y0 < by1 and by0 < y1 and (
                s0 < bs1 and bs0 < s1 and d0 < bd1 and bd0 < d1
                or (isinstance(s0, float) or isinstance(bs0, float))
                and not (s1 < bs0 or bs1 < s0 or d1 < bd0 or bd1 < d0)  # a float tie
            ):
                pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    return [(i, j - n) for i, j in pairs] if cross else pairs


def part_clips(parts_a, parts_b) -> list[tuple]:
    """(fragment, doubled area) for each part of a and each part of b
    whose boxes overlap and whose intersection has area, a-major.

    Each raw clip is measured once and kept under the test _convex_clip
    applies: three or more vertices, non-zero area.  A fragment may be
    the part of a itself, when no edge of the part of b cuts it.
    """
    clips = []
    for pa, (ax0, ay0, ax1, ay1), _ in parts_a:
        for _, (bx0, by0, bx1, by1), edges in parts_b:
            if ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1:
                frag = _clip_convex_raw(pa, edges)
                if len(frag) > 2:
                    area2 = _signed_area2(frag)
                    if area2 != 0:
                        clips.append((frag, area2))
    return clips


def overlap_sum2(parts_a, parts_b):
    """Twice the area shared by two convex-part lists (0 when they do not
    meet), added left to right: sum() compensates float sums from Python
    3.12 on, so its last bit would depend on the Python."""
    total2 = 0
    for _, area2 in part_clips(parts_a, parts_b):
        total2 += area2
    return total2


def polygon_overlap(pts_a, pts_b):
    """Intersection area of two ccw simple polygons: a Fraction on int or
    Fraction coordinates, a float on float ones, and the int 0 when they
    do not meet."""
    if not _bboxes_interiors_overlap(_bbox(pts_a), _bbox(pts_b)):
        return 0
    area2 = overlap_sum2(convex_parts(pts_a), convex_parts(pts_b))
    if not area2:
        return area2
    return area2 / 2 if isinstance(area2, float) else Fraction(area2, 2)


def cell_bounds(cells):
    """(x0, y0, x1, y1) such that every cell of the set lies in
    [x0, x1) x [y0, y1)."""
    xs = [x for x, _ in cells]
    ys = [y for _, y in cells]
    return min(xs), min(ys), max(xs) + 1, max(ys) + 1


def covered_by_cells2(parts, box, area2, cells, bounds):
    """Twice the area of the parts inside a polyomino given by its set of
    (x, y) cells and their cell_bounds; box bounds the parts and area2 is
    twice their area.

    Only the cells inside the floor/ceil hull of the box, clamped to the
    bounds, can meet the parts; they are visited in sorted order.  Cell
    corners are ints, which mix exactly with int, Fraction and float parts.
    """
    x0, y0, x1, y1 = box
    cx0, cy0, cx1, cy1 = math.floor(x0), math.floor(y0), math.ceil(x1), math.ceil(y1)
    if cx1 - cx0 == 1 and cy1 - cy0 == 1 and (cx0, cy0) in cells:
        return area2  # inside one target cell
    bx0, by0, bx1, by1 = bounds
    covered = 0
    for x in range(max(cx0, bx0), min(cx1, bx1)):
        for y in range(max(cy0, by0), min(cy1, by1)):
            if (x, y) in cells:
                cell = [(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)]
                covered += overlap_sum2(parts, [(cell, (x, y, x + 1, y + 1), _edges(cell))])
    return covered


def partition_residuals(pieces, region):
    """What keeps pieces from partitioning a region, as doubled areas:
    each piece's area, the overlap (i, j, area) of every pair whose boxes
    and diagonal extents meet, and each piece's area outside the region.

    The region is a ccw simple polygon's points, or a polyomino's
    frozenset of (x, y) cells.
    """
    parts, bounds = parts_and_bounds(pieces)
    areas2 = [_signed_area2(pts) for pts in pieces]
    overlaps2 = [(i, j, overlap_sum2(parts[i], parts[j])) for i, j in overlapping_pairs(bounds)]
    if isinstance(region, frozenset):
        cells_box = cell_bounds(region)
        covered2 = [
            covered_by_cells2(p, bound[:4], area2, region, cells_box)
            for p, bound, area2 in zip(parts, bounds, areas2)
        ]
    else:
        region_parts = convex_parts(region)
        covered2 = [overlap_sum2(p, region_parts) for p in parts]
    outside2 = [area2 - cov2 for area2, cov2 in zip(areas2, covered2)]
    return areas2, overlaps2, outside2


def cell_partition_residuals(pieces, cells):
    """partition_residuals against a polyomino's frozenset of cells, from
    boundary cancellation: the same failures, for pieces placed from
    SimplePolygons by [[c, -s], [s, c]], in ints, Fractions or floats.

    Each directed piece edge counts +1, each cell's ccw unit edge -1, and
    p -> q cancels q -> p; points compare exactly, float ones too, and an
    int corner equals the float of its value.  The edges left are the
    jumps of g = sum of the pieces' indicators minus the polyomino's, so
    g = 0 off their box.  A placed exact piece of positive area is simple
    and ccw, as the map's determinant c^2 + s^2 is positive; a float one
    is a rounded image of such a piece, which rounding can leave not
    simple only by moving a vertex across a non-adjacent edge, at ulp
    scale, where the engine's float clips are not reliable either.  With
    every area positive and no edge left, the pieces partition the cells:
    no overlaps, nothing outside.  Otherwise every positive overlap or
    outside area, where g >= 1, lies in that box, and the engine runs on
    the pieces whose closed boxes meet it, in their own number type; the
    rest have no residual.  A piece without positive area (a zero
    rotation) sends all to the engine.
    """
    areas2 = [_signed_area2(pts) for pts in pieces]
    if not all(area2 > 0 for area2 in areas2):
        return partition_residuals(pieces, cells)
    ends = chain.from_iterable([pts[1:] + pts[:1] for pts in pieces])
    edges = Counter(zip(chain.from_iterable(pieces), ends))
    # the corners of each cell, ccw; each cell edge p -> q counts as q -> p
    c0 = list(cells)
    c1 = [(x + 1, y) for x, y in c0]
    c2 = [(x + 1, y + 1) for x, y in c0]
    c3 = [(x, y + 1) for x, y in c0]
    edges.update(chain(zip(c1, c0), zip(c2, c1), zip(c3, c2), zip(c0, c3)))
    count = edges.get
    left = [(p, q) for (p, q), n in edges.items() if count((q, p), 0) != n]
    if not left:
        return areas2, [], [0] * len(pieces)
    x0, y0, x1, y1 = _bbox([p for e in left for p in e])
    near = [  # the min and max of a piece's point tuples bound its x
        k for k, pts in enumerate(pieces)
        if min(pts)[0] <= x1 and x0 <= max(pts)[0]
        and (box := _bbox(pts))[1] <= y1 and y0 <= box[3]
    ]
    _, overlaps2, near_outside2 = partition_residuals([pieces[k] for k in near], cells)
    outside2 = [0] * len(pieces)
    for k, out2 in zip(near, near_outside2):
        outside2[k] = out2
    return areas2, [(near[i], near[j], area2) for i, j, area2 in overlaps2], outside2
