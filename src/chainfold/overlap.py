"""The overlap engine: broad phase, convex parts and narrow phase.

Every overlap computation of the package runs through here: the
partition check that exact and approximate configuration verification
and both sides of chart verification share, the chart overlay, the
animation sampler's per-frame overlap report, and the public
``overlap_area``, ``interiors_overlap`` and ``polygon_contains``.

Like the tuple core of ``exact_geom`` it works on ``(x, y)`` tuples and
never looks at the number type: int and Fraction coordinates give exact
areas, float coordinates give float areas.  The sums are doubled areas,
as ``_signed_area2`` gives them, so an int sum is never halved into a
float; callers compare doubled areas or halve a float.

- Broad phase: sort and sweep over precomputed bounding boxes, along
  the axis on which the boxes overlap less relative to their spread
  (judged on a strided sample).  Boxes are sorted by their lower end on
  that axis; each box is tested only against the boxes whose lower end
  falls inside its own range, found by bisection.  The pairs returned
  are exactly those whose boxes' interiors overlap, in lexicographic
  order.  The cross form sweeps two lists as one and keeps the pairs
  that join them.  A second filter keeps the box pairs whose pieces'
  diagonal extents (the ranges of x + y and x - y over their vertices)
  meet too: a box and those extents bound a piece by an octagon, and two
  half-squares of one lattice cell, whose boxes coincide, meet only along
  the diagonal that their extents share.
- Convex parts: a polygon is split once per call, into itself when it
  is convex and into its ear-clip triangles otherwise.  Parts live in
  the caller's lists, so nothing is cached across calls.
- Narrow phase: convex clipping of every part pair whose boxes overlap.
  Area sums measure each raw clip once, with no second pass over the
  fragments.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from .exact_geom import _bbox, _clip_convex_raw, _convex_clip, _ear_clip, _is_convex, _signed_area2


def pairs_within(boxes) -> list[tuple[int, int]]:
    """Index pairs i < j of one box list whose interiors overlap, sorted."""
    if len(boxes) > 1 and _crowded_in_x(boxes):
        boxes = [(y0, x0, y1, x1) for x0, y0, x1, y1 in boxes]  # sweep on y
    order = sorted(range(len(boxes)), key=lambda k: boxes[k][0])
    starts = [boxes[k][0] for k in order]
    pairs = []
    for pos, i in enumerate(order):
        x0, y0, x1, y1 = boxes[i]
        # later boxes start at or after x0; those starting before x1 meet in x
        for j in order[pos + 1 : bisect_left(starts, x1, pos + 1)]:
            bx0, by0, bx1, by1 = boxes[j]
            if x0 < bx1 and y0 < by1 and by0 < y1:
                pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    return pairs


def _crowded_in_x(boxes) -> bool:
    """Whether the boxes overlap more along x than along y, each axis's
    summed box length taken relative to the span of the boxes on it, in
    a strided sample of at most 33 boxes: a sweep on y then finds fewer
    candidates.  Either axis gives the same pairs.  The test multiplies
    instead of dividing, so it raises nothing on any coordinates."""
    x0s, y0s, x1s, y1s = zip(*boxes[:: len(boxes) // 32 + 1])
    return (sum(x1s) - sum(x0s)) * (max(y1s) - min(y0s)) > (
        (sum(y1s) - sum(y0s)) * (max(x1s) - min(x0s))
    )


def pairs_across(boxes_a, boxes_b) -> list[tuple[int, int]]:
    """Index pairs (i, j), i into boxes_a and j into boxes_b, whose box
    interiors overlap, sorted."""
    n = len(boxes_a)
    return [(i, j - n) for i, j in pairs_within(list(boxes_a) + list(boxes_b)) if i < n <= j]


def diagonal_pairs(pairs, pieces_a, pieces_b) -> list[tuple[int, int]]:
    """The box pairs (i, j), i into pieces_a and j into pieces_b, whose
    pieces' diagonal extents meet too, in their order.

    A piece's extents, the min and max of x + y and of x - y over its
    points, are computed when it first appears in a pair.  A dropped pair
    has disjoint interiors, so its overlap is exactly 0.  Exact (int or
    Fraction) extents that only touch are apart; float extents are apart
    only with a computed gap, since rounding is monotone and a gap
    between rounded values is a real one, but a tie may hide an overlap.
    Each piece's coordinates are all exact or all floats.
    """
    ext_a = [None] * len(pieces_a)
    ext_b = ext_a if pieces_b is pieces_a else [None] * len(pieces_b)
    kept = []
    for i, j in pairs:
        a = ext_a[i]
        if a is None:
            a = ext_a[i] = _diagonal_extents(pieces_a[i])
        b = ext_b[j]
        if b is None:
            b = ext_b[j] = _diagonal_extents(pieces_b[j])
        sa0, sa1, da0, da1 = a
        sb0, sb1, db0, db1 = b
        if sa0 < sb1 and sb0 < sa1 and da0 < db1 and db0 < da1:
            kept.append((i, j))
        elif (isinstance(sa0, float) or isinstance(sb0, float)) and not (
            sa1 < sb0 or sb1 < sa0 or da1 < db0 or db1 < da0
        ):
            kept.append((i, j))  # a float tie
    return kept


def _diagonal_extents(pts):
    """(min, max) of x + y and (min, max) of x - y over the points."""
    sums = [x + y for x, y in pts]
    diffs = [x - y for x, y in pts]
    return min(sums), max(sums), min(diffs), max(diffs)


def convex_parts(pts) -> list[tuple[list, tuple]]:
    """(part, bounding box) for each convex part of a ccw simple polygon:
    the polygon itself when convex, else its ear-clip triangles."""
    if len(pts) == 3 or _is_convex(pts):
        parts = [list(pts)]
    else:
        parts = [list(t) for t in _ear_clip(list(pts))]
    return [(part, _bbox(part)) for part in parts]


def clip_parts(parts_a, parts_b):
    """Yield the non-empty intersection of each part of a with each part
    of b whose boxes overlap, a-major."""
    for pa, (ax0, ay0, ax1, ay1) in parts_a:
        for pb, (bx0, by0, bx1, by1) in parts_b:
            if ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1:
                frag = _convex_clip(pa, pb)
                if frag:
                    yield frag


def overlap_sum2(parts_a, parts_b):
    """Twice the area shared by two convex-part lists (0 when they do not meet).

    Each raw clip is measured once and kept under the test _convex_clip
    applies (three or more vertices, non-zero area), so this sums exactly
    the areas of what clip_parts yields, in the same order.
    """
    areas = []
    for pa, (ax0, ay0, ax1, ay1) in parts_a:
        for pb, (bx0, by0, bx1, by1) in parts_b:
            if ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1:
                frag = _clip_convex_raw(pa, pb)
                if len(frag) > 2:
                    area2 = _signed_area2(frag)
                    if area2 != 0:
                        areas.append(area2)
    return sum(areas)


def polygon_overlap(pts_a, pts_b):
    """Intersection area of two ccw simple polygons with Fraction or float
    coordinates (the int 0 when they do not meet)."""
    ax0, ay0, ax1, ay1 = _bbox(pts_a)
    bx0, by0, bx1, by1 = _bbox(pts_b)
    if not (ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1):
        return 0
    area2 = overlap_sum2(convex_parts(pts_a), convex_parts(pts_b))
    return area2 / 2 if area2 else area2


def parts_and_boxes(pieces):
    """Each piece's convex parts, and each piece's bounding box: a convex
    piece is its own single part, whose box is the piece's."""
    parts = [convex_parts(pts) for pts in pieces]
    return parts, [p[0][1] if len(p) == 1 else _bbox(pts) for p, pts in zip(parts, pieces)]


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
                covered += overlap_sum2(parts, [(cell, (x, y, x + 1, y + 1))])
    return covered


def partition_residuals(pieces, region):
    """What keeps pieces from partitioning a region, as doubled areas:
    each piece's area, the overlap (i, j, area) of every pair whose boxes
    and diagonal extents meet, and each piece's area outside the region.

    The region is a ccw simple polygon's points, or a polyomino's
    frozenset of (x, y) cells.
    """
    parts, boxes = parts_and_boxes(pieces)
    areas2 = [_signed_area2(pts) for pts in pieces]
    pairs = diagonal_pairs(pairs_within(boxes), pieces, pieces)
    overlaps2 = [(i, j, overlap_sum2(parts[i], parts[j])) for i, j in pairs]
    if isinstance(region, frozenset):
        bounds = cell_bounds(region)
        covered2 = [
            covered_by_cells2(p, box, area2, region, bounds)
            for p, box, area2 in zip(parts, boxes, areas2)
        ]
    else:
        region_parts = convex_parts(region)
        covered2 = [overlap_sum2(p, region_parts) for p in parts]
    outside2 = [area2 - cov2 for area2, cov2 in zip(areas2, covered2)]
    return areas2, overlaps2, outside2
