"""The overlap engine: broad phase, convex parts and narrow phase.

Every overlap computation of the package runs through here: exact and
approximate configuration verification, both sides of chart
verification, the chart overlay, the animation sampler's per-frame
overlap report, and the public ``overlap_area``, ``interiors_overlap``
and ``polygon_contains``.

Like the tuple core of ``exact_geom`` it works on ``(x, y)`` tuples and
never looks at the number type: Fraction coordinates give exact
Fraction areas, float coordinates give float areas.

- Broad phase: sort and sweep over precomputed bounding boxes.  Boxes
  are sorted by their lower x; each box is tested only against the boxes
  whose lower x falls inside its own x range, found by bisection.  The
  pairs returned are exactly those whose boxes' interiors overlap, in
  lexicographic order.  The cross form sweeps two lists as one and keeps
  the pairs that join them.
- Convex parts: a polygon is split once per call, into itself when it
  is convex and into its ear-clip triangles otherwise.  Parts live in
  the caller's lists, so nothing is cached across calls.
- Narrow phase: convex clipping of every part pair whose boxes overlap.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from .exact_geom import _bbox, _convex_clip, _ear_clip, _is_convex, _signed_area2


def pairs_within(boxes) -> list[tuple[int, int]]:
    """Index pairs i < j of one box list whose interiors overlap, sorted."""
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


def pairs_across(boxes_a, boxes_b) -> list[tuple[int, int]]:
    """Index pairs (i, j), i into boxes_a and j into boxes_b, whose box
    interiors overlap, sorted."""
    n = len(boxes_a)
    return [(i, j - n) for i, j in pairs_within(list(boxes_a) + list(boxes_b)) if i < n <= j]


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


def overlap_sum(parts_a, parts_b):
    """Area shared by two convex-part lists (0 when they do not meet)."""
    total = 0
    for frag in clip_parts(parts_a, parts_b):
        total += _signed_area2(frag) / 2
    return total


def polygon_overlap(pts_a, pts_b):
    """Intersection area of two ccw simple polygons."""
    ax0, ay0, ax1, ay1 = _bbox(pts_a)
    bx0, by0, bx1, by1 = _bbox(pts_b)
    if not (ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1):
        return 0
    return overlap_sum(convex_parts(pts_a), convex_parts(pts_b))


def covered_by_cells(parts, box, cells, num):
    """Area of the parts inside a polyomino given by its set of (x, y) cells.

    Only the cells inside the floor/ceil hull of the box can meet the
    parts; they are visited in sorted order.  ``num`` converts a cell
    coordinate to the parts' number type.
    """
    x0, y0, x1, y1 = box
    cx0, cy0, cx1, cy1 = math.floor(x0), math.floor(y0), math.ceil(x1), math.ceil(y1)
    if cx1 - cx0 == 1 and cy1 - cy0 == 1 and (cx0, cy0) in cells:
        return sum(_signed_area2(part) for part, _ in parts) / 2  # inside one target cell
    covered = 0
    for x in range(cx0, cx1):
        for y in range(cy0, cy1):
            if (x, y) in cells:
                lo_x, lo_y, hi_x, hi_y = num(x), num(y), num(x + 1), num(y + 1)
                cell = [(lo_x, lo_y), (hi_x, lo_y), (hi_x, hi_y), (lo_x, hi_y)]
                covered += overlap_sum(parts, [(cell, (lo_x, lo_y, hi_x, hi_y))])
    return covered
