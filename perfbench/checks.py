"""Independent checks of the artifacts the program writes.

None of these call the program's own verifiers: they read the written
JSON and re-derive what must hold.  Each returns a list of problems;
an empty list means the artifact is correct.
"""

from __future__ import annotations

import math
from fractions import Fraction

CHART_TOLERANCE = 1e-9  # relative, as in criterion 8
KINEMATIC_TOLERANCE = 1e-9  # absolute, as in criterion 7
MAX_PROBLEMS = 5


def placed_vertices(doc: dict, config_index: int):
    """Exact placed vertex lists of every piece under one configuration."""
    placements = doc["configurations"][config_index]["placements"]
    out = []
    for verts, m in zip(doc["figure"]["pieces"], placements):
        c, s = Fraction(m["cos"]), Fraction(m["sin"])
        tx, ty = Fraction(m["tx"]), Fraction(m["ty"])
        out.append([
            (c * x - s * y + tx, s * x + c * y + ty)
            for x, y in ((Fraction(a), Fraction(b)) for a, b in verts)
        ])
    return out


def fold_problems(doc: dict, cells, config_index: int = 0) -> list[str]:
    """O(n) half-square accounting for a chain fold onto a polyomino.

    Every placed piece must be a lattice half-square (three corners of
    one unit cell, counterclockwise), every target cell must hold exactly
    two complementary halves (their missing corners are opposite), no
    piece may lie outside the target, and every hinge's two pinned
    vertices must coincide.
    """
    problems = []
    pieces = doc["figure"]["pieces"]
    placements = doc["configurations"][config_index]["placements"]
    placed = placed_vertices(doc, config_index)
    if len(pieces) != 2 * len(cells) or len(placements) != len(pieces):
        problems.append(f"{len(pieces)} pieces, {len(placements)} placements, {len(cells)} cells")
    missing_by_cell: dict = {}
    for i, (pts, m) in enumerate(zip(placed, placements)):
        if Fraction(m["cos"]) ** 2 + Fraction(m["sin"]) ** 2 != 1:
            problems.append(f"piece {i}: placement is not a rotation")
        if len(pts) != 3 or any(v.denominator != 1 for p in pts for v in p):
            problems.append(f"piece {i}: not a triangle on lattice points")
            continue
        x0 = min(x for x, _ in pts)
        y0 = min(y for _, y in pts)
        corners = {(x0, y0), (x0 + 1, y0), (x0 + 1, y0 + 1), (x0, y0 + 1)}
        a, b, c = pts
        ccw = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) > 0
        if len(set(pts)) != 3 or not set(pts) <= corners or not ccw:
            problems.append(f"piece {i}: not a counterclockwise lattice half-square")
            continue
        (missing,) = corners - set(pts)
        missing_by_cell.setdefault((int(x0), int(y0)), []).append(missing)
    for cx, cy in cells:
        missing = missing_by_cell.pop((cx, cy), [])
        complementary = (
            len(missing) == 2
            and missing[0][0] + missing[1][0] == 2 * cx + 1
            and missing[0][1] + missing[1][1] == 2 * cy + 1
        )
        if not complementary:
            problems.append(f"cell ({cx},{cy}): {len(missing)} halves, not two complementary")
    for cell in missing_by_cell:
        problems.append(f"cell {cell}: covered but not in the target")
    hinges = doc["figure"]["hinges"]
    if len(hinges) != len(pieces):
        problems.append(f"{len(hinges)} hinges for {len(pieces)} pieces")
    for idx, (pa, va, pb, vb) in enumerate(hinges):
        if placed[pa][va] != placed[pb][vb]:
            problems.append(f"hinge {idx}: pinned vertices do not coincide")
    return problems[:MAX_PROBLEMS]


def _float(value) -> float:
    return float(Fraction(value)) if isinstance(value, str) else float(value)


def _shoelace(pts) -> float:
    n = len(pts)
    return sum(
        pts[i][0] * pts[(i + 1) % n][1] - pts[(i + 1) % n][0] * pts[i][1] for i in range(n)
    ) / 2.0


def _apply(m: dict, pts):
    c, s = math.cos(m["angle_rad"]), math.sin(m["angle_rad"])
    return [(c * x - s * y + m["tx"], s * x + c * y + m["ty"]) for x, y in pts]


def _outside(points, polygon, tolerance: float) -> int:
    """How many of `points` lie neither inside `polygon` nor within
    `tolerance` of its boundary (even-odd rule)."""
    edges = list(zip(polygon, polygon[1:] + polygon[:1]))
    count = 0
    for px, py in points:
        inside = False
        near = False
        for (x1, y1), (x2, y2) in edges:
            if (y1 > py) != (y2 > py) and px < x1 + (py - y1) * (x2 - x1) / (y2 - y1):
                inside = not inside
            dx, dy = x2 - x1, y2 - y1
            t = max(0.0, min(1.0, ((px - x1) * dx + (py - y1) * dy) / (dx * dx + dy * dy)))
            if math.hypot(px - x1 - t * dx, py - y1 - t * dy) <= tolerance:
                near = True
                break
        count += not (inside or near)
    return count


def _bbox(points):
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    return min(xs), min(ys), max(xs), max(ys)


def chart_problems(chart: dict, polygon_a, polygon_b) -> list[str]:
    """There is at least one piece and one motion per piece; the pieces'
    areas sum to the area of a, within 1e-9 relative; the pieces lie in a
    and, moved by their motions, in b, each vertex within 1e-9 (relative
    to the polygon's size); and on each side the pieces' bounding box is
    the polygon's."""
    problems = []
    pieces = [[(_float(x), _float(y)) for x, y in piece] for piece in chart["pieces"]]
    motions = chart["target_motions"]
    if not pieces:
        return ["chart has no pieces"]
    if len(motions) != len(pieces):
        problems.append(f"{len(motions)} motions for {len(pieces)} pieces")
    expected = _shoelace(polygon_a)
    err = abs(sum(_shoelace(p) for p in pieces) - expected) / expected
    if err > CHART_TOLERANCE:
        problems.append(f"piece areas off by {err:.3g} relative")
    placed = [_apply(m, p) for m, p in zip(motions, pieces)]
    for side, polygon, parts in (("a", polygon_a, pieces), ("b", polygon_b, placed)):
        polygon = [(float(x), float(y)) for x, y in polygon]
        box = _bbox(polygon)
        tolerance = CHART_TOLERANCE * max(box[2] - box[0], box[3] - box[1])
        points = {v for part in parts for v in part}
        outside = _outside(points, polygon, tolerance)
        if outside:
            problems.append(f"{outside} piece vertices outside polygon {side}")
        if any(abs(u - v) > tolerance for u, v in zip(_bbox(points), box)):
            problems.append(f"pieces' bounding box is not polygon {side}'s")
    return problems


def animation_problems(report: dict, doc: dict, frames: int) -> list[str]:
    """The frame count is as asked, and the first and last frames place every
    vertex within 1e-9 of the document's two exact configurations."""
    problems = []
    got = report["frames"]
    if len(got) != frames:
        return [f"{len(got)} frames, expected {frames}"]
    local = [[(_float(x), _float(y)) for x, y in verts] for verts in doc["figure"]["pieces"]]
    for frame, config_index in ((got[0], 0), (got[-1], 1)):
        exact = placed_vertices(doc, config_index)
        worst = 0.0
        for m, pts, ref in zip(frame["placements"], local, exact):
            for (x1, y1), (x2, y2) in zip(_apply(m, pts), ref):
                worst = max(worst, math.hypot(x1 - float(x2), y1 - float(y2)))
        if worst > KINEMATIC_TOLERANCE:
            problems.append(f"end frame {config_index} is {worst:.3g} from its configuration")
    return problems
