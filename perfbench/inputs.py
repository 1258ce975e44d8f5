"""Seeded input generation for the benchmark workloads.

Everything here is self-contained so that the inputs do not change when
the program under test changes.  The generators re-implement the rules
the acceptance suite uses (seeded polyomino growth, lattice boundary
tracing, rational convex hulls, x-scaling to equal area), so the default
seeds reproduce the acceptance corpora exactly.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path

STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # E, N, W, S
GLYPHS = ("I", "L", "O", "T")
FOLD_SIZES = (64, 256, 1024)
CRITERION_8_SEED = 733
CRITERION_8_PAIRS = 20  # random pairs, after the fixed square/triangle pair


# ---------------------------------------------------------------------------
# polyominoes


def random_cells(n: int, seed: int) -> frozenset:
    """Seeded random growth: attach a uniformly chosen frontier cell, n-1 times.

    Same rule and random stream as the acceptance suite's shape generator;
    the result is translated so its smallest x and y are 0.
    """
    rng = random.Random(seed)
    cells = {(0, 0)}
    frontier = set(STEPS)
    while len(cells) < n:
        pick = sorted(frontier)[rng.randrange(len(frontier))]
        cells.add(pick)
        frontier.discard(pick)
        for dx, dy in STEPS:
            nb = (pick[0] + dx, pick[1] + dy)
            if nb not in cells:
                frontier.add(nb)
    return translated_to_origin(cells)


def translated_to_origin(cells) -> frozenset:
    min_x = min(x for x, _ in cells)
    min_y = min(y for _, y in cells)
    return frozenset((x - min_x, y - min_y) for x, y in cells)


def grid_text(cells) -> str:
    """ASCII grid, top row first, '#' for a cell."""
    max_x = max(x for x, _ in cells)
    max_y = max(y for _, y in cells)
    rows = [
        "".join("#" if (x, y) in cells else "." for x in range(max_x + 1))
        for y in range(max_y, -1, -1)
    ]
    return "\n".join(rows) + "\n"


def parse_grid_cells(text: str) -> frozenset:
    """Cells of an ASCII grid (first row on top), translated to the origin."""
    rows = [row for row in text.splitlines() if row.strip()]
    height = len(rows)
    cells = {
        (col, height - 1 - r)
        for r, row in enumerate(rows)
        for col, ch in enumerate(row)
        if ch == "#"
    }
    return translated_to_origin(cells)


def load_glyph(root: Path, name: str) -> frozenset:
    path = root / "src" / "chainfold" / "assets" / "glyphs" / f"{name}.txt"
    return parse_grid_cells(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# rational polygons


class Rejected(ValueError):
    """The drawn shape is unusable; the generator draws again."""


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def area(pts) -> Fraction:
    """Exact shoelace area of a ccw vertex list."""
    n = len(pts)
    return Fraction(
        sum(pts[i][0] * pts[(i + 1) % n][1] - pts[(i + 1) % n][0] * pts[i][1] for i in range(n))
    ) / 2


def normalized(pts):
    """Drop duplicate and straight vertices one at a time, in index order.

    This is the normalization the program applies to every polygon it
    reads, so the vertex lists written here are read back unchanged.
    """
    pts = list(pts)
    changed = True
    while changed and len(pts) >= 3:
        changed = False
        n = len(pts)
        for i in range(n):
            prv, cur, nxt = pts[(i - 1) % n], pts[i], pts[(i + 1) % n]
            if cur == nxt or (prv != cur and _orient(prv, cur, nxt) == 0):
                del pts[i]
                changed = True
                break
    return pts


def boundary(cells):
    """Counterclockwise outer boundary of a cell set, smallest vertex first.

    Rejects cell sets whose boundary is not one simple loop (holes, or
    cells meeting only at a corner).
    """
    edges = {}
    for cx, cy in cells:
        if (cx, cy - 1) not in cells:
            edges[(cx, cy)] = (cx + 1, cy)
        if (cx + 1, cy) not in cells:
            edges[(cx + 1, cy)] = (cx + 1, cy + 1)
        if (cx, cy + 1) not in cells:
            edges[(cx + 1, cy + 1)] = (cx, cy + 1)
        if (cx - 1, cy) not in cells:
            edges[(cx, cy + 1)] = (cx, cy)
    start = min(edges)
    loop = [start]
    cur = edges.pop(start)
    while cur != start:
        loop.append(cur)
        if cur not in edges:
            raise Rejected("boundary revisits a vertex")
        cur = edges.pop(cur)
    if edges:
        raise Rejected("cells enclose a hole")
    k = loop.index(min(loop))
    return normalized([(Fraction(x), Fraction(y)) for x, y in loop[k:] + loop[:k]])


def convex_hull(points):
    """Monotone-chain convex hull (ccw) of rational points."""
    pts = sorted(set((Fraction(x), Fraction(y)) for x, y in points))
    if len(pts) < 3:
        raise Rejected("fewer than 3 distinct points")
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _orient(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _orient(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise Rejected("points are collinear")
    return normalized(hull)


def random_polygon(rng: random.Random, kind: str):
    """A 'hull' of 8-14 lattice points or the 'grid' boundary of a 4-8 cell polyomino.

    Draws again until the shape is usable, consuming the random stream
    exactly as the acceptance suite's criterion-8 generator does.
    """
    while True:
        try:
            if kind == "hull":
                count = rng.randrange(8, 15)
                pts = {(rng.randrange(0, 13), rng.randrange(0, 13)) for _ in range(count)}
                return convex_hull(pts)
            n = rng.randrange(4, 9)
            return boundary(random_cells(n, rng.randrange(10**6)))
        except Rejected:
            continue


def criterion_8_pairs():
    """The 21 criterion-8 pairs as (label, polygon a, polygon b, width)."""
    pairs = [(
        "square2-vs-triangle",
        [(Fraction(x), Fraction(y)) for x, y in ((0, 0), (2, 0), (2, 2), (0, 2))],
        [(Fraction(x), Fraction(y)) for x, y in ((0, 0), (4, 0), (0, 2))],
        Fraction(2),
    )]
    rng = random.Random(CRITERION_8_SEED)
    for k in range(CRITERION_8_PAIRS):
        pa = random_polygon(rng, "hull" if k % 2 == 0 else "grid")
        pb = random_polygon(rng, "grid" if k % 2 == 0 else "hull")
        scale = area(pa) / area(pb)
        pb = [(x * scale, y) for x, y in pb]
        pairs.append((f"random-{k}", pa, pb, Fraction(1)))
    return pairs


def bg_pairs(seed: int):
    """The criterion-8 pairs, in the acceptance suite's order at seed 733
    and in a seeded order otherwise.

    Every seed runs the same 21 pairs.  Fresh shapes per seed would make
    the workload's cost heavy-tailed in the seed, and congruent copies
    of these pairs make `bg` fail its own chart verification on some
    seeds (see README.md), so neither can serve as a steady workload.
    """
    pairs = criterion_8_pairs()
    if seed != CRITERION_8_SEED:
        random.Random(seed).shuffle(pairs)
    return pairs


def rational_json(value: Fraction):
    return value.numerator if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def polygon_json(pts) -> list:
    return [[rational_json(x), rational_json(y)] for x, y in pts]


# ---------------------------------------------------------------------------
# glyph pairs and mutants


def glyph_pairs(seed: int):
    """The 6 unordered glyph pairs; the seed picks each pair's direction and
    the job order."""
    rng = random.Random(seed)
    pairs = [
        (b, a) if rng.random() < 0.5 else (a, b)
        for a, b in itertools.combinations(GLYPHS, 2)
    ]
    rng.shuffle(pairs)
    return pairs


def mutate(doc: dict, rng: random.Random, placed) -> str:
    """Apply one seeded geometry-changing mutation to an HDJ document in place.

    'translate' moves one piece by +1 in x; 'rotate' turns one piece a
    quarter turn about its frame origin; 'swap-hinges' exchanges the far
    ends of two hinges whose placed points differ.  placed holds each
    piece's placed vertices.  Returns the mutation's name.
    """
    kind = rng.choice(("translate", "rotate", "swap-hinges"))
    placements = doc["configurations"][0]["placements"]
    if kind == "translate":
        m = placements[rng.randrange(len(placements))]
        m["tx"] = rational_json(Fraction(m["tx"]) + 1)
    elif kind == "rotate":
        m = placements[rng.randrange(len(placements))]
        cos, sin = Fraction(m["cos"]), Fraction(m["sin"])
        m["cos"], m["sin"] = rational_json(-sin), rational_json(cos)
    else:
        hinges = doc["figure"]["hinges"]
        point = [placed[a][va] for a, va, _, _ in hinges]
        i = rng.randrange(len(hinges))
        others = [
            j for j in range(len(hinges))
            if point[j] != point[i]
            and hinges[i][0] != hinges[j][2]  # a hinge may not join a piece to itself
            and hinges[j][0] != hinges[i][2]
        ]
        j = rng.choice(others)
        (hinges[i][2], hinges[i][3]), (hinges[j][2], hinges[j][3]) = (
            (hinges[j][2], hinges[j][3]),
            (hinges[i][2], hinges[i][3]),
        )
        doc["figure"]["topology"] = "general"
    return kind
