"""Shared test data and independent oracles."""

from __future__ import annotations

import importlib
import itertools
import pkgutil
import random
from collections import Counter
from fractions import Fraction
from importlib import resources

from hypothesis import settings

import chainfold
from chainfold.chain import PlacedTriangle
from chainfold.exact_geom import Point2, SimplePolygon, polygon, polygon_area
from chainfold.polyomino import Cell, Polyomino, PolyominoError, random_polyomino

# Every run draws the same examples (derandomize also turns the example
# database off), and wall-clock jitter cannot fail a property test.
settings.register_profile("chainfold", derandomize=True, deadline=None)
settings.load_profile("chainfold")

# Hypothesis also draws constants found in the source of every local
# module loaded at the time of a draw; test files do not count, and
# chainfold is the only other local package the tests load.  Loading all
# of it here, before the first draw, gives every run the same pool, so a
# test draws the same examples alone as in the whole suite.
for _module in pkgutil.iter_modules(chainfold.__path__):
    importlib.import_module(f"chainfold.{_module.name}")


def failed_checks(report) -> set[str]:
    """The names of the checks a VerifyReport failed."""
    return {name for name, _ in report.failures}


def glyph_names() -> list[str]:
    """The names of the shipped 64-cell glyphs, one per assets/glyphs/*.txt."""
    glyphs = resources.files("chainfold") / "assets" / "glyphs"
    return sorted(entry.name[:-4] for entry in glyphs.iterdir() if entry.name.endswith(".txt"))


# the 5 free tetrominoes and 12 free pentominoes as ASCII grids
TETROMINO_GRIDS = {
    "I4": "####",
    "O4": "##\n##",
    "T4": "###\n.#.",
    "S4": ".##\n##.",
    "L4": "#.\n#.\n##",
}

PENTOMINO_GRIDS = {
    "F": ".##\n##.\n.#.",
    "I": "#####",
    "L": "#.\n#.\n#.\n##",
    "N": ".#\n.#\n##\n#.",
    "P": "##\n##\n#.",
    "T": "###\n.#.\n.#.",
    "U": "#.#\n###",
    "V": "#..\n#..\n###",
    "W": "#..\n##.\n.##",
    "X": ".#.\n###\n.#.",
    "Y": ".#\n##\n.#\n.#",
    "Z": "##.\n.#.\n.##",
}


def cell_split_triangles(cell, diagonal: int) -> tuple[PlacedTriangle, PlacedTriangle]:
    """The two placed halves of a cell; diagonal 0 is the anti-diagonal."""
    x, y = cell
    if diagonal == 0:
        return (
            PlacedTriangle((x, y), (x + 1, y), (x, y + 1)),
            PlacedTriangle((x + 1, y + 1), (x, y + 1), (x + 1, y)),
        )
    return (
        PlacedTriangle((x + 1, y), (x + 1, y + 1), (x, y)),
        PlacedTriangle((x, y + 1), (x, y), (x + 1, y + 1)),
    )


def canonical_cycle(cycle) -> tuple:
    """Rotate a cyclic piece sequence so its smallest piece comes first."""
    keyed = [(t.right_angle_corner, t.base_u, t.base_v) for t in cycle]
    k = keyed.index(min(keyed))
    return tuple(cycle[k:] + cycle[:k])


def enumerate_half_square_cycles(p: Polyomino) -> set:
    """Brute force: every valid hinged cycle of half-square triangles tiling p.

    Chooses a split diagonal per cell, then searches all cyclic orders of
    the resulting 2n pieces for ones whose consecutive hinge points
    coincide.  Cycles are canonicalized up to rotation.  Exponential;
    intended for n <= 2.
    """
    cells = sorted(p.cells)
    found = set()
    for combo in itertools.product((0, 1), repeat=len(cells)):
        pieces = []
        for cell, diag in zip(cells, combo):
            pieces.extend(cell_split_triangles(cell, diag))
        first, rest = pieces[0], pieces[1:]
        for perm in itertools.permutations(rest):
            cycle = [first, *perm]
            ok = all(
                cycle[i].base_u == cycle[(i + 1) % len(cycle)].base_v
                for i in range(len(cycle))
            )
            if ok:
                found.add(canonical_cycle(list(cycle)))
    return found


class HolePresent(PolyominoError):
    pass


class CornerContact(HolePresent):
    """Two cells meet only at a corner.  The empty space they pinch off
    is a hole whose boundary touches the outline at that vertex."""


def boundary_polygon(p: Polyomino) -> SimplePolygon:
    """Counterclockwise outer boundary with integer vertices.

    Raises HolePresent when the cells enclose empty space: an enclosed
    region produces a second boundary cycle.  Its subclass CornerContact
    is raised when two cells meet only at a corner, where the outline
    would leave one vertex along two edges.
    """
    # directed boundary edges with the owning cell on the left
    pairs = []
    for cx, cy in p:
        if Cell(cx, cy - 1) not in p:
            pairs.append(((cx, cy), (cx + 1, cy)))
        if Cell(cx + 1, cy) not in p:
            pairs.append(((cx + 1, cy), (cx + 1, cy + 1)))
        if Cell(cx, cy + 1) not in p:
            pairs.append(((cx + 1, cy + 1), (cx, cy + 1)))
        if Cell(cx - 1, cy) not in p:
            pairs.append(((cx, cy + 1), (cx, cy)))
    edges = dict(pairs)
    if len(edges) < len(pairs):
        starts = Counter(v for v, _ in pairs)
        x, y = min(v for v, k in starts.items() if k > 1)
        raise CornerContact(f"cells meet only at the corner ({x}, {y}); the outline is not simple")
    start = min(edges)
    loop = [start]
    cur = edges.pop(start)
    while cur != start:
        loop.append(cur)
        cur = edges.pop(cur)
    if edges:
        raise HolePresent("cell set encloses empty space")
    # rotate so the lexicographically smallest vertex comes first
    k = loop.index(min(loop))
    return polygon(loop[k:] + loop[:k])


def rational_convex_hull(points) -> SimplePolygon:
    """Monotone-chain convex hull over exact rational points (ccw)."""
    pts = sorted(set((Fraction(x), Fraction(y)) for x, y in points))
    if len(pts) < 3:
        raise ValueError("need at least 3 distinct points")

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise ValueError("points are collinear")
    return SimplePolygon([Point2(x, y) for x, y in hull])


def scale_x(poly: SimplePolygon, k: Fraction) -> SimplePolygon:
    """Anisotropic x-scaling; preserves simplicity and scales area by k."""
    return SimplePolygon([Point2(v.x * k, v.y) for v in poly.vertices])


def _random_rational_polygon(rng, kind):
    if kind == "hull":
        pts = {(rng.randrange(0, 13), rng.randrange(0, 13)) for _ in range(rng.randrange(8, 15))}
        try:
            return rational_convex_hull(pts)
        except ValueError:
            return _random_rational_polygon(rng, kind)
    shape = random_polyomino(rng.randrange(4, 9), rng.randrange(10**6))
    try:
        return boundary_polygon(shape)
    except Exception:
        return _random_rational_polygon(rng, kind)


def criterion_8_cases() -> list[tuple[str, SimplePolygon, SimplePolygon, Fraction]]:
    """The 21 equal-area pairs of acceptance criterion 8 as (label, a, b,
    width): a square and a triangle, then 20 pairs drawn from
    random.Random(733), alternating a lattice hull against a polyomino
    boundary, with b scaled in x to a's area."""
    cases = [
        (
            "square2-vs-triangle",
            polygon([(0, 0), (2, 0), (2, 2), (0, 2)]),
            polygon([(0, 0), (4, 0), (0, 2)]),
            Fraction(2),
        )
    ]
    rng = random.Random(733)
    for k in range(20):
        pa = _random_rational_polygon(rng, "hull" if k % 2 == 0 else "grid")
        pb = _random_rational_polygon(rng, "grid" if k % 2 == 0 else "hull")
        pb = scale_x(pb, polygon_area(pa) / polygon_area(pb))
        cases.append((f"random-{k}", pa, pb, Fraction(1)))
    return cases
