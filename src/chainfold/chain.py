"""Folding the 2n-piece triangle cycle onto polyominoes.

Every cell of an n-omino is covered by two complementary half-square
triangles.  The construction keeps one cyclic sequence of placed
triangles: the root cell is split across its anti-diagonal, and each
further cell is spliced into the cycle at a hinge already sitting on a
corner of its attachment edge.  The pieces spliced in for a cell always
leave hinges at two diagonally opposite corners of that cell, which is
exactly what guarantees the next splice can find a hinge.  The result
is always the canonical 2n-cycle figure, so equal-area polyominoes
share one figure and therefore one hinged dissection.
"""

from __future__ import annotations

from typing import NamedTuple

from .exact_geom import Point2, RigidMotion, _orient
from .figures import Configuration, HingedFigure, canonical_chain_figure
from .polyomino import NEIGHBOR_STEPS, Cell, Polyomino, dual_spanning_tree, parse_grid

GridPoint = tuple[int, int]


class ChainError(ValueError):
    """Base class for chain-fold errors."""


class BadSplice(ChainError):
    pass


class AreaMismatch(ChainError):
    pass


class UnknownShape(ChainError):
    pass


class PlacedTriangle(NamedTuple):
    """Half-square triangle on the lattice.

    base_u and base_v are the 45-degree (hypotenuse) corners realizing
    local vertices 1 and 2 of the canonical piece; the triple
    (right_angle_corner, base_u, base_v) is counterclockwise.
    """

    right_angle_corner: GridPoint
    base_u: GridPoint
    base_v: GridPoint

    def placement(self) -> RigidMotion:
        """Quarter-turn motion carrying the canonical local piece here, on
        the lattice's ints."""
        cx, cy = self.right_angle_corner
        ux, uy = self.base_u
        return RigidMotion(ux - cx, uy - cy, Point2(cx, cy))


def _is_corner(cell, pt: GridPoint) -> bool:
    return 0 <= pt[0] - cell[0] <= 1 and 0 <= pt[1] - cell[1] <= 1


def _check_splice(occupied, cell: Cell, u: GridPoint) -> None:
    """The splice checks, each O(1): the cell is free, u is one of its
    corners, and an occupied edge neighbour of the cell has u as a corner."""
    if cell in occupied:
        raise BadSplice(f"cell {cell} is already occupied")
    if not _is_corner(cell, u):
        raise BadSplice(f"hinge at {u} is not a corner of cell {cell}")
    x, y = cell
    if not any(
        (x + dx, y + dy) in occupied and _is_corner((x + dx, y + dy), u)
        for dx, dy in NEIGHBOR_STEPS
    ):
        raise BadSplice(f"cell {cell} is not attached at {u}")


def _halves(cell: Cell, u: GridPoint) -> tuple[PlacedTriangle, PlacedTriangle]:
    """The pieces X (base u* -> u) and Y (base u -> u*) spliced in at u,
    where u* is the corner of the cell diagonally opposite u.  Each
    piece's right angle sits at the cell's other corner that makes its
    triple counterclockwise."""
    u_star = (2 * cell.x + 1 - u[0], 2 * cell.y + 1 - u[1])
    x_corner, y_corner = (u[0], u_star[1]), (u_star[0], u[1])
    if _orient(x_corner, u_star, u) < 0:
        x_corner, y_corner = y_corner, x_corner
    return PlacedTriangle(x_corner, u_star, u), PlacedTriangle(y_corner, u, u_star)


class FoldResult(NamedTuple):
    figure: HingedFigure
    config: Configuration
    cell_map: dict  # Cell -> (piece index, piece index), cycle order
    placed: tuple[PlacedTriangle, ...] = ()


def fold_chain(p: Polyomino) -> FoldResult:
    """Deterministic fold of the canonical 2n-cycle onto the polyomino.

    Cells are visited in dual-spanning-tree preorder.  Each is spliced in
    at the lexicographically smaller corner u of its attachment edge that
    holds a hinge, after the first triangle whose hinge was placed at u.
    Any hinge at u would do: the splice turns it into hinges at u, u* and
    u, so the hinge points are the same whichever is chosen.

    Triangles are numbered in creation order; next_node links the cycle,
    so a splice is two assignments, and first_at keeps the first triangle
    whose hinge landed at each point (a hinge never moves): O(n) in all.
    The cycle starts as the root cell's two halves, spliced at its corner
    (x, y + 1), with hinges at (x + 1, y) and (x, y + 1).
    """
    tree = dual_spanning_tree(p)
    root = tree.root
    triangles = list(_halves(root, (root.x, root.y + 1)))
    cells = [root, root]
    next_node = [1, -1]  # node -> next node in the cycle, -1 at the end
    first_at = {t.base_u: node for node, t in enumerate(triangles)}  # point -> first node there
    occupied = {root}
    for cell, _, edge in tree.entries:
        for endpoint in edge:  # edge endpoints arrive lexicographically sorted
            node = first_at.get(endpoint)
            if node is not None:
                break
        else:
            raise BadSplice(f"no hinge at either endpoint of edge {edge}")
        _check_splice(occupied, cell, endpoint)
        occupied.add(cell)
        for piece in _halves(cell, endpoint):
            next_node.append(next_node[node])  # the new node, len(triangles), goes after node
            next_node[node] = len(triangles)
            node = len(triangles)
            triangles.append(piece)
            cells.append(cell)
            first_at.setdefault(piece.base_u, node)

    placed = []
    cell_map: dict[Cell, tuple[int, int]] = {}
    node = 0
    while node != -1:
        cell = cells[node]
        first = cell_map.get(cell)
        cell_map[cell] = (len(placed), len(placed)) if first is None else (first[0], len(placed))
        placed.append(triangles[node])
        node = next_node[node]
    placements = tuple(t.placement() for t in placed)
    figure = canonical_chain_figure(p.cell_count)
    config = Configuration(placements, "exact")
    return FoldResult(figure, config, cell_map, tuple(placed))


class HingedDissection(NamedTuple):
    """One figure with verified configurations folding to two targets."""

    figure: HingedFigure
    config_a: Configuration
    config_b: Configuration
    target_a: Polyomino
    target_b: Polyomino


def dissect_pair(a: Polyomino, b: Polyomino) -> HingedDissection:
    """Hinged dissection between equal-area polyominoes via the shared chain."""
    if a.cell_count != b.cell_count:
        raise AreaMismatch(f"{a.cell_count} cells vs {b.cell_count} cells")
    fold_a = fold_chain(a)
    fold_b = fold_chain(b)
    return HingedDissection(fold_a.figure, fold_a.config, fold_b.config, a, b)


def load_sample_shape(name: str) -> Polyomino:
    """64-cell glyph polyomino from the shipped corpus, named by the stem
    of its assets/glyphs/*.txt file; any other name is an UnknownShape."""
    from importlib import resources  # loaded on first use, not with the package

    glyphs = resources.files("chainfold") / "assets" / "glyphs"
    file = f"{name}.txt"
    if file not in {entry.name for entry in glyphs.iterdir()}:
        raise UnknownShape(f"no shipped glyph named {name!r}")
    return parse_grid((glyphs / file).read_text(encoding="utf-8"))
