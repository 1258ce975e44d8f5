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

import functools
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


class _InsertionOrder:
    """A list grown only by inserting after a node, ordered by its
    insertion tree: a node's parent is the node it was inserted after.
    The list is the tree's preorder with later children first, since an
    insertion lands right after its parent, ahead of older siblings.

    Nodes are numbered 0, 1, ... in creation order; node 0 is the root
    and stays first.  Each node keeps a skew-binary jump pointer, after
    Myers, "An applicative random-access stack" (1983): the depth it
    reaches depends only on the node's depth, so two nodes at one depth
    climb together, and an ancestor at any depth is O(log n) steps away.
    """

    def __init__(self):
        self.next = [-1]  # node -> next node in the list, -1 at the end
        self.parent = [0]
        self.depth = [0]
        self.jump = [0]

    def insert_after(self, node: int) -> int:
        """Add a node right after node; return its number."""
        new = len(self.next)
        self.next.append(self.next[node])
        self.next[node] = new
        j = self.jump[node]
        skip = self.depth[node] - self.depth[j] == self.depth[j] - self.depth[self.jump[j]]
        self.parent.append(node)
        self.depth.append(self.depth[node] + 1)
        self.jump.append(self.jump[j] if skip else node)
        return new

    def first(self, nodes) -> int:
        """The node of nodes that comes earliest in the list."""
        return functools.reduce(self._earlier, nodes)

    def _earlier(self, a: int, b: int) -> int:
        x, y = a, b
        depth, parent, jump = self.depth, self.parent, self.jump
        while depth[x] > depth[y]:
            x = jump[x] if depth[jump[x]] >= depth[y] else parent[x]
        while depth[y] > depth[x]:
            y = jump[y] if depth[jump[y]] >= depth[x] else parent[y]
        if x == y:  # one is the other's ancestor, which comes first
            return a if depth[a] < depth[b] else b
        while parent[x] != parent[y]:
            if jump[x] != jump[y]:
                x, y = jump[x], jump[y]
            else:
                x, y = parent[x], parent[y]
        return a if x > y else b  # the younger child of their common ancestor


class FoldResult(NamedTuple):
    figure: HingedFigure
    config: Configuration
    cell_map: dict  # Cell -> (piece index, piece index), cycle order
    placed: tuple[PlacedTriangle, ...] = ()


def fold_chain(p: Polyomino) -> FoldResult:
    """Deterministic fold of the canonical 2n-cycle onto the polyomino.

    Cells are visited in dual-spanning-tree preorder.  For each new cell
    the splice hinge is chosen at the lexicographically smallest corner
    of the attachment edge carrying a hinge, lowest cycle index first.

    The cycle is a linked list of triangles, and each lattice point maps
    to the list nodes of its hinges.  Hinges tied at one point are
    ordered at their common ancestor in the list's insertion tree, in
    O(log n) steps, so a cell costs O(1) without a tie and O(log n) with
    one, and the fold O(n log n) at worst.  The cycle starts as the root
    cell's two halves across its anti-diagonal, spliced at its corner
    (x, y + 1), with hinges at (x + 1, y) and (x, y + 1).
    """
    tree = dual_spanning_tree(p)
    root = tree.root
    triangles = list(_halves(root, (root.x, root.y + 1)))
    cells = [root, root]
    order = _InsertionOrder()
    order.insert_after(0)  # node 1, the root's NE half
    hinges: dict[GridPoint, list[int]] = {}  # point -> nodes whose hinge is there
    for node, t in enumerate(triangles):
        hinges.setdefault(t.base_u, []).append(node)
    occupied = {root}
    for cell, _, edge in tree.entries:
        for endpoint in edge:  # edge endpoints arrive lexicographically sorted
            at = hinges.get(endpoint)
            if at:
                break
        else:
            raise BadSplice(f"no hinge at either endpoint of edge {edge}")
        node = order.first(at)
        _check_splice(occupied, cell, endpoint)
        occupied.add(cell)
        for piece in _halves(cell, endpoint):
            node = order.insert_after(node)
            triangles.append(piece)
            cells.append(cell)
            hinges.setdefault(piece.base_u, []).append(node)

    placed = []
    cell_map: dict[Cell, tuple[int, int]] = {}
    node = 0
    while node != -1:
        cell = cells[node]
        first = cell_map.get(cell)
        cell_map[cell] = (len(placed), len(placed)) if first is None else (first[0], len(placed))
        placed.append(triangles[node])
        node = order.next[node]
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
