"""Polyominoes: grid parsing, validation, dual spanning tree, random growth."""

from __future__ import annotations

import bisect
import random
from itertools import chain, compress, count, repeat
from typing import Iterable, NamedTuple


class PolyominoError(ValueError):
    """Base class for polyomino model errors."""


class EmptyShape(PolyominoError):
    pass


class Disconnected(PolyominoError):
    pass


class BadCharacter(PolyominoError):
    pass


class BadSize(PolyominoError):
    pass


class Cell(NamedTuple):
    """Unit grid cell covering [x, x+1] x [y, y+1]."""

    x: int
    y: int


# fixed deterministic neighbor order: East, North, West, South
NEIGHBOR_STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1))


class Polyomino(frozenset):
    """Non-empty, edge-connected set of unit cells: the frozenset of its
    Cells, equal to that set and hashed like it.

    Cells enclosing empty space are legal.  Each cell is an (x, y) list or tuple of
    ints, not bools, floats or strings, by int_from_json's rule.  A copy
    or an unpickled polyomino is built through the checks.
    """

    __slots__ = ()

    def __new__(cls, cells: Iterable[Cell]):
        cells = list(cells)
        if not is_table(cells, 2):
            for c in cells:  # name the first bad cell
                if not isinstance(c, (list, tuple)) or len(c) != 2:
                    raise BadCharacter(f"bad cell {c!r}: expected [x, y]")
                Cell(*map(int_from_json, c))
        cell_set = super().__new__(cls, map(tuple.__new__, repeat(Cell), cells))
        if not cell_set:
            raise EmptyShape("polyomino has no cells")
        _check_connected(cell_set)
        return cell_set

    @property
    def cells(self) -> "Polyomino":
        """The polyomino itself, the frozenset of its cells."""
        return self

    @property
    def cell_count(self) -> int:
        return len(self)

    def __repr__(self):
        return f"Polyomino({sorted(self)})"


def _at_origin(cells) -> list:
    """The (x, y) cells shifted so that their least x and least y are 0."""
    min_x = min(x for x, _ in cells)
    min_y = min(y for _, y in cells)
    return [(x - min_x, y - min_y) for x, y in cells]


def _check_connected(cells: frozenset[Cell]):
    """Raise Disconnected unless every cell is reachable from the least
    one, naming how many are not, so the text depends on the shape only."""
    start = min(cells)
    unseen = set(cells)
    unseen.remove(start)
    stack = [start]
    while stack:
        cx, cy = stack.pop()
        for nb in ((cx + 1, cy), (cx, cy + 1), (cx - 1, cy), (cx, cy - 1)):
            if nb in unseen:
                unseen.remove(nb)
                stack.append(nb)
    if unseen:
        n = len(unseen)
        raise Disconnected(f"{n} cell{'' if n == 1 else 's'} unreachable")


def parse_grid(text: str) -> Polyomino:
    """Parse rows of '#' and '.'; the first text row is the top row."""
    rows = [row for row in text.splitlines()]
    while rows and not rows[-1].strip():
        rows.pop()
    while rows and not rows[0].strip():
        rows.pop(0)
    cells = []
    for r, row in enumerate(rows):
        # what strip leaves starts at the row's first character other than '#' and '.'
        if bad := row.strip("#."):
            raise BadCharacter(f"unexpected character {bad[0]!r} in row {r}")
        # (column, -row) of each '#'
        cells += zip(compress(count(), map("#".__eq__, row)), repeat(-r))
    if not cells:
        raise EmptyShape("grid contains no '#' cells")
    return Polyomino(_at_origin(cells))


def to_grid(p: Polyomino) -> str:
    """Inverse of parse_grid: ASCII rows, top row first."""
    min_x = min(c.x for c in p)
    max_x = max(c.x for c in p)
    min_y = min(c.y for c in p)
    max_y = max(c.y for c in p)
    lines = []
    for y in range(max_y, min_y - 1, -1):
        lines.append(
            "".join("#" if Cell(x, y) in p else "." for x in range(min_x, max_x + 1))
        )
    return "\n".join(lines)


def cells_to_json(p: Polyomino) -> dict:
    return {"cells": [[c.x, c.y] for c in sorted(p)]}


def int_from_json(value) -> int:
    """An int, such as a JSON integer, as it is; a bool, float, string or
    any other value is an error."""
    if type(value) is not int:
        raise PolyominoError(f"expected an integer, got {value!r}")
    return value


def is_table(rows, width: int, types: tuple = (int,)) -> bool:
    """Whether rows is a list of lists or tuples of width values each, of
    exactly these types (a bool is no int): one C-level pass apiece over
    the rows' types, their lengths and their values' types."""
    return (
        type(rows) is list
        and all(issubclass(t, (list, tuple)) for t in set(map(type, rows)))
        and set(map(len, rows)) <= {width}
        and set(map(type, chain.from_iterable(rows))) <= set(types)
    )


def cells_from_json(obj) -> Polyomino:
    """Read {"cells": [[x, y], ...]}; each coordinate must be an integer."""
    if not isinstance(obj, dict) or not isinstance(obj.get("cells"), list):
        raise BadCharacter("expected an object with a 'cells' array")
    return Polyomino(obj["cells"])


class TreeEntry(NamedTuple):
    cell: Cell
    parent: Cell
    edge: tuple[tuple[int, int], tuple[int, int]]  # shared unit edge, endpoints sorted


class DualSpanningTree(NamedTuple):
    """Depth-first spanning tree of the cell adjacency graph, in preorder."""

    root: Cell
    entries: tuple[TreeEntry, ...]


def shared_edge(a: Cell, b: Cell) -> tuple[tuple[int, int], tuple[int, int]]:
    """Endpoints of the unit edge between two edge-adjacent cells, sorted."""
    dx, dy = b.x - a.x, b.y - a.y
    if (dx, dy) == (1, 0):
        pts = ((b.x, b.y), (b.x, b.y + 1))
    elif (dx, dy) == (-1, 0):
        pts = ((a.x, a.y), (a.x, a.y + 1))
    elif (dx, dy) == (0, 1):
        pts = ((b.x, b.y), (b.x + 1, b.y))
    elif (dx, dy) == (0, -1):
        pts = ((a.x, a.y), (a.x + 1, a.y))
    else:
        raise PolyominoError(f"cells {a} and {b} are not edge-adjacent")
    return tuple(sorted(pts))


def dual_spanning_tree(p: Polyomino) -> DualSpanningTree:
    """Deterministic DFS tree: lexicographically smallest root, E/N/W/S visits."""
    root = min(p)
    seen = {root}
    entries = []
    # iterative depth-first search with recursive semantics: a child's whole
    # subtree is explored before the parent's next neighbor is considered
    stack = [(root, iter(NEIGHBOR_STEPS))]
    while stack:
        cell, steps = stack[-1]
        for dx, dy in steps:
            nb = Cell(cell.x + dx, cell.y + dy)
            if nb in p and nb not in seen:
                seen.add(nb)
                entries.append(TreeEntry(nb, cell, shared_edge(nb, cell)))
                stack.append((nb, iter(NEIGHBOR_STEPS)))
                break
        else:
            stack.pop()
    return DualSpanningTree(root, tuple(entries))


def random_polyomino(n: int, seed: int) -> Polyomino:
    """Seeded random growth: repeatedly attach a uniformly chosen boundary cell.

    The pick is the k-th frontier cell in sorted order, k drawn uniformly;
    the frontier is kept sorted, so a step costs a bisection and a list
    insert or delete instead of a sort.
    """
    if n < 1:
        raise BadSize(f"cell count must be >= 1, got {n}")
    rng = random.Random(seed)
    cells = {Cell(0, 0)}
    frontier = sorted(Cell(dx, dy) for dx, dy in NEIGHBOR_STEPS)
    while len(cells) < n:
        pick = frontier.pop(rng.randrange(len(frontier)))
        cells.add(pick)
        for dx, dy in NEIGHBOR_STEPS:
            nb = Cell(pick.x + dx, pick.y + dy)
            if nb not in cells:
                at = bisect.bisect_left(frontier, nb)
                if at == len(frontier) or frontier[at] != nb:
                    frontier.insert(at, nb)
    return Polyomino(_at_origin(cells))
