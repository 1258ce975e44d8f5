import copy
import pickle
import random
from fractions import Fraction

import pytest

from chainfold.exact_geom import polygon_area
from chainfold.polyomino import (
    BadCharacter,
    BadSize,
    NEIGHBOR_STEPS,
    Cell,
    Disconnected,
    EmptyShape,
    Polyomino,
    PolyominoError,
    cells_from_json,
    cells_to_json,
    dual_spanning_tree,
    parse_grid,
    random_polyomino,
    to_grid,
    _at_origin,
)
from conftest import PENTOMINO_GRIDS, TETROMINO_GRIDS, CornerContact, HolePresent
from conftest import boundary_polygon


class TestParseGrid:
    def test_square_tetromino(self):
        p = parse_grid("##\n##")
        assert p.cell_count == 4
        assert p.cells == frozenset({Cell(0, 0), Cell(1, 0), Cell(0, 1), Cell(1, 1)})

    def test_l_tromino_orientation(self):
        # first text row is the top row
        p = parse_grid("#.\n##")
        assert p.cells == frozenset({Cell(0, 1), Cell(0, 0), Cell(1, 0)})

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            parse_grid("#.#")

    def test_empty(self):
        with pytest.raises(EmptyShape):
            parse_grid("...\n...")

    def test_bad_character(self):
        with pytest.raises(BadCharacter):
            parse_grid("#x#")

    def test_blank_rows_above_and_below_are_dropped(self):
        # rows of whitespace alone would otherwise be rows of bad characters
        assert parse_grid(" \n\n#.\n##\n\t\n  \n") == parse_grid("#.\n##")

    def test_translated_to_origin(self):
        p = parse_grid("...\n..#\n..#")
        assert min(c.x for c in p.cells) == 0
        assert min(c.y for c in p.cells) == 0

    def test_grid_round_trip(self):
        for grid in list(TETROMINO_GRIDS.values()) + list(PENTOMINO_GRIDS.values()):
            assert to_grid(parse_grid(grid)) == grid

    def test_cells_json_round_trip(self):
        p = parse_grid("##\n#.")
        assert cells_from_json(cells_to_json(p)) == p


class TestBoundaryPolygon:
    def test_monomino(self):
        outline = boundary_polygon(parse_grid("#"))
        assert polygon_area(outline) == 1
        assert len(outline.vertices) == 4

    def test_square_tetromino(self):
        outline = boundary_polygon(parse_grid("##\n##"))
        assert polygon_area(outline) == 4
        assert len(outline.vertices) == 4  # collinear mid-edge points removed

    def test_ring_with_hole(self):
        ring = parse_grid("###\n#.#\n###")
        with pytest.raises(HolePresent):
            boundary_polygon(ring)

    def test_cells_meeting_at_a_corner(self):
        # the ring of 8 minus one corner: cells (1, 2) and (2, 1) meet only
        # at the vertex (2, 2), and the middle cell is pinched off
        shape = parse_grid("##.\n#.#\n###")
        with pytest.raises(CornerContact, match=r"corner \(2, 2\)"):
            boundary_polygon(shape)
        with pytest.raises(HolePresent):  # callers that skip holes skip it too
            boundary_polygon(shape)

    def test_random_64_cell_shape_with_corner_contacts(self):
        # random_polyomino(64, 1000), translated to the origin: some of its
        # cells meet only at a corner
        shape = parse_grid(
            "...#......\n..##......\n...##.....\n..###.....\n..#####...\n"
            "..###.###.\n..#.#.###.\n.######...\n.#####.###\n.#.#####..\n"
            "####.##...\n#####.#...\n..####....\n...###....\n....#....."
        )
        assert shape == Polyomino(_at_origin(random_polyomino(64, 1000)))
        with pytest.raises(CornerContact):
            boundary_polygon(shape)

    def test_area_equals_cell_count_per_grid(self):
        for grid in list(TETROMINO_GRIDS.values()) + list(PENTOMINO_GRIDS.values()):
            p = parse_grid(grid)
            assert polygon_area(boundary_polygon(p)) == p.cell_count

    def test_area_equals_cell_count_random(self):
        for seed in range(40):
            p = random_polyomino(11, seed)
            try:
                outline = boundary_polygon(p)
            except HolePresent:
                continue
            assert polygon_area(outline) == Fraction(11)


class TestDualSpanningTree:
    def test_monomino(self):
        tree = dual_spanning_tree(parse_grid("#"))
        assert tree.root == Cell(0, 0)
        assert tree.entries == ()

    def test_horizontal_domino(self):
        tree = dual_spanning_tree(parse_grid("##"))
        assert tree.root == Cell(0, 0)
        assert len(tree.entries) == 1
        entry = tree.entries[0]
        assert entry.cell == Cell(1, 0)
        assert entry.parent == Cell(0, 0)
        assert entry.edge == ((1, 0), (1, 1))

    def test_square_tetromino_edge_count(self):
        tree = dual_spanning_tree(parse_grid("##\n##"))
        assert len(tree.entries) == 3  # n - 1 tree edges

    def test_entry_count_and_edges(self):
        for seed in range(25):
            p = random_polyomino(10, seed)
            tree = dual_spanning_tree(p)
            assert len(tree.entries) == p.cell_count - 1
            seen = {tree.root}
            for entry in tree.entries:
                # preorder: the parent is already visited, the cell is new
                assert entry.parent in seen
                assert entry.cell not in seen
                seen.add(entry.cell)
                dx = abs(entry.cell.x - entry.parent.x)
                dy = abs(entry.cell.y - entry.parent.y)
                assert dx + dy == 1
                (x1, y1), (x2, y2) = entry.edge
                # the shared edge is the unit edge between the two cells
                assert abs(x2 - x1) + abs(y2 - y1) == 1
                both = {entry.cell, entry.parent}
                touching = {
                    c
                    for c in both
                    if {(x1, y1), (x2, y2)}
                    <= {(c.x, c.y), (c.x + 1, c.y), (c.x + 1, c.y + 1), (c.x, c.y + 1)}
                }
                assert touching == both


class TestRandomPolyomino:
    def test_monomino(self):
        assert random_polyomino(1, 123).cells == frozenset({Cell(0, 0)})

    def test_eight_cells_valid(self):
        p = random_polyomino(8, 42)
        assert p.cell_count == 8

    def test_determinism(self):
        assert random_polyomino(13, 9) == random_polyomino(13, 9)

    def test_bad_size(self):
        with pytest.raises(BadSize):
            random_polyomino(0, 1)

    def test_validity_sweep(self):
        # Polyomino constructor enforces connectivity and non-emptiness
        for n in (1, 2, 5, 17, 33, 64):
            for seed in range(100):
                assert random_polyomino(n, seed).cell_count == n


class TestPolyomino:
    def test_holes_accepted_by_model(self):
        ring = parse_grid("###\n#.#\n###")
        assert ring.cell_count == 8

    def test_disconnected_cells_rejected(self):
        with pytest.raises(Disconnected):
            Polyomino([Cell(0, 0), Cell(2, 2)])

    def test_disconnected_text_is_a_property_of_the_shape(self):
        # counted from the least cell, whatever set order a shift gives
        for dx in range(-40, 40):
            cells = [(x + dx, y) for x, y in [(0, 0), (1, 0), (2, 0), (5, 5)]]
            for order in (cells, cells[::-1]):
                with pytest.raises(Disconnected, match=r"^1 cell unreachable$"):
                    Polyomino(order)
        with pytest.raises(Disconnected, match=r"^2 cells unreachable$"):
            Polyomino([(0, 0), (2, 0), (3, 0)])

    def test_empty_rejected(self):
        with pytest.raises(EmptyShape):
            Polyomino([])

    @pytest.mark.parametrize(
        "cells",
        [
            [(0.5, 0), (1, 0)],
            [(Fraction(3, 2), 0), (0, 0)],
            [(1.0, 0), (0, 0)],
            [(True, 0), (0, 0)],
            [("1", "0"), (0, 0)],
            [("1", 0), (0, 0)],
        ],
    )
    def test_non_int_coordinates_rejected(self, cells):
        with pytest.raises(PolyominoError, match="expected an integer"):
            Polyomino(cells)

    @pytest.mark.parametrize("cells", [[5], [None], [(1, 2, 3)], [(0, 0), "ab"], [(0, 0), (1,)]])
    def test_cell_that_is_not_a_pair_rejected(self, cells):
        with pytest.raises(PolyominoError, match="bad cell .*: expected"):
            Polyomino(cells)

    def test_first_bad_cell_is_named(self):
        with pytest.raises(PolyominoError, match="got True"):
            Polyomino([(0, 0), (True, 0), (5,), (0.5, 0)])

    def test_equals_and_hashes_like_its_cell_set(self):
        p = parse_grid("##\n#.")
        cells = frozenset({Cell(0, 0), Cell(0, 1), Cell(1, 1)})
        assert isinstance(p, frozenset) and p.cells is p and p.cell_count == len(p) == 3
        assert p == cells and hash(p) == hash(cells)
        assert p == {(0, 0), (0, 1), (1, 1)}
        assert {cells: "set"}[p] == "set"

    @pytest.mark.parametrize("protocol", [None, 0, 1, 2, 3, 4, 5], ids=lambda p: f"protocol-{p}")
    def test_an_unchecked_disconnected_set_is_checked_when_copied(self, protocol):
        apart = frozenset.__new__(Polyomino, [Cell(0, 0), Cell(2, 0)])
        with pytest.raises(Disconnected, match="^1 cell unreachable$"):
            if protocol is None:
                copy.deepcopy(apart)
            else:
                pickle.loads(pickle.dumps(apart, protocol))

    def test_tuples_lists_and_cells_build_alike(self):
        p = Polyomino([Cell(0, 0), (1, 0), [1, 1]])
        assert p.cells == {(0, 0), (1, 0), (1, 1)}
        assert all(type(c) is Cell for c in p.cells)

    def test_parse_grid_checks_connectivity_once(self, monkeypatch):
        from chainfold import polyomino

        calls = []
        check = polyomino._check_connected
        monkeypatch.setattr(polyomino, "_check_connected", lambda cells: calls.append(1) or check(cells))
        assert parse_grid("..\n.#\n##\n..").cells == {(0, 0), (1, 0), (1, 1)}
        assert len(calls) == 1


def _sorted_every_step(n: int, seed: int) -> Polyomino:
    """random_polyomino's growth as first written: the frontier is a set,
    sorted at every step to draw its k-th cell."""
    rng = random.Random(seed)
    cells = {Cell(0, 0)}
    frontier = {Cell(dx, dy) for dx, dy in NEIGHBOR_STEPS}
    while len(cells) < n:
        pick = sorted(frontier)[rng.randrange(len(frontier))]
        cells.add(pick)
        frontier.discard(pick)
        for dx, dy in NEIGHBOR_STEPS:
            nb = Cell(pick.x + dx, pick.y + dy)
            if nb not in cells:
                frontier.add(nb)
    return Polyomino(_at_origin(cells))


@pytest.mark.parametrize("n, seed", [(1, 0), (2, 5), (9, 1), (64, 1000), (300, 7), (1024, 0), (2000, 42)])
def test_sorted_frontier_grows_the_same_shapes(n, seed):
    assert random_polyomino(n, seed) == _sorted_every_step(n, seed)
