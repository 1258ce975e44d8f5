import random
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainfold.chain import (
    AreaMismatch,
    BadSplice,
    PlacedTriangle,
    UnknownShape,
    _check_splice,
    _halves,
    _InsertionOrder,
    dissect_pair,
    fold_chain,
    load_sample_shape,
)
from chainfold.exact_geom import apply_motion, point
from chainfold.figures import (
    HdjFile,
    NamedConfiguration,
    canonical_chain_figure,
    load_hdj,
    save_hdj,
    verify_configuration,
)
from chainfold.polyomino import Cell, dual_spanning_tree, parse_grid, random_polyomino
from conftest import TETROMINO_GRIDS, HolePresent, boundary_polygon, canonical_cycle
from conftest import cell_split_triangles, enumerate_half_square_cycles, glyph_names


class PartialFold(NamedTuple):
    """Cyclic sequence of placed triangles built so far.  Hinge i sits
    between triangles i and i+1 (mod length) at triangles[i].base_u."""

    triangles: tuple[PlacedTriangle, ...]
    occupied: frozenset[Cell]


def base_fold(root: Cell) -> PartialFold:
    """The root cell's two halves across its anti-diagonal, with hinges
    at (x+1, y) and (x, y+1): the cycle fold_chain starts from."""
    return PartialFold(cell_split_triangles(root, 0), frozenset([root]))


def splice_step(state: PartialFold, hinge_index: int, cell: Cell) -> PartialFold:
    """Insert the two halves of a new cell at an existing hinge, as one
    step of fold_chain does on its linked cycle: the reference the fold
    is held to.  The hinge at u becomes two hinges at u with the halves
    between them; the cycle grows by two and no hinge point is lost."""
    if not (0 <= hinge_index < len(state.triangles)):
        raise BadSplice(f"hinge index {hinge_index} out of range")
    u = state.triangles[hinge_index].base_u
    _check_splice(state.occupied, cell, u)
    tris = list(state.triangles)
    tris[hinge_index + 1 : hinge_index + 1] = _halves(cell, u)
    return PartialFold(tuple(tris), state.occupied | {cell})


def hinge_occurrences(state, pt) -> list[int]:
    """Cycle indices of the hinges at pt, in cycle order."""
    return [i for i, t in enumerate(state.triangles) if t.base_u == pt]


def pick_hinge(state, edge) -> int:
    """Lowest cycle index at the smallest attachment-edge endpoint with a hinge."""
    for endpoint in edge:  # edge endpoints arrive lexicographically sorted
        occurrences = hinge_occurrences(state, endpoint)
        if occurrences:
            return occurrences[0]
    raise BadSplice(f"no hinge at either endpoint of edge {edge}")


def reference_fold(p, ties=None):
    """fold_chain's triangles by base_fold and splice_step, scanning the
    whole cycle for every cell.  ties, if given, receives one entry per
    splice whose point holds two or more hinges: (their count, whether
    the lowest cycle index is not the one created first)."""
    tree = dual_spanning_tree(p)
    state = base_fold(tree.root)
    born = {t: 0 for t in state.triangles}
    for step, entry in enumerate(tree.entries, 1):
        hinge = pick_hinge(state, entry.edge)
        if ties is not None:
            at = hinge_occurrences(state, state.triangles[hinge].base_u)
            if len(at) > 1:
                first = min(at, key=lambda i: born[state.triangles[i]])
                ties.append((len(at), first != hinge))
        state = splice_step(state, hinge, entry.cell)
        if ties is not None:
            for t in state.triangles:
                born.setdefault(t, step)
    return state.triangles


class TestFoldBasics:
    def test_monomino_exact_pieces(self):
        fr = fold_chain(parse_grid("#"))
        assert fr.placed == (
            PlacedTriangle((0, 0), (1, 0), (0, 1)),
            PlacedTriangle((1, 1), (0, 1), (1, 0)),
        )
        assert [t.base_u for t in fr.placed] == [(1, 0), (0, 1)]

    def test_domino_exact_cycle(self):
        # SW half of cell 0, the two halves of cell 1 split along the
        # (1,0)-(2,1) diagonal, then the NE half of cell 0
        fr = fold_chain(parse_grid("##"))
        assert fr.placed == (
            PlacedTriangle((0, 0), (1, 0), (0, 1)),
            PlacedTriangle((2, 0), (2, 1), (1, 0)),
            PlacedTriangle((1, 1), (1, 0), (2, 1)),
            PlacedTriangle((1, 1), (0, 1), (1, 0)),
        )
        assert [t.base_u for t in fr.placed] == [(1, 0), (2, 1), (1, 0), (0, 1)]

    def test_every_tetromino_has_8_verified_pieces(self):
        for grid in TETROMINO_GRIDS.values():
            p = parse_grid(grid)
            fr = fold_chain(p)
            assert len(fr.placed) == 8
            assert verify_configuration(fr.figure, fr.config, p).accepted

    def test_figure_is_canonical_chain(self):
        p = parse_grid("##\n##")
        fr = fold_chain(p)
        assert fr.figure == canonical_chain_figure(4)

    def test_placements_realize_base_vertices(self):
        # polarity: local vertex 1 lands on base_u, vertex 2 on base_v
        p = parse_grid(".#\n##")
        fr = fold_chain(p)
        for piece_idx, tri in enumerate(fr.placed):
            m = fr.config.placements[piece_idx]
            assert apply_motion(m, point(0, 0)) == tuple(
                map(lambda v: v * 1, tri.right_angle_corner)
            )
            assert apply_motion(m, point(1, 0)) == tri.base_u
            assert apply_motion(m, point(0, 1)) == tri.base_v

    def test_placements_hold_only_ints(self, tmp_path):
        # as folded, and as read back from the fold's HDJ document
        p = random_polyomino(40, 2)
        fr = fold_chain(p)
        path = tmp_path / "fold.hdj"
        save_hdj(path, HdjFile(fr.figure, [NamedConfiguration("fold", fr.config)]))
        for config in (fr.config, load_hdj(path).configurations[0].configuration):
            values = [
                v for m in config.placements
                for v in (m.rot_cos, m.rot_sin, m.translate.x, m.translate.y)
            ]
            assert {type(v) for v in values} == {int}

    def test_quarter_turn_rotations_only(self):
        p = random_polyomino(9, 5)
        fr = fold_chain(p)
        allowed = {(1, 0), (0, 1), (-1, 0), (0, -1)}
        for m in fr.config.placements:
            assert (m.rot_cos, m.rot_sin) in allowed

    def test_cell_map(self):
        p = parse_grid("###")
        fr = fold_chain(p)
        assert set(fr.cell_map) == set(p.cells)
        seen = set()
        for cell, (i, j) in fr.cell_map.items():
            assert i != j
            assert Cell(*map(min, zip(*fr.placed[i]))) == cell
            assert Cell(*map(min, zip(*fr.placed[j]))) == cell
            seen |= {i, j}
        assert seen == set(range(6))

    def test_determinism(self):
        p = random_polyomino(12, 3)
        a = fold_chain(p)
        b = fold_chain(p)
        assert a.placed == b.placed
        assert a.config == b.config
        assert a.cell_map == b.cell_map


class TestHingeAvailability:
    def test_invariant_after_every_splice(self):
        # every occupied cell keeps hinges at two diagonally opposite
        # corners, and hinge points never disappear
        p = random_polyomino(14, 8)
        tree = dual_spanning_tree(p)
        state = base_fold(tree.root)
        points_ever = set(t.base_u for t in state.triangles)
        for entry in tree.entries:
            state = splice_step(state, pick_hinge(state, entry.edge), entry.cell)
            current = [t.base_u for t in state.triangles]
            for pt in points_ever:
                assert pt in current
            points_ever |= set(current)
            for cell in state.occupied:
                corners_with_hinges = {
                    pt
                    for pt in current
                    if pt
                    in {
                        (cell.x, cell.y),
                        (cell.x + 1, cell.y),
                        (cell.x + 1, cell.y + 1),
                        (cell.x, cell.y + 1),
                    }
                }
                diag_pairs = [
                    {(cell.x, cell.y), (cell.x + 1, cell.y + 1)},
                    {(cell.x + 1, cell.y), (cell.x, cell.y + 1)},
                ]
                assert any(pair <= corners_with_hinges for pair in diag_pairs)


class TestSpliceStep:
    def test_domino_step_from_monomino_base(self):
        state = base_fold(Cell(0, 0))
        # hinge 0 sits at (1,0); attaching the east cell there gives the
        # 4-piece domino cycle
        out = splice_step(state, 0, Cell(1, 0))
        assert out.triangles == fold_chain(parse_grid("##")).placed

    def test_lowest_cycle_index_tie_break(self):
        # cells (0,1),(1,1),(1,0): after the first splice the point (1,1)
        # hosts hinge occurrences at cycle indices 0 and 2; attaching
        # (1,0) must use index 0, inserting its SE half at position 1
        p = parse_grid("##\n.#")
        fr = fold_chain(p)
        assert fr.placed[1] == PlacedTriangle((1, 0), (2, 0), (1, 1))
        # had the higher occurrence been used, position 1 would still
        # hold the east cell's half (2,1),(2,2),(1,1)
        assert fr.placed[3] == PlacedTriangle((2, 1), (2, 2), (1, 1))

    def test_splice_into_occupied_cell(self):
        state = base_fold(Cell(0, 0))
        with pytest.raises(BadSplice):
            splice_step(state, 0, Cell(0, 0))

    def test_splice_not_adjacent(self):
        state = base_fold(Cell(0, 0))
        with pytest.raises(BadSplice):
            splice_step(state, 0, Cell(5, 5))

    def test_splice_hinge_not_on_cell(self):
        state = base_fold(Cell(0, 0))
        # hinge 1 sits at (0,1), not a corner of the east neighbor
        with pytest.raises(BadSplice):
            splice_step(state, 1, Cell(1, 0))

    def test_cycle_grows_by_two(self):
        state = base_fold(Cell(0, 0))
        out = splice_step(state, 0, Cell(1, 0))
        assert len(out.triangles) == len(state.triangles) + 2


class TestLinearFold:
    """fold_chain against reference_fold, the splice_step loop it replaced."""

    @given(st.integers(1, 512), st.integers(0, 2**32 - 1))
    def test_matches_reference_on_random_shapes(self, n, seed):
        p = random_polyomino(n, seed)
        assert fold_chain(p).placed == reference_fold(p)

    def test_matches_reference_at_4096_cells(self):
        p = random_polyomino(4096, 11)
        assert fold_chain(p).placed == reference_fold(p)

    # about 600 cells each, as reference_fold is quadratic
    @pytest.mark.parametrize("grid", [
        # a serpentine, whose insertion tree is about as deep as it has cells
        "\n".join(("#" * 29, "#".rjust(29, "."), "#" * 29, "#".ljust(29, "."))[k % 4]
                  for k in range(39)),
        # a 2-wide strip: the walk climbs one column and descends the other
        "\n".join(["##"] * 300),
        # a comb: a spine whose every other cell carries a tooth
        "\n".join(["#." * 40] * 12 + ["#" * 80]),
    ], ids=["serpentine", "strip", "comb"])
    def test_matches_reference_on_regular_shapes(self, grid):
        p = parse_grid(grid)
        assert fold_chain(p).placed == reference_fold(p)

    def test_lowest_cycle_index_among_tied_hinges(self):
        # one splice point holds two hinges whose lowest cycle index is
        # the later-created one, so creation order would pick wrong
        p = parse_grid(".##\n###\n##.")
        ties = []
        expected = reference_fold(p, ties)
        assert any(count >= 2 and later for count, later in ties)
        assert fold_chain(p).placed == expected

    def test_ties_of_three_or_more_hinges(self):
        ties = []
        for seed in range(4):
            p = random_polyomino(200, seed)
            assert fold_chain(p).placed == reference_fold(p, ties)
        assert any(count >= 3 for count, _ in ties)

    def test_cell_map_pairs_each_cells_halves(self):
        fr = fold_chain(random_polyomino(300, 2))
        expected = {}
        for i, t in enumerate(fr.placed):
            cell = Cell(*map(min, zip(*t)))  # the cell the triangle is half of
            expected[cell] = (expected[cell][0], i) if cell in expected else (i, i)
        assert fr.cell_map == expected


class TestInsertionOrder:
    @pytest.mark.parametrize("seed", range(20))
    def test_walk_and_first_follow_list_order(self, seed):
        rng = random.Random(seed)
        order, expected = _InsertionOrder(), [0]

        def insert_after(node):
            new = order.insert_after(node)
            expected.insert(expected.index(node) + 1, new)
            return new

        tip = 0
        for _ in range(6):
            # a run continues after the node the last run made last, so
            # the depth reaches the hundreds and the jumps skip
            for _ in range(rng.randrange(50, 80)):
                tip = insert_after(tip)
            for _ in range(80):
                # half the insertions go after the first three nodes, for
                # many siblings whose common ancestor is near the root
                if rng.random() < 0.5:
                    insert_after(expected[rng.randrange(3)])
                else:
                    insert_after(rng.choice(expected))
        walk, node = [], 0
        while node != -1:
            walk.append(node)
            node = order.next[node]
        assert walk == expected
        assert max(order.depth) >= 300
        assert any(j != p for j, p in zip(order.jump[1:], order.parent[1:]))
        position = {node: i for i, node in enumerate(expected)}
        for _ in range(300):
            nodes = rng.sample(expected, rng.randint(2, 4))
            assert order.first(nodes) == min(nodes, key=position.__getitem__)


class TestOracle:
    def test_monomino_fold_in_enumerated_set(self):
        p = parse_grid("#")
        cycles = enumerate_half_square_cycles(p)
        assert len(cycles) == 2  # one per split diagonal
        fold = canonical_cycle(list(fold_chain(p).placed))
        assert fold in cycles

    def test_domino_folds_in_enumerated_sets(self):
        for grid in ("##", "#\n#"):
            p = parse_grid(grid)
            cycles = enumerate_half_square_cycles(p)
            assert cycles
            fold = canonical_cycle(list(fold_chain(p).placed))
            assert fold in cycles


class TestDissectPair:
    def test_l_vs_t_tetromino(self):
        a = parse_grid(TETROMINO_GRIDS["L4"])
        b = parse_grid(TETROMINO_GRIDS["T4"])
        hd = dissect_pair(a, b)
        assert len(hd.figure.pieces) == 8
        assert verify_configuration(hd.figure, hd.config_a, a).accepted
        assert verify_configuration(hd.figure, hd.config_b, b).accepted

    def test_same_shape_gives_same_config(self):
        p = parse_grid("#")
        hd = dissect_pair(p, p)
        assert hd.config_a == hd.config_b

    def test_area_mismatch(self):
        with pytest.raises(AreaMismatch):
            dissect_pair(parse_grid("###"), parse_grid("####"))


class TestSampleShapes:
    def test_required_glyphs_present(self):
        names = glyph_names()
        assert {"I", "L", "O"} <= set(names)

    def test_glyphs_are_64_cells(self):
        for name in glyph_names():
            assert load_sample_shape(name).cell_count == 64

    def test_i_glyph_folds_to_128_pieces(self):
        fr = fold_chain(load_sample_shape("I"))
        assert len(fr.figure.pieces) == 128

    def test_o_glyph_has_hole_and_still_folds(self):
        o = load_sample_shape("O")
        with pytest.raises(HolePresent):
            boundary_polygon(o)
        fr = fold_chain(o)
        assert verify_configuration(fr.figure, fr.config, o).accepted

    def test_unknown_shape(self):
        # only the stem of a shipped assets/glyphs/*.txt file names a glyph
        for name in ("?", "../glyphs/I", "I.txt", "", "I\0"):
            with pytest.raises(UnknownShape):
                load_sample_shape(name)
