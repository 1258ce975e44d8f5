import copy
import io
import itertools
import json
import math
import pickle
import random
from fractions import Fraction

import pytest
from chainfold.chain import dissect_pair, fold_chain
from chainfold.equidecompose import (
    chart_from_json,
    chart_to_json,
    overlay_charts,
    polygon_to_canonical_chart,
    verify_chart,
)
from chainfold.exact_geom import (
    InvalidPolygon,
    RigidMotion,
    SimplePolygon,
    point,
    point_from_json,
    polygon,
    rat,
)
from chainfold.figures import (
    Configuration,
    CountMismatch,
    FigureError,
    HdjError,
    HdjFile,
    Hinge,
    HingedFigure,
    NamedConfiguration,
    NamedTarget,
    VerifyReport,
    _value_text,
    canonical_chain_figure,
    configuration_from_json,
    configuration_to_json,
    figure_from_json,
    figure_to_json,
    hdj_from_json,
    hdj_to_json,
    load_hdj,
    read_json,
    save_hdj,
    verify_configuration,
    write_json,
)
from chainfold.polyomino import BadSize, parse_grid
from conftest import TETROMINO_GRIDS, failed_checks

UNIT_SQUARE = polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


class TestCanonicalChain:
    def test_n1(self):
        f = canonical_chain_figure(1)
        assert len(f.pieces) == 2
        assert len(f.hinges) == 2

    def test_n4(self):
        assert len(canonical_chain_figure(4).pieces) == 8

    def test_n64(self):
        assert len(canonical_chain_figure(64).pieces) == 128

    def test_bad_size(self):
        with pytest.raises(BadSize):
            canonical_chain_figure(0)

    def test_hinge_structure(self):
        # every piece hinges to its successor at vertex 1 and its
        # predecessor at vertex 2
        for n in (1, 2, 5):
            f = canonical_chain_figure(n)
            assert len(f.hinges) == 2 * n
            successor_at = {}
            predecessor_at = {}
            for h in f.hinges:
                successor_at[h.piece_a] = h.vertex_a
                predecessor_at[h.piece_b] = h.vertex_b
            assert all(successor_at[i] == 1 for i in range(2 * n))
            assert all(predecessor_at[i] == 2 for i in range(2 * n))

    def test_cycle_layout_enforced(self):
        f = canonical_chain_figure(2)
        for i, j in ((0, 1), (1, 3), (2, 3)):
            bad_hinges = list(f.hinges)
            bad_hinges[i], bad_hinges[j] = bad_hinges[j], bad_hinges[i]
            # the text names the first hinge that differs
            with pytest.raises(FigureError, match=f"^hinge {i} breaks the canonical cycle layout$"):
                HingedFigure(f.pieces, tuple(bad_hinges), "cycle")
            # the same hinges are storable under the general tag
            HingedFigure(f.pieces, tuple(bad_hinges), "general")

    def test_replace_is_checked(self):
        f = canonical_chain_figure(2)
        with pytest.raises(FigureError, match="^hinge 0 breaks the canonical cycle layout$"):
            f._replace(hinges=f.hinges[::-1])
        c = fold_chain(parse_grid("#")).config
        with pytest.raises(FigureError, match="^unknown mode 'fuzzy'$"):
            c._replace(mode="fuzzy")
        with pytest.raises(FigureError, match="tolerance"):
            c._replace(tolerance=-1.0)
        assert c._replace(mode="approx") == (c.placements, "approx", None)

    def test_records_are_tuples_with_fixed_fields(self):
        f = canonical_chain_figure(1)
        c = fold_chain(parse_grid("#")).config
        assert f == (f.pieces, f.hinges, "cycle")
        assert NamedConfiguration("fold", c) == ("fold", c)
        with pytest.raises(AttributeError):
            c.mode = "approx"
        with pytest.raises(AttributeError):
            f.extra = 1


class TestFiguresEqual:
    def test_same_n_folds_share_figure(self):
        f1 = fold_chain(parse_grid("#.\n##")).figure
        f2 = fold_chain(parse_grid("###")).figure
        assert f1 == f2

    def test_different_n(self):
        assert canonical_chain_figure(3) != canonical_chain_figure(4)

    def test_reflexive(self):
        f = canonical_chain_figure(3)
        assert f == f


class TestVerifyConfiguration:
    def test_monomino_fold_vs_unit_square_polygon(self):
        fr = fold_chain(parse_grid("#"))
        report = verify_configuration(fr.figure, fr.config, UNIT_SQUARE)
        assert report.accepted
        assert report.computed_area == 1

    def test_translated_placement_rejected(self):
        fr = fold_chain(parse_grid("#"))
        placements = list(fr.config.placements)
        m = placements[0]
        placements[0] = RigidMotion(m.rot_cos, m.rot_sin, m.translate + point(1, 0))
        bad = Configuration(tuple(placements), "exact")
        report = verify_configuration(fr.figure, bad, UNIT_SQUARE)
        assert not report.accepted
        assert failed_checks(report) & {"HingeCoincidence", "Containment"}

    def test_non_unit_rotation_flagged(self):
        fr = fold_chain(parse_grid("#"))
        placements = list(fr.config.placements)
        placements[0] = RigidMotion(Fraction(1, 2), Fraction(1, 2), placements[0].translate)
        bad = Configuration(tuple(placements), "exact")
        report = verify_configuration(fr.figure, bad, UNIT_SQUARE)
        assert "ProperMotion" in failed_checks(report)

    def test_count_mismatch(self):
        fr = fold_chain(parse_grid("#"))
        short = Configuration(fr.config.placements[:1], "exact")
        with pytest.raises(CountMismatch):
            verify_configuration(fr.figure, short, UNIT_SQUARE)

    def test_polyomino_target_with_hole(self):
        ring = parse_grid("###\n#.#\n###")
        fr = fold_chain(ring)
        report = verify_configuration(fr.figure, fr.config, ring)
        assert report.accepted

    def test_approx_mode_accepts_small_noise(self):
        fr = fold_chain(parse_grid("#"))
        placements = []
        for m in fr.config.placements:
            placements.append(
                RigidMotion(
                    m.rot_cos + Fraction(1, 10**12),
                    m.rot_sin,
                    m.translate + point(Fraction(1, 10**12), 0),
                )
            )
        noisy = Configuration(tuple(placements), "approx", 1e-6)
        assert verify_configuration(fr.figure, noisy, UNIT_SQUARE).accepted
        strict = Configuration(tuple(placements), "exact")
        assert not verify_configuration(fr.figure, strict, UNIT_SQUARE).accepted

    @pytest.mark.parametrize("shift", [1e300, 1e307, 1.7e308])
    def test_approx_mode_rejects_far_away_placements(self, shift):
        # the placed pieces' areas overflow to inf - inf = nan, which no
        # bound holds; exact mode rejects the same placements
        L = parse_grid("#.\n##")
        fr = fold_chain(L)
        far = point(Fraction(shift), Fraction(shift))
        placements = tuple(
            RigidMotion(m.rot_cos, m.rot_sin, m.translate + far) for m in fr.config.placements
        )
        report = verify_configuration(fr.figure, Configuration(placements, "approx"), L)
        assert not report.accepted
        assert {"Containment", "AreaCoverage"} <= failed_checks(report)
        assert math.isnan(report.computed_area)

    def test_area_coverage_failure(self):
        # two stacked copies of the same half: hinges fine, area wrong
        f = canonical_chain_figure(1)
        m = RigidMotion(Fraction(1), Fraction(0), point(0, 0))
        report = verify_configuration(f, Configuration((m, m), "exact"), UNIT_SQUARE)
        assert not report.accepted

    def test_accepted_is_read_from_the_failures(self):
        assert VerifyReport._fields == ("failures", "computed_area")
        assert VerifyReport([], 1).accepted
        assert not VerifyReport([("AreaCoverage", "text")], 1).accepted

    def test_piece_that_is_not_a_simple_polygon_raises(self):
        # a ccw 2x2 square and a cw unit square joined at (2, 0), and a unit
        # square wholly outside the 2x2 target: the exact certificate,
        # which needs simple ccw pieces, would accept them with area 4
        pinched = ((2, 0), (2, 2), (0, 2), (0, 0), (2, 0), (2, 1), (3, 1), (3, 0))
        outside = ((2, 0), (3, 0), (3, 1), (2, 1))
        with pytest.raises(FigureError, match="^piece 0 is not a SimplePolygon$"):
            HingedFigure((pinched, outside), (), "general")
        with pytest.raises(FigureError, match="^piece 1 is not a SimplePolygon$"):
            HingedFigure((UNIT_SQUARE, outside), (), "general")

    def test_target_that_is_not_a_polygon_or_polyomino_raises(self):
        # two copies of the unit square against the square walked twice
        f = HingedFigure((UNIT_SQUARE, UNIT_SQUARE), (), "general")
        identity = RigidMotion(1, 0, point(0, 0))
        for mode in ("exact", "approx"):
            with pytest.raises(FigureError, match="target is not a SimplePolygon or a Polyomino"):
                verify_configuration(f, Configuration((identity, identity), mode),
                                     tuple(UNIT_SQUARE) * 2)


# an exactly simple 5-gon whose top chain lies within 1e-15 of y = 0: in
# floats, turned and moved, it is no longer simple
_NEAR_COLLINEAR = SimplePolygon(map(point_from_json, [
    ["1/2", -1], ["3/4", "-1/100000000000000000"], ["1/2", 0], ["1/4", "3/10000000000000000"],
    [0, 0],
]))
_FLOAT_MOTIONS = [
    RigidMotion(Fraction(-23, 265), Fraction(264, 265), point(7, 0)),
    RigidMotion(*map(rat, (0.32312834542402913, -0.9463551512955003)),
                point(rat(-69.27954711239138), rat(0.8099981110470935))),
]
_TRIANGLE = polygon([(0, 0), (1, 0), (0, 1)])


def _near_collinear_piece(rng):
    """An exact simple polygon, or None when the draw is not one: an apex
    at y = -1 under a chain of 3 to 30 vertices, right to left, at
    distinct x in 0, 1/64, ..., 1 and each within 1e-16 of y = 0, below
    what a float placement resolves."""
    xs = sorted(rng.sample(range(65), rng.randint(3, 30)), reverse=True)
    apex = point(Fraction(rng.randint(0, 64), 64), -1)
    chain = [point(Fraction(x, 64), Fraction(rng.randint(-10, 10), 10**17)) for x in xs]
    try:
        return SimplePolygon([apex] + chain)
    except InvalidPolygon:
        return None


class TestNonSimplePlacedPiece:
    """A placed float piece that cannot be cut into convex parts fails the
    overlap check by name, and the areas are still checked."""

    @pytest.mark.parametrize("m", _FLOAT_MOTIONS, ids=["exact-motion", "float-motion"])
    def test_approx_verify_rejects(self, m):
        f = HingedFigure((_NEAR_COLLINEAR,), (), "general")
        report = verify_configuration(f, Configuration((m,), "approx"), _TRIANGLE)
        assert not report.accepted
        assert report.failures == [
            ("PairwiseDisjoint", "piece 0 cannot be cut into convex parts: "
                                 "no diagonal found; polygon is not simple"),
            ("AreaCoverage", "piece areas sum to 0.375, target 0.5, off by 0.125"),
        ]

    def test_approx_verify_always_reports(self):
        # 200 pieces, ten float motions of each: a turn, and a shift of up
        # to 8.  A seeded random.Random draws them, not hypothesis: with
        # a small probability, hypothesis draws an int or float from the
        # constants in the source of every module loaded, so its examples
        # change with the test files collected beside this one
        rng = random.Random(1924)
        pieces = filter(None, map(_near_collinear_piece, itertools.repeat(rng)))
        for piece in itertools.islice(pieces, 200):
            f = HingedFigure((piece,), (), "general")
            for _ in range(10):
                angle = rng.uniform(-math.pi, math.pi)
                cos, sin, x, y = map(rat, (math.cos(angle), math.sin(angle),
                                           rng.uniform(-8, 8), rng.uniform(-8, 8)))
                c = Configuration((RigidMotion(cos, sin, point(x, y)),), "approx")
                report = verify_configuration(f, c, _TRIANGLE)
                assert isinstance(report, VerifyReport), (piece, c)


class TestValueText:
    def test_short_values_print_exactly(self):
        for v in (0, -3, Fraction(1, 2), Fraction(-7, 3), 1.5, 1e-300):
            assert _value_text(v) == (f"{v:g}" if isinstance(v, float) else str(v))
        # a numerator or denominator of up to 200 bits is shown in full, and
        # one of 201 bits as "~" and an approximation
        for bits, exactly in ((200, True), (201, False)):
            for v in (-(2**bits - 1), Fraction(2**bits - 1, 2), Fraction(-3, 2 ** (bits - 1))):
                assert max(v.numerator.bit_length(), v.denominator.bit_length()) == bits
                assert (_value_text(v) == str(v)) is exactly
                assert _value_text(v).startswith("~") is not exactly

    @pytest.mark.parametrize("n,d", [
        (1, 10**998 + 7),
        (-(10**999), 3),
        (10**999 - 1, 1),
        (7 * 10**500 + 3, 3 * 10**400),
        (99999999 * 10**300, 1),  # the mantissa rounds up to 10, shown as 9.99999
    ], ids=["tiny", "negative", "999-nines", "ratio", "rounds-up"])
    def test_long_values_print_approximately(self, n, d):
        v = Fraction(n, d)
        n, d = v.numerator, v.denominator
        text = _value_text(v)
        approx, digits = text.split(" ", 1)
        mantissa, exp = approx.lstrip("~").split("e")
        # the value to 5 decimals of its mantissa, read without float(v)
        shown = Fraction(mantissa) * Fraction(10) ** int(exp)
        assert abs(shown - v) <= abs(v) * Fraction(1, 10**5)
        assert digits == f"({len(str(abs(n)))}/{len(str(d))} digits)"
        assert len(text) < 40


_BAD_TOLERANCES = [float("nan"), float("inf"), float("-inf"), -1.0, -1e-300]


class TestTolerance:
    @pytest.mark.parametrize("tol", _BAD_TOLERANCES)
    def test_configuration_rejects_bad_tolerance(self, tol):
        fr = fold_chain(parse_grid("#"))
        with pytest.raises(FigureError, match="tolerance"):
            Configuration(fr.config.placements, "approx", tol)

    @pytest.mark.parametrize("tol", [None, 0.0, 1e-9, 1])
    def test_configuration_accepts_finite_nonnegative_tolerance(self, tol):
        fr = fold_chain(parse_grid("#"))
        config = Configuration(fr.config.placements, "approx", tol)
        assert verify_configuration(fr.figure, config, UNIT_SQUARE).accepted

    @pytest.mark.parametrize("tol", _BAD_TOLERANCES)
    def test_hdj_bad_tolerance_is_hdj_error(self, tol):
        fr = fold_chain(parse_grid("#"))
        obj = configuration_to_json(NamedConfiguration("fold", fr.config))
        obj.update(mode="approx", tolerance=tol)
        with pytest.raises(HdjError, match="tolerance"):
            configuration_from_json(json.loads(json.dumps(obj)))


class TestHdj:
    def test_figure_round_trip(self):
        fr = fold_chain(parse_grid("##\n.#"))
        encoded = figure_to_json(fr.figure)
        decoded = figure_from_json(encoded)
        assert decoded == fr.figure

    def test_configuration_round_trip_exact(self):
        fr = fold_chain(parse_grid("##"))
        nc = NamedConfiguration("fold", fr.config)
        decoded = configuration_from_json(configuration_to_json(nc))
        assert decoded.configuration == fr.config

    def test_exact_rationals_serialize_as_strings_or_ints(self):
        fr = fold_chain(parse_grid("#"))
        blob = json.dumps(configuration_to_json(NamedConfiguration("fold", fr.config)))
        assert "." not in blob  # no decimal literals in exact mode

    def test_document_round_trip(self):
        p = parse_grid("##\n#.")
        fr = fold_chain(p)
        doc = HdjFile(
            fr.figure,
            [NamedConfiguration("fold", fr.config)],
            [NamedTarget("target", p)],
            dict(fr.cell_map),
        )
        decoded = hdj_from_json(hdj_to_json(doc))
        assert decoded.figure == doc.figure
        assert decoded.configurations[0].configuration == fr.config
        assert decoded.targets[0].data == p
        assert decoded.cell_map == doc.cell_map

    @pytest.mark.parametrize("data, kind", [(parse_grid("##"), "polyomino"),
                                            (UNIT_SQUARE, "polygon")], ids=["polyomino", "polygon"])
    def test_target_kind_is_read_from_its_data(self, tmp_path, data, kind):
        assert NamedTarget._fields == ("name", "data")
        target = NamedTarget("t", data)
        assert target.kind == kind
        doc = HdjFile(HingedFigure((UNIT_SQUARE,), ()), [], [target])
        save_hdj(tmp_path / "t.hdj", doc)
        assert load_hdj(tmp_path / "t.hdj") == doc

    def test_target_that_is_not_a_polygon_or_polyomino_is_not_written(self, tmp_path):
        # a plain frozenset of cells was written as a "polygon" that
        # load_hdj then rejected
        target = NamedTarget("t", frozenset({(0, 0), (1, 0)}))
        doc = HdjFile(HingedFigure((UNIT_SQUARE,), ()), [], [target])
        with pytest.raises(FigureError, match="^target 't' is not a SimplePolygon or a Polyomino: "
                                              "frozenset$"):
            save_hdj(tmp_path / "t.hdj", doc)
        assert not (tmp_path / "t.hdj").exists()

    def test_malformed_document(self):
        with pytest.raises(HdjError):
            hdj_from_json({"not": "hdj"})
        with pytest.raises(HdjError):
            hdj_from_json({"figure": {"pieces": "nope", "hinges": []}})

    def test_hinge_validation(self):
        with pytest.raises(FigureError):
            HingedFigure((UNIT_SQUARE,), (Hinge(0, 0, 0, 1),), "general")
        with pytest.raises(FigureError):
            HingedFigure((UNIT_SQUARE, UNIT_SQUARE), (Hinge(0, 9, 1, 0),), "general")

    @pytest.mark.parametrize("hinge, text", [
        (Hinge(2, 0, 1, 0), "hinge piece index out of range"),  # piece_a == k
        (Hinge(0, 0, 2, 0), "hinge piece index out of range"),  # piece_b == k
        (Hinge(-1, 0, 1, 0), "hinge piece index out of range"),
        (Hinge(1, 0, 1, 2), "hinge joins a piece to itself"),
        (Hinge(0, 4, 1, 0), "hinge vertex_a out of range"),  # vertex_a == len(piece)
        (Hinge(0, -1, 1, 0), "hinge vertex_a out of range"),
        (Hinge(0, 0, 1, 4), "hinge vertex_b out of range"),
        (Hinge(0, 0, 1, -1), "hinge vertex_b out of range"),
    ])
    def test_general_hinge_out_of_range(self, hinge, text):
        with pytest.raises(FigureError) as excinfo:
            HingedFigure((UNIT_SQUARE, UNIT_SQUARE), (hinge,), "general")
        assert str(excinfo.value) == f"{text}: {hinge}"

    @pytest.mark.parametrize("hinge", [Hinge(0, 0, 1, 3), Hinge(0, 3, 1, 0), Hinge(1, 0, 0, 0)])
    def test_general_hinge_at_vertex_0_is_accepted(self, hinge):
        f = HingedFigure((UNIT_SQUARE, UNIT_SQUARE), (hinge,), "general")
        assert figure_from_json(figure_to_json(f)) == f

    def test_cycle_pieces_need_three_vertices(self):
        f = canonical_chain_figure(2)
        segment = tuple.__new__(SimplePolygon, [point(0, 0), point(1, 0)])
        with pytest.raises(FigureError, match="3 or more vertices"):
            HingedFigure(f.pieces[:3] + (segment,), f.hinges, "cycle")

    @pytest.mark.parametrize("data", [
        b"[" * 5000,  # deeper than the recursion limit
        b'{"figure": ' + b"1" * 5000 + b"}",  # more digits than json reads into an int
        b'{"figure": "\xff"}',  # not UTF-8
    ], ids=["deep", "long-int", "not-utf-8"])
    def test_unreadable_file_is_an_hdj_error(self, tmp_path, data):
        path = tmp_path / "bad.hdj"
        path.write_bytes(data)
        with pytest.raises(HdjError):
            load_hdj(path)


def _fold_document(tmp_path):
    p = parse_grid(TETROMINO_GRIDS["T4"])
    result = fold_chain(p)
    path = tmp_path / "fold.hdj"
    save_hdj(path, HdjFile(result.figure, [NamedConfiguration("fold", result.config)],
                           [NamedTarget("target", p)], dict(result.cell_map)))
    return load_hdj(path)


def _dudeney_document(tmp_path):
    from importlib import resources

    return load_hdj(resources.files("chainfold") / "assets" / "dudeney.hdj")


_COPIED = {
    "chain-figure": lambda tmp_path: canonical_chain_figure(2),
    "canonical-chart": lambda tmp_path: polygon_to_canonical_chart(
        polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]), 1),
    "overlay-chart": lambda tmp_path: overlay_charts(
        polygon_to_canonical_chart(polygon([(0, 0), (2, 0), (2, 2), (0, 2)]), 2),
        polygon_to_canonical_chart(polygon([(0, 0), (4, 0), (0, 2)]), 2)),
    "polyomino": lambda tmp_path: parse_grid(TETROMINO_GRIDS["L4"]),
    "fold-document": _fold_document,
    "dudeney-document": _dudeney_document,
}


class TestCopyAndPickle:
    """Figures, charts, polyominoes and documents copy and pickle, and the
    copy is rebuilt through the checks into an equal object."""

    @pytest.mark.parametrize("name", _COPIED)
    @pytest.mark.parametrize("protocol", [None, 2, 3, 4, 5], ids=lambda p: f"protocol-{p}")
    def test_round_trip_is_equal(self, tmp_path, name, protocol):
        original = _COPIED[name](tmp_path)
        if protocol is None:
            copied = copy.deepcopy(original)
        else:
            copied = pickle.loads(pickle.dumps(original, protocol))
        assert copied == original and copied is not original
        assert repr(copied) == repr(original)  # the same types all the way down


class TestPieceSharing:
    def test_identical_pieces_are_validated_once_and_shared(self, monkeypatch):
        from chainfold import exact_geom

        calls = []
        check = exact_geom._check_simple
        monkeypatch.setattr(exact_geom, "_check_simple", lambda t: calls.append(t) or check(t))
        encoded = figure_to_json(fold_chain(parse_grid("###\n#.#")).figure)
        encoded["pieces"][3] = [[0, 0], [2, 0], [0, 2]]  # one distinct piece
        encoded["pieces"][4] = [[0, 0], ["2", 0], [0, 2.0]]  # equal once parsed
        encoded["topology"] = "general"
        f = figure_from_json(encoded)
        assert len(calls) == 2
        assert len({id(p) for p in f.pieces}) == 2
        assert f.pieces[3] is f.pieces[4]
        assert f.pieces[0] is f.pieces[1]
        assert f.pieces[0] is not f.pieces[3]

    def test_key_is_the_parsed_points_not_the_json(self):
        encoded = figure_to_json(fold_chain(parse_grid("##")).figure)
        encoded["pieces"][1] = [[0, 0], [True, 0], [0, 1]]  # == [[0, 0], [1, 0], [0, 1]]
        with pytest.raises(HdjError):
            figure_from_json(encoded)

    def test_nothing_is_shared_across_documents(self):
        encoded = figure_to_json(fold_chain(parse_grid("##")).figure)
        assert figure_from_json(encoded).pieces[0] is not figure_from_json(encoded).pieces[0]

    def test_hinge_indices_must_be_integers(self):
        for bad in (1.0, True, "1"):
            encoded = figure_to_json(fold_chain(parse_grid("##")).figure)
            encoded["hinges"][0][1] = bad
            with pytest.raises(HdjError):
                figure_from_json(encoded)


def _saved(tmp_path, doc) -> str:
    save_hdj(tmp_path / "doc.hdj", doc)
    return (tmp_path / "doc.hdj").read_text(encoding="utf-8")


class TestWriteJson:
    """save_hdj writes exactly json.dumps(hdj_to_json(doc)) + "\\n"."""

    FOLD = parse_grid("###\n#.#")
    TURNED = RigidMotion(Fraction(3, 5), Fraction(4, 5), point("1/3", 0))

    def _fold_document(self, mode, name="fold", tolerance=None):
        fr = fold_chain(self.FOLD)
        placements = (self.TURNED,) + fr.config.placements[1:]
        config = Configuration(placements, mode, tolerance)
        return HdjFile(fr.figure, [NamedConfiguration(name, config)],
                       [NamedTarget("target", self.FOLD)], dict(fr.cell_map))

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_fold_documents(self, tmp_path, mode):
        doc = self._fold_document(mode)
        assert _saved(tmp_path, doc) == json.dumps(hdj_to_json(doc)) + "\n"

    def test_dissect_document(self, tmp_path):
        a, b = parse_grid(TETROMINO_GRIDS["L4"]), parse_grid(TETROMINO_GRIDS["T4"])
        hd = dissect_pair(a, b)
        doc = HdjFile(hd.figure,
                      [NamedConfiguration("fold_a", hd.config_a),
                       NamedConfiguration("fold_b", hd.config_b)],
                      [NamedTarget("a", a), NamedTarget("b", b)])
        assert _saved(tmp_path, doc) == json.dumps(hdj_to_json(doc)) + "\n"

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_polygon_target(self, tmp_path, mode):
        f = HingedFigure((UNIT_SQUARE,), ())
        doc = HdjFile(f, [NamedConfiguration("id", Configuration((self.TURNED,), mode))],
                      [NamedTarget("square", UNIT_SQUARE)])
        assert _saved(tmp_path, doc) == json.dumps(hdj_to_json(doc)) + "\n"

    def test_no_configurations(self, tmp_path):
        doc = HdjFile(canonical_chain_figure(2), [], [NamedTarget("t", parse_grid("##"))])
        assert hdj_to_json(doc)["configurations"] == []
        assert _saved(tmp_path, doc) == json.dumps(hdj_to_json(doc)) + "\n"

    def test_save_hdj_writes_the_json_text(self, tmp_path):
        doc = self._fold_document("exact")
        (tmp_path / "f.hdj").write_text("stale\n" * 3, encoding="utf-8")
        save_hdj(tmp_path / "f.hdj", doc)
        text = (tmp_path / "f.hdj").read_text(encoding="utf-8")
        assert text == json.dumps(hdj_to_json(doc)) + "\n"
        assert text.count("\n") == 1
        assert hdj_to_json(load_hdj(tmp_path / "f.hdj")) == hdj_to_json(doc)

    def test_circular_and_unserializable_values_raise_as_in_json(self):
        loop = []
        loop.append([loop])
        row = []
        table = [row, (row,)]  # every level holds only containers, down without end
        row.append(table)
        for bad, error in ((loop, ValueError), (table, ValueError), ([object()], TypeError),
                           ({(1,): 2}, TypeError), ([[1], [object()]], TypeError)):
            with pytest.raises(error) as expected:
                json.dumps(bad)
            with pytest.raises(error) as raised:
                write_json(bad, io.StringIO())
            assert str(raised.value) == str(expected.value)

    def test_figure_to_json_encodes_each_distinct_piece_once(self):
        pieces = figure_to_json(fold_chain(self.FOLD).figure)["pieces"]
        assert all(piece is pieces[0] for piece in pieces)


class TestIndentedLayout:
    """Files written as json.dumps(obj, indent=1) + "\\n", the layout of
    earlier versions, read to the same values as the compact files,
    verify alike and save again as the compact text."""

    def test_fold_document_and_dudeney_asset(self, tmp_path):
        from importlib import resources

        _fold_document(tmp_path)  # saved as fold.hdj
        asset = resources.files("chainfold") / "assets" / "dudeney.hdj"
        for path in (tmp_path / "fold.hdj", asset):
            text = path.read_text(encoding="utf-8")
            indented = tmp_path / "indented.hdj"
            indented.write_text(json.dumps(json.loads(text), indent=1) + "\n", encoding="utf-8")
            old, new = load_hdj(indented), load_hdj(path)
            assert old == new
            reports = [[verify_configuration(doc.figure, nc.configuration, nt.data)
                        for nc, nt in doc.pairs()] for doc in (old, new)]
            assert reports[0] == reports[1]
            assert _saved(tmp_path, old) == text

    def test_chart(self, tmp_path):
        mutual = overlay_charts(
            polygon_to_canonical_chart(polygon([(0, 0), (2, 0), (2, 2), (0, 2)]), 2),
            polygon_to_canonical_chart(polygon([(0, 0), (4, 0), (0, 2)]), 2))
        text = json.dumps(chart_to_json(mutual)) + "\n"
        indented = tmp_path / "indented.json"
        indented.write_text(json.dumps(json.loads(text), indent=1) + "\n", encoding="utf-8")
        old, new = chart_from_json(read_json(indented)), chart_from_json(json.loads(text))
        assert old == new
        assert verify_chart(old) == verify_chart(new)
        fh = io.StringIO()
        write_json(chart_to_json(old), fh)
        assert fh.getvalue() == text
