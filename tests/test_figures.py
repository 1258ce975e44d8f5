import json
from fractions import Fraction

import pytest

from chainfold.chain import fold_chain
from chainfold.exact_geom import RigidMotion, point, polygon
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
    _value_text,
    canonical_chain_figure,
    configuration_from_json,
    configuration_to_json,
    figure_from_json,
    figure_to_json,
    figures_equal,
    hdj_from_json,
    hdj_to_json,
    verify_configuration,
)
from chainfold.polyomino import BadSize, parse_grid

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
        bad_hinges = list(f.hinges)
        bad_hinges[0], bad_hinges[1] = bad_hinges[1], bad_hinges[0]
        with pytest.raises(FigureError):
            HingedFigure(f.pieces, tuple(bad_hinges), "cycle")
        # the same hinges are storable under the general tag
        HingedFigure(f.pieces, tuple(bad_hinges), "general")


class TestFiguresEqual:
    def test_same_n_folds_share_figure(self):
        f1 = fold_chain(parse_grid("#.\n##")).figure
        f2 = fold_chain(parse_grid("###")).figure
        assert figures_equal(f1, f2)

    def test_different_n(self):
        assert not figures_equal(canonical_chain_figure(3), canonical_chain_figure(4))

    def test_reflexive(self):
        f = canonical_chain_figure(3)
        assert figures_equal(f, f)


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
        assert report.failed_checks() & {"HingeCoincidence", "Containment"}

    def test_non_unit_rotation_flagged(self):
        fr = fold_chain(parse_grid("#"))
        placements = list(fr.config.placements)
        placements[0] = RigidMotion(Fraction(1, 2), Fraction(1, 2), placements[0].translate)
        bad = Configuration(tuple(placements), "exact")
        report = verify_configuration(fr.figure, bad, UNIT_SQUARE)
        assert "ProperMotion" in report.failed_checks()

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

    def test_area_coverage_failure(self):
        # two stacked copies of the same half: hinges fine, area wrong
        f = canonical_chain_figure(1)
        m = RigidMotion(Fraction(1), Fraction(0), point(0, 0))
        report = verify_configuration(f, Configuration((m, m), "exact"), UNIT_SQUARE)
        assert not report.accepted


class TestValueText:
    def test_short_values_print_exactly(self):
        big = 10**60 - 1  # 199 bits, the longest numerator still shown in full
        for v in (0, -3, Fraction(1, 2), Fraction(-7, 3), Fraction(big, 7), 1.5, 1e-300):
            assert _value_text(v) == (f"{v:g}" if isinstance(v, float) else str(v))

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
        assert figures_equal(decoded, fr.figure)

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
            [NamedTarget("target", "polyomino", p)],
            dict(fr.cell_map),
        )
        decoded = hdj_from_json(hdj_to_json(doc))
        assert figures_equal(decoded.figure, doc.figure)
        assert decoded.configurations[0].configuration == fr.config
        assert decoded.targets[0].data == p
        assert decoded.cell_map == doc.cell_map

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
