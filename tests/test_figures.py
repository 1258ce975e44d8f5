import io
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chainfold.chain import dissect_pair, fold_chain
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
    save_hdj,
    verify_configuration,
    write_json,
)
from chainfold.polyomino import BadSize, parse_grid
from conftest import TETROMINO_GRIDS

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
        assert {"Containment", "AreaCoverage"} <= report.failed_checks()
        assert math.isnan(report.computed_area)

    def test_area_coverage_failure(self):
        # two stacked copies of the same half: hinges fine, area wrong
        f = canonical_chain_figure(1)
        m = RigidMotion(Fraction(1), Fraction(0), point(0, 0))
        report = verify_configuration(f, Configuration((m, m), "exact"), UNIT_SQUARE)
        assert not report.accepted


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
            ("AreaCoverage", "piece areas sum to 0.375, target 0.5"),
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
            [NamedTarget("target", "polyomino", p)],
            dict(fr.cell_map),
        )
        decoded = hdj_from_json(hdj_to_json(doc))
        assert decoded.figure == doc.figure
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
        segment = SimplePolygon([point(0, 0), point(1, 0)], _validated=True)
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


def _written(obj) -> str:
    fh = io.StringIO()
    write_json(obj, fh)
    return fh.getvalue()


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3))
_KEYS = st.one_of(st.text(max_size=3), st.integers(), st.floats(), st.booleans(), st.none())


@st.composite
def _shared_containers(draw):
    """A list, tuple or dict built from a pool of containers, each holding
    scalars and earlier containers of the pool, so one container can come
    again at once, after others, and at several levels."""
    pool = []
    for _ in range(draw(st.integers(1, 8))):
        item = st.one_of(_SCALARS, st.sampled_from(pool)) if pool else _SCALARS
        items = [
            value
            for value, repeats in draw(st.lists(st.tuples(item, st.integers(1, 3)), max_size=4))
            for _ in range(repeats)
        ]
        kind = draw(st.sampled_from((list, tuple, dict)))
        pool.append({draw(_KEYS): v for v in items} if kind is dict else kind(items))
    return draw(st.sampled_from(pool))


_S = {"p": [1, 2]}
_T = [_S, (0.5, "t")]


class TestWriteJson:
    """write_json writes exactly the text of json.dumps(obj, indent=1)."""

    FOLD = parse_grid("###\n#.#")
    TURNED = RigidMotion(Fraction(3, 5), Fraction(4, 5), point("1/3", 0))

    def _fold_document(self, mode, name="fold", tolerance=None):
        fr = fold_chain(self.FOLD)
        placements = (self.TURNED,) + fr.config.placements[1:]
        config = Configuration(placements, mode, tolerance)
        return HdjFile(fr.figure, [NamedConfiguration(name, config)],
                       [NamedTarget("target", "polyomino", self.FOLD)], dict(fr.cell_map))

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_fold_documents(self, mode):
        obj = hdj_to_json(self._fold_document(mode))
        assert _written(obj) == json.dumps(obj, indent=1)

    def test_dissect_document(self):
        a, b = parse_grid(TETROMINO_GRIDS["L4"]), parse_grid(TETROMINO_GRIDS["T4"])
        hd = dissect_pair(a, b)
        doc = HdjFile(hd.figure,
                      [NamedConfiguration("fold_a", hd.config_a),
                       NamedConfiguration("fold_b", hd.config_b)],
                      [NamedTarget("a", "polyomino", a), NamedTarget("b", "polyomino", b)])
        obj = hdj_to_json(doc)
        assert _written(obj) == json.dumps(obj, indent=1)

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_polygon_target(self, mode):
        f = HingedFigure((UNIT_SQUARE,), ())
        doc = HdjFile(f, [NamedConfiguration("id", Configuration((self.TURNED,), mode))],
                      [NamedTarget("square", "polygon", UNIT_SQUARE)])
        obj = hdj_to_json(doc)
        assert _written(obj) == json.dumps(obj, indent=1)

    def test_no_configurations(self):
        obj = hdj_to_json(HdjFile(canonical_chain_figure(2), [],
                                  [NamedTarget("t", "polyomino", parse_grid("##"))]))
        assert obj["configurations"] == []
        assert _written(obj) == json.dumps(obj, indent=1)

    def test_names_that_need_escapes(self):
        name = 'q"b\\s]c\u00e9\U0001F600\n'
        obj = hdj_to_json(self._fold_document("exact", name=name))
        assert _written(obj) == json.dumps(obj, indent=1)
        assert _written({name: [name]}) == json.dumps({name: [name]}, indent=1)

    def test_floats(self):
        floats = [-0.0, 1e-300, 0.1, 1e300, float("nan"), float("inf"), -float("inf")]
        assert _written(floats) == json.dumps(floats, indent=1)
        obj = hdj_to_json(self._fold_document("approx", tolerance=-0.0))
        assert obj["configurations"][0]["tolerance"] == 0
        assert _written(obj) == json.dumps(obj, indent=1)

    def test_scalars_keys_and_empty_containers(self):
        for obj in (None, True, 7, "s", 0.5, [], {}, [[], {}], {"a": {}, "b": [[]]},
                    {1: "int", 2.5: "float", False: "bool", None: "none"}, (1, (2,))):
            assert _written(obj) == json.dumps(obj, indent=1)

    def test_shared_containers_at_two_levels(self):
        shared = {"p": [1, 2]}
        obj = [shared, [shared, {"k": shared}], shared]
        assert _written(obj) == json.dumps(obj, indent=1)

    @given(_shared_containers())
    @example([_T, _T, _T])
    @example([_S, _T, _S])
    @example([_S, [_S]])
    @example([[_S], _S])
    @example({1: [], 2.5: {}, None: _S, False: (_S, _S), "k": ()})
    @example([[1], [True], [1.0]])  # equal containers, different texts
    def test_shared_containers_match_json_dumps(self, obj):
        assert _written(obj) == json.dumps(obj, indent=1)

    def test_circular_and_unserializable_values_raise_as_in_json(self):
        loop = []
        loop.append([loop])
        for bad, error in ((loop, ValueError), ([object()], TypeError), ({(1,): 2}, TypeError)):
            with pytest.raises(error):
                json.dumps(bad, indent=1)
            with pytest.raises(error):
                _written(bad)

    def test_figure_to_json_encodes_each_distinct_piece_once(self):
        pieces = figure_to_json(fold_chain(self.FOLD).figure)["pieces"]
        assert all(piece is pieces[0] for piece in pieces)

    def test_save_hdj_writes_the_json_text(self, tmp_path):
        doc = self._fold_document("exact")
        save_hdj(tmp_path / "f.hdj", doc)
        text = (tmp_path / "f.hdj").read_text(encoding="utf-8")
        assert text == json.dumps(hdj_to_json(doc), indent=1) + "\n"
