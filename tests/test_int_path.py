"""Exact verification on ints: a differential test and int-safety properties.

The reference verifier is the Fraction-only form of ``_verify_exact``: it
turns every input value into a Fraction, places every vertex with
``apply_motion`` in Fractions and halves each area.  The verifier under
test runs on the stored values, which ``rat`` and the fold keep as ints
where they are integral, so a chain fold runs on ints; its report must
be exactly the reference's, on folds, on lattice and non-lattice
mutants, and on polygon targets whose vertices are not integers.  Approx mode is held the same
way, to a frozen form of the approx verifier that halves each area as it
is made: verdict, failure texts and the float bits of the total.

The ear clip is held to two slow references: a verbatim copy of the scan
that its default order replaced, and a rescan for its fattest order.

The properties check that the tuple core and the overlap engine keep int
coordinates exact: every value they return is an int or a Fraction, never
a float, and equals the same computation on Fraction inputs.
"""

import json
import math
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainfold import exact_geom, figures, overlap
from chainfold.chain import dissect_pair, fold_chain, load_sample_shape
from chainfold.equidecompose import (
    DissectionChart,
    RectangleForm,
    polygon_to_canonical_chart,
    rectangle_to_width,
    triangle_to_rectangle,
    verify_chart,
)
from chainfold.exact_geom import (
    IDENTITY_MOTION,
    InvalidPolygon,
    Point2,
    RigidMotion,
    SimplePolygon,
    _bbox,
    _bboxes_interiors_overlap,
    _clip_convex_raw,
    _convex_clip,
    _ear_clip,
    _edges,
    _orient,
    _point_in_triangle_closed,
    _signed_area2,
    apply_motion,
    point,
    polygon_area,
    triangulate_simple,
)
from chainfold.figures import Configuration, Hinge, HingedFigure, load_hdj, verify_configuration
from chainfold.numeric import NumericMotion, float_polygon
from chainfold.overlap import cell_bounds, convex_parts, covered_by_cells2, overlap_sum2
from chainfold.polyomino import Polyomino, parse_grid, random_polyomino

from conftest import PENTOMINO_GRIDS, HolePresent, boundary_polygon, criterion_8_cases
from conftest import rational_convex_hull

# ---------------------------------------------------------------------------
# the Fraction-only reference verifier


def _box_pairs(boxes):
    """Index pairs i < j whose box interiors overlap, by an all-pairs loop."""
    return [
        (i, j)
        for i in range(len(boxes))
        for j in range(i + 1, len(boxes))
        if _bboxes_interiors_overlap(boxes[i], boxes[j])
    ]


def _fraction_parts(parts):
    """The engine's (part, box, edges) as (part, box) in Fractions."""
    return [(_as_fractions(part), tuple(map(Fraction, box))) for part, box, _ in parts]


def _reference_overlap(parts_a, parts_b):
    total = 0
    parts_b = _fraction_parts(parts_b)
    for part_a, box_a in _fraction_parts(parts_a):
        for part_b, box_b in parts_b:
            if _bboxes_interiors_overlap(box_a, box_b):
                frag = _convex_clip(part_a, part_b)
                if frag:
                    total += _signed_area2(frag) / 2
    return total


def _reference_covered_by_cells(parts, box, cells):
    x0, y0, x1, y1 = box
    cx0, cy0, cx1, cy1 = math.floor(x0), math.floor(y0), math.ceil(x1), math.ceil(y1)
    if cx1 - cx0 == 1 and cy1 - cy0 == 1 and (cx0, cy0) in cells:
        return sum(_signed_area2(part) for part, _ in _fraction_parts(parts)) / 2
    covered = 0
    for x in range(cx0, cx1):
        for y in range(cy0, cy1):
            if (x, y) in cells:
                lo_x, lo_y, hi_x, hi_y = Fraction(x), Fraction(y), Fraction(x + 1), Fraction(y + 1)
                cell = [(lo_x, lo_y), (hi_x, lo_y), (hi_x, hi_y), (lo_x, hi_y)]
                covered += _reference_overlap(parts, [(cell, (lo_x, lo_y, hi_x, hi_y), _edges(cell))])
    return covered


def reference_verify_exact(f, c, target):
    """(accepted, failures, computed_area) of the Fraction-only verifier."""
    failures = []
    placements = [
        RigidMotion(Fraction(m.rot_cos), Fraction(m.rot_sin), _fraction_point(m.translate))
        for m in c.placements
    ]
    for i, m in enumerate(placements):
        if m.rot_cos * m.rot_cos + m.rot_sin * m.rot_sin != 1:
            failures.append(("ProperMotion", f"placement {i}: rot_cos^2+rot_sin^2 != 1"))
    placed = [
        [apply_motion(placements[i], _fraction_point(v)) for v in piece.vertices]
        for i, piece in enumerate(f.pieces)
    ]
    for idx, h in enumerate(f.hinges):
        (ax, ay), (bx, by) = placed[h.piece_a][h.vertex_a], placed[h.piece_b][h.vertex_b]
        if (ax, ay) != (bx, by):
            failures.append(("HingeCoincidence", f"hinge {idx}: ({ax},{ay}) vs ({bx},{by})"))
    parts = [convex_parts(pts) for pts in placed]
    boxes = [_bbox(pts) for pts in placed]
    for i, j in _box_pairs(boxes):
        if _reference_overlap(parts[i], parts[j]) > 0:
            failures.append(("PairwiseDisjoint", f"pieces {i} and {j} overlap"))
    areas = [_signed_area2(pts) / 2 for pts in placed]
    if isinstance(target, Polyomino):
        covered = [_reference_covered_by_cells(p, b, target.cells) for p, b in zip(parts, boxes)]
        target_area = Fraction(target.cell_count)
    else:
        target_parts = convex_parts(_as_fractions(list(target.vertices)))
        covered = [_reference_overlap(p, target_parts) for p in parts]
        target_area = polygon_area(target)
    for i, cov in enumerate(covered):
        if cov != areas[i]:
            failures.append(("Containment", f"piece {i}: {areas[i] - cov} of its area is outside"))
    total = sum(areas, Fraction(0))
    if total != target_area:
        failures.append(("AreaCoverage", f"piece areas sum to {total}, target {target_area}"))
    return not failures, failures, total


def _fraction_point(p):
    return Point2(Fraction(p.x), Fraction(p.y))


def _float_covered2(parts, box, cells):
    x0, y0, x1, y1 = box
    cx0, cy0, cx1, cy1 = math.floor(x0), math.floor(y0), math.ceil(x1), math.ceil(y1)
    if cx1 - cx0 == 1 and cy1 - cy0 == 1 and (cx0, cy0) in cells:
        return sum(_signed_area2(part) for part, _, _ in parts)
    covered = 0
    for x in range(cx0, cx1):
        for y in range(cy0, cy1):
            if (x, y) in cells:
                lo_x, lo_y, hi_x, hi_y = float(x), float(y), float(x + 1), float(y + 1)
                cell = [(lo_x, lo_y), (hi_x, lo_y), (hi_x, hi_y), (lo_x, hi_y)]
                covered += overlap_sum2(parts, [(cell, (lo_x, lo_y, hi_x, hi_y), _edges(cell))])
    return covered


def reference_verify_approx(f, c, target):
    """(accepted, failures, computed_area) of the approx verifier in its
    own body: float cells, and every area halved as it is made."""
    tol = c.effective_tolerance
    failures = []
    mats = []
    for i, m in enumerate(c.placements):
        cos, sin = float(m.rot_cos), float(m.rot_sin)
        mats.append((cos, sin, float(m.translate.x), float(m.translate.y)))
        err = abs(cos * cos + sin * sin - 1.0)
        if err > tol:
            failures.append(("ProperMotion", f"placement {i}: |cos^2+sin^2-1| = {err:g}"))
    placed = [
        [
            (cos * float(v.x) - sin * float(v.y) + tx, sin * float(v.x) + cos * float(v.y) + ty)
            for v in piece.vertices
        ]
        for (cos, sin, tx, ty), piece in zip(mats, f.pieces)
    ]
    for idx, h in enumerate(f.hinges):
        (ax, ay), (bx, by) = placed[h.piece_a][h.vertex_a], placed[h.piece_b][h.vertex_b]
        gap = math.hypot(ax - bx, ay - by)
        if gap > tol:
            failures.append(("HingeCoincidence", f"hinge {idx}: gap {gap:g}"))
    parts = [convex_parts(pts) for pts in placed]
    boxes = [_bbox(pts) for pts in placed]
    if isinstance(target, Polyomino):
        target_area = float(target.cell_count)
        covered2 = [_float_covered2(p, b, target.cells) for p, b in zip(parts, boxes)]
    else:
        target_area = float(polygon_area(target))
        target_parts = convex_parts(float_polygon(list(target.vertices)))
        covered2 = [overlap_sum2(p, target_parts) for p in parts]
    for i, j in _box_pairs(boxes):
        area = overlap_sum2(parts[i], parts[j]) / 2
        if area > tol * target_area:
            failures.append(("PairwiseDisjoint", f"pieces {i} and {j} overlap by {area:g}"))
    areas = [_signed_area2(pts) / 2.0 for pts in placed]
    for i, cov2 in enumerate(covered2):
        outside = areas[i] - cov2 / 2
        if outside > tol * target_area:
            failures.append(("Containment", f"piece {i}: {outside:g} outside target"))
    total = sum(areas)
    if abs(total - target_area) > tol * target_area:
        failures.append(
            ("AreaCoverage", f"piece areas sum to {total:g}, target {target_area:g}, "
                             f"off by {abs(total - target_area):g}")
        )
    return not failures, failures, total


# ---------------------------------------------------------------------------
# cases: folds, lattice mutants, non-lattice mutants, polygon targets


def _fold(p):
    r = fold_chain(p)
    return r.figure, r.config, p


def _moved(config, i, fn):
    placements = list(config.placements)
    placements[i] = fn(placements[i])
    return Configuration(tuple(placements), config.mode)


def _translated(dx, dy):
    return lambda m: RigidMotion(m.rot_cos, m.rot_sin, point(m.translate.x + dx, m.translate.y + dy))


def _quarter_turn(m):
    return RigidMotion(-m.rot_sin, m.rot_cos, m.translate)


def _rotation_3_4_5(m):
    return RigidMotion(Fraction(3, 5), Fraction(4, 5), m.translate)


def _hinge_swap(f, i, j):
    hinges = list(f.hinges)
    a, b = hinges[i], hinges[j]
    hinges[i] = Hinge(a.piece_a, a.vertex_a, b.piece_b, b.vertex_b)
    hinges[j] = Hinge(b.piece_a, b.vertex_a, a.piece_b, a.vertex_b)
    return HingedFigure(f.pieces, tuple(hinges), "general")


def _third_vertex(f, k):
    pieces = list(f.pieces)
    pieces[k] = SimplePolygon([point(Fraction(1, 3), Fraction(-1, 3)), point(1, 0), point(0, 1)])
    return HingedFigure(tuple(pieces), f.hinges, f.topology_tag)


def _shifted_boundary(p, dx, dy):
    return SimplePolygon(
        [point(v.x + dx, v.y + dy) for v in boundary_polygon(p).vertices]
    )


def _cases():
    cases = []
    for n, seed in ((64, 0), (64, 1), (256, 2)):
        cases.append((f"rand{n}-{seed}", _fold(random_polyomino(n, seed))))
    for name in ("I", "L", "O", "T"):
        cases.append((f"glyph-{name}", _fold(load_sample_shape(name))))
    for a, b in (("L", "T"), ("F", "W")):
        hd = dissect_pair(parse_grid(PENTOMINO_GRIDS[a]), parse_grid(PENTOMINO_GRIDS[b]))
        cases.append((f"dissect-{a}{b}-a", (hd.figure, hd.config_a, hd.target_a)))
        cases.append((f"dissect-{a}{b}-b", (hd.figure, hd.config_b, hd.target_b)))

    f, c, p = _fold(load_sample_shape("L"))
    k = len(f.pieces) // 3
    cases += [
        ("translate-1", (f, _moved(c, k, _translated(1, 0)), p)),
        ("quarter-turn", (f, _moved(c, k, _quarter_turn), p)),
        ("hinge-swap", (_hinge_swap(f, 5, 40), c, p)),
        ("translate-1/2", (f, _moved(c, k, _translated(Fraction(1, 2), 0)), p)),
        ("rotation-3/5-4/5", (f, _moved(c, k, _rotation_3_4_5), p)),
        ("vertex-1/3", (_third_vertex(f, k), c, p)),
        ("polygon-target", (f, c, boundary_polygon(p))),
        # int() would truncate these vertices onto the true boundary
        ("polygon-target-1/2", (f, c, _shifted_boundary(p, Fraction(1, 2), Fraction(1, 2)))),
        ("polygon-target-1/3", (f, c, _shifted_boundary(p, Fraction(1, 3), 0))),
    ]
    return cases


CASES = _cases()


class TestAgainstFractionReference:
    @pytest.mark.parametrize("name,case", CASES, ids=[name for name, _ in CASES])
    def test_report_equals_reference(self, name, case):
        f, c, target = case
        report = verify_configuration(f, c, target)
        accepted, failures, total = reference_verify_exact(f, c, target)
        assert report.failures == failures
        assert report.accepted == accepted
        assert type(report.computed_area) is Fraction
        assert report.computed_area == total

    def test_cases_accept_and_reject_as_built(self):
        verdicts = {name: verify_configuration(*case).accepted for name, case in CASES}
        mutants = {
            "translate-1", "quarter-turn", "hinge-swap", "translate-1/2",
            "rotation-3/5-4/5", "vertex-1/3", "polygon-target-1/2", "polygon-target-1/3",
        }
        assert {name for name, ok in verdicts.items() if not ok} == mutants


class TestApproxAgainstReference:
    @pytest.mark.parametrize("tol", [1e-9, 1e-2, 0.0])
    @pytest.mark.parametrize("name,case", CASES, ids=[name for name, _ in CASES])
    def test_report_equals_reference(self, name, case, tol):
        f, c, target = case
        approx = Configuration(c.placements, "approx", tol)
        report = verify_configuration(f, approx, target)
        accepted, failures, total = reference_verify_approx(f, approx, target)
        assert report.failures == failures
        assert report.accepted == accepted
        assert type(report.computed_area) is float
        assert report.computed_area.hex() == total.hex()

    def test_cases_include_approx_rejections(self):
        # the mutants that move a piece off the lattice fail at every tolerance
        loose = [
            name for name, (f, c, t) in CASES
            if not verify_configuration(f, Configuration(c.placements, "approx", 1e-2), t).accepted
        ]
        assert {"translate-1", "quarter-turn", "hinge-swap", "translate-1/2"} <= set(loose)


class TestLatticeFoldPrune:
    def test_intact_fold_clips_no_piece_pair(self, monkeypatch):
        # the two half-squares of a cell share only their diagonal, which
        # their diagonal extents see; every piece also lies in one target
        # cell, whose coverage takes the shortcut, so no clip runs at all
        f, c, p = _fold(random_polyomino(256, 0))
        calls = []
        real = overlap.overlap_sum2

        def counted(parts_a, parts_b):
            calls.append(parts_b)
            return real(parts_a, parts_b)

        monkeypatch.setattr(overlap, "overlap_sum2", counted)
        assert verify_configuration(f, c, p).accepted
        assert calls == []

        k = len(f.pieces) // 3
        mutants = {
            "translate-1": (f, _moved(c, k, _translated(1, 0)), p),
            "quarter-turn": (f, _moved(c, k, _quarter_turn), p),
            "hinge-swap": (_hinge_swap(f, 5, 40), c, p),
        }
        for name, case in mutants.items():
            assert not verify_configuration(*case).accepted, name
        assert calls  # the moved pieces are clipped against their new neighbours


# ---------------------------------------------------------------------------
# exact partitions by boundary cancellation


def _outcome(f, c, target, verify=verify_configuration):
    """(accepted, failures, computed_area) of a verifier, or the type and
    text of the ValueError it raised."""
    try:
        report = verify(f, c, target)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(report, figures.VerifyReport):
        return report.accepted, report.failures, report.computed_area
    return report


def engine_verify(f, c, target):
    """verify_configuration with the residual engine in place of the
    cancellation certificate, in either mode: the verifier as it was
    before that certificate."""
    cancel = figures.cell_partition_residuals
    figures.cell_partition_residuals = overlap.partition_residuals
    try:
        return verify_configuration(f, c, target)
    finally:
        figures.cell_partition_residuals = cancel


def _assert_same_outcome(case):
    outcome = _outcome(*case)
    assert outcome == _outcome(*case, verify=engine_verify)
    assert outcome == _outcome(*case, verify=reference_verify_exact)


APPROX_TOLERANCES = [None, 0.0, 1e-6]


def _assert_same_approx_outcome(case, tol):
    """The approx verify of a case at tol, by the certificate and by the
    engine alike; repr tells every float apart, NaN and -0.0 too."""
    f, c, target = case
    case = f, Configuration(c.placements, "approx", tol), target
    assert repr(_outcome(*case)) == repr(_outcome(*case, verify=engine_verify))


def _scaled(m):
    # (6/5, 8/5) is off the unit circle: the piece grows to twice its size
    return RigidMotion(Fraction(6, 5), Fraction(8, 5), m.translate)


def _swapped(config, k, j):
    placements = list(config.placements)
    placements[k], placements[j] = placements[j], placements[k]
    return Configuration(tuple(placements), config.mode)


def _collapsed(m):
    # the zero (cos, sin) puts every vertex on the translation
    return RigidMotion(0, 0, m.translate)


def _placed(f, c):
    return figures._placed_points(f, c, None)[1]


def _square_row_case():
    """Three unit squares hinged in a row over a 1x3 polyomino, the last
    turned by the zero (cos, sin) into a point far from the hole it
    leaves: a collapsed square, which has no convex parts."""
    square = SimplePolygon([point(0, 0), point(1, 0), point(1, 1), point(0, 1)])
    f = HingedFigure((square,) * 3, (Hinge(0, 1, 1, 0), Hinge(1, 1, 2, 0)), "general")
    motions = [RigidMotion(1, 0, point(x, 0)) for x in (0, 1)] + [_collapsed(IDENTITY_MOTION)]
    c = Configuration(tuple(motions), "exact")
    return f, c, parse_grid("###")


def _even_cover_case():
    """A 2x2 square covered by two scale-2 triangles whose edges cancel
    the square's, with the other six pieces stacked in pairs: every edge
    is met an even number of times, yet only the directed edges of a
    stacked pair fail to cancel."""
    f, c, _ = _fold(parse_grid("##\n##"))
    big = [RigidMotion(2, 0, point(0, 0)), RigidMotion(-2, 0, point(2, 2))]
    stacked = [RigidMotion(1, 0, point(v, v)) for v in (0, 0, 5, 5, 1, 1)]
    square = SimplePolygon([point(0, 0), point(2, 0), point(2, 2), point(0, 2)])
    return f, Configuration(tuple(big + stacked), "exact"), square


def _dudeney_cases():
    doc = load_hdj(str(resources.files("chainfold") / "assets" / "dudeney.hdj"))
    return [
        (doc.figure, Configuration(nc.configuration.placements, "exact"), nt.data)
        for nc, nt in doc.pairs()
    ]


def _domino_vs_rectangle():
    # the polygon's edges have length 2, the pieces' 1: nothing cancels
    f, c, p = _fold(parse_grid("##"))
    return f, c, boundary_polygon(p)


CANCELLATION_CASES = [
    ("square-row-zero-rotation", _square_row_case()),
    ("even-cover", _even_cover_case()),
    ("domino-vs-rectangle", _domino_vs_rectangle()),
]


_FAR = [2**53, 2**60, 10**300]


def _far_cases():
    """The L glyph's fold with one placement moved far, or with every
    placement and the target moved far together, and with two
    placements swapped."""
    f, c, p = _fold(load_sample_shape("L"))
    k = len(f.pieces) // 3
    cases = [("placement-swap", (f, _swapped(c, k, 2 * k), p))]
    for label, d in zip(("2^53", "2^60", "10^300"), _FAR):
        together = Configuration(tuple(map(_translated(d, -d), c.placements)), c.mode)
        cases += [
            (f"translate-{label}", (f, _moved(c, k, _translated(d, 0)), p)),
            (f"together-{label}", (f, together, Polyomino([(x + d, y - d) for x, y in p]))),
        ]
    return cases


APPROX_CASES = CANCELLATION_CASES + CASES + _far_cases()


@st.composite
def lattice_mutants(draw, far=False):
    """A lattice fold of random_polyomino(n, seed), n <= 64, intact or
    with one placement translated, turned by a quarter or by (3/5, 4/5),
    copied from another piece, scaled by (6/5, 8/5) or collapsed by
    (0, 0), or with two placements or two hinges swapped.  Given far,
    a placement may also move by 2**53, 2**60 or 10**300, and the fold
    and its target together by one of those, whose exact values the
    reference would print in full."""
    n, seed = draw(st.integers(1, 64)), draw(st.integers(0, 10**6))
    f, c, p = _fold(random_polyomino(n, seed))
    k, j = draw(st.integers(0, len(f.pieces) - 1)), draw(st.integers(0, len(f.pieces) - 1))
    kind = draw(st.sampled_from(
        ["intact", "translate", "quarter-turn", "3-4-5-turn", "duplicate", "scaled", "zero",
         "swap", "hinge-swap"] + ["far-together"] * far
    ))
    if kind == "translate":
        d = draw(st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-1, 3)] + _FAR * far))
        return f, _moved(c, k, _translated(*draw(st.sampled_from([(d, 0), (0, d), (d, d)])))), p
    if kind == "far-together":
        d = draw(st.sampled_from(_FAR)) * draw(st.sampled_from([1, -1]))
        moved = Configuration(tuple(map(_translated(d, d), c.placements)), c.mode)
        return f, moved, Polyomino([(x + d, y + d) for x, y in p])
    if kind == "3-4-5-turn":
        return f, _moved(c, k, _rotation_3_4_5), p
    if kind == "swap":
        return f, _swapped(c, k, j), p
    if kind == "quarter-turn":
        return f, _moved(c, k, _quarter_turn), p
    if kind == "duplicate":
        return f, _moved(c, k, lambda m: c.placements[j]), p
    if kind == "scaled":
        return f, _moved(c, k, _scaled), p
    if kind == "zero":
        return f, _moved(c, k, _collapsed), p
    if kind == "hinge-swap" and (j - k) % len(f.hinges) not in (0, 1, len(f.hinges) - 1):
        return _hinge_swap(f, j, k), c, p  # hinges j and k join four distinct pieces
    return f, c, p


class TestEdgeCancellation:
    @settings(max_examples=150, deadline=None)
    @given(lattice_mutants())
    def test_lattice_folds_and_mutants_equal_reference(self, case):
        _assert_same_outcome(case)

    @settings(max_examples=150, deadline=None)
    @given(lattice_mutants(far=True), st.sampled_from(APPROX_TOLERANCES))
    def test_approx_lattice_folds_and_mutants_equal_engine(self, case, tol):
        _assert_same_approx_outcome(case, tol)

    @pytest.mark.parametrize(
        "name,case", CANCELLATION_CASES, ids=[name for name, _ in CANCELLATION_CASES]
    )
    def test_cases_equal_reference(self, name, case):
        _assert_same_outcome(case)

    @pytest.mark.parametrize("tol", APPROX_TOLERANCES)
    @pytest.mark.parametrize("name,case", APPROX_CASES, ids=[name for name, _ in APPROX_CASES])
    def test_approx_cases_equal_engine(self, name, case, tol):
        _assert_same_approx_outcome(case, tol)

    @pytest.mark.parametrize("case", _dudeney_cases())
    def test_dudeney_asset_in_exact_mode(self, case):
        # the reference prints long exact values in full, so it is held to
        # the verdict, the checks and the area
        accepted, failures, total = _outcome(*case)
        assert (accepted, failures, total) == _outcome(*case, verify=engine_verify)
        ref_accepted, ref_failures, ref_total = reference_verify_exact(*case)
        assert (accepted, total) == (ref_accepted, ref_total)
        assert [check for check, _ in failures] == [check for check, _ in ref_failures]

    def test_cases_reject_as_built(self):
        outcomes = {name: _outcome(*case) for name, case in CANCELLATION_CASES}
        row = outcomes["square-row-zero-rotation"]
        assert not row[0]
        assert {"ProperMotion", "AreaCoverage"} <= {check for check, _ in row[1]}
        assert outcomes["domino-vs-rectangle"][0] is True
        even = outcomes["even-cover"]
        assert not even[0]
        assert {"PairwiseDisjoint", "Containment"} <= {check for check, _ in even[1]}

    def test_accepted_fold_runs_no_broad_or_narrow_phase(self, monkeypatch):
        # in either mode: a lattice fold's placed vertices are small ints,
        # which doubles hold exactly, so its float edges cancel too
        f, c, p = _fold(random_polyomino(256, 0))
        calls = []

        def counting(name, real):
            def counted(*args):
                calls.append(name)
                return real(*args)
            return counted

        for name in ("overlapping_pairs", "overlap_sum2", "covered_by_cells2"):
            monkeypatch.setattr(overlap, name, counting(name, getattr(overlap, name)))
        for mode in ("exact", "approx"):
            assert verify_configuration(f, Configuration(c.placements, mode), p).accepted
        assert calls == []

    def test_translate_mutant_runs_the_engine_on_few_pieces(self, monkeypatch):
        f, c, p = _fold(random_polyomino(256, 0))
        sizes = []
        real = overlap.partition_residuals

        def counted(pieces, region):
            sizes.append(len(pieces))
            return real(pieces, region)

        monkeypatch.setattr(overlap, "partition_residuals", counted)
        k = len(f.pieces) // 3
        assert not verify_configuration(f, _moved(c, k, _translated(1, 0)), p).accepted
        assert len(sizes) == 1 and 0 < sizes[0] < 0.05 * len(f.pieces)

    def test_residual_engine_prunes_the_half_squares_of_a_cell(self, monkeypatch):
        # the diagonal prune, on the engine itself: the exact verify of an
        # intact fold no longer reaches the broad phase
        f, c, p = _fold(random_polyomino(256, 0))
        calls = []
        real = overlap.overlap_sum2
        monkeypatch.setattr(overlap, "overlap_sum2", lambda a, b: calls.append(b) or real(a, b))
        areas2, overlaps2, outside2 = overlap.partition_residuals(_placed(f, c), p.cells)
        assert calls == []
        assert all(area2 == 0 for _, _, area2 in overlaps2) and set(outside2) == {0}
        assert sum(areas2) == 2 * p.cell_count


def _chart_mutants(chart):
    """An exact chart intact, and with its middle piece dropped, duplicated
    and moved by 1/7 along x."""
    k = len(chart.pieces) // 2
    pieces, motions = list(chart.pieces), list(chart.target_motions)
    moved = SimplePolygon([v + point(Fraction(1, 7), 0) for v in pieces[k].vertices])

    def mutant(pieces, motions):
        return DissectionChart(pieces, motions, chart.source, chart.target)

    return [
        chart,
        mutant(pieces[:k] + pieces[k + 1:], motions[:k] + motions[k + 1:]),
        mutant(pieces + pieces[k:k + 1], motions + motions[k:k + 1]),
        mutant(pieces[:k] + [moved] + pieces[k + 1:], motions),
    ]


def _report(chart):
    report = verify_chart(chart, 1e-9)
    return report.accepted, report.failures, report.computed_area


@pytest.mark.parametrize("label", ["square2-vs-triangle", "random-5", "random-7", "random-19"])
def test_exact_chart_source_reports_as_on_the_engine(label):
    # an exact chart's source side runs on the engine against the source
    # polygon: each mutant is rejected; the pairs with the smallest charts
    _, pa, pb, width = next(case for case in criterion_8_cases() if case[0] == label)
    charts = [mutant for p in (pa, pb)
              for mutant in _chart_mutants(polygon_to_canonical_chart(p, width))]
    reports = [_report(chart) for chart in charts]
    assert [accepted for accepted, _, _ in reports] == [True, False, False, False] * 2


def test_every_check_on_cells_and_none_on_a_polygon_takes_the_certificate(monkeypatch):
    # the certificate serves exact and float pieces alike; a polygon's
    # sides meet piece edges at T-junctions, where nothing cancels, so
    # checks against a polygon go straight to the engine in either mode
    calls = []
    real = figures.cell_partition_residuals
    monkeypatch.setattr(figures, "cell_partition_residuals",
                        lambda pieces, cells: calls.append(cells) or real(pieces, cells))
    f, c, p = _fold(random_polyomino(64, 0))
    for mode in ("exact", "approx"):
        assert verify_configuration(f, Configuration(c.placements, mode), p).accepted
    assert calls == [p, p]
    _, pa, _, width = next(case for case in criterion_8_cases() if case[0] == "random-5")
    chart = polygon_to_canonical_chart(pa, width)
    assert chart.source_exact and verify_chart(chart).accepted
    for f, c, target in _dudeney_cases():
        for mode in ("exact", "approx"):
            verify_configuration(f, Configuration(c.placements, mode), target)
    assert calls == [p, p]


# ---------------------------------------------------------------------------
# int safety of the tuple core and the engine


def _assert_exact(values):
    for v in values:
        assert type(v) in (int, Fraction), f"{v!r} is a {type(v).__name__}"


def _flat(pts):
    return [v for p in pts for v in p]


def _as_fractions(pts):
    return [(Fraction(x), Fraction(y)) for x, y in pts]


def _ints_of(pts):
    return [(int(x), int(y)) for x, y in pts]


_ints = st.integers(-8, 8)


@st.composite
def int_convex_polygons(draw):
    points = draw(st.lists(st.tuples(_ints, _ints), min_size=3, max_size=8))
    try:
        hull = list(rational_convex_hull(points).vertices)
    except ValueError:  # collinear points
        assume(False)
    return _ints_of(hull)


@st.composite
def int_simple_polygons(draw):
    """Convex hulls, and histogram polygons (unit columns of random
    heights on one base line), which are not convex when heights vary."""
    if draw(st.booleans()):
        return draw(int_convex_polygons())
    heights = draw(st.lists(st.integers(1, 4), min_size=2, max_size=5))
    x0, y0 = draw(_ints), draw(_ints)
    k = len(heights)
    pts = [(x0, y0), (x0 + k, y0)]
    for i in reversed(range(k)):
        pts += [(x0 + i + 1, y0 + heights[i]), (x0 + i, y0 + heights[i])]
    return _ints_of(list(SimplePolygon([point(*p) for p in pts]).vertices))


class TestIntSafety:
    @settings(max_examples=300)
    @given(int_convex_polygons(), int_convex_polygons())
    def test_halfplane_and_convex_clip(self, subject, clipper):
        n = len(clipper)
        for i in range(n):
            e1, e2 = clipper[i], clipper[(i + 1) % n]
            out = _clip_convex_raw(subject, _edges([e1, e2])[:1])
            _assert_exact(_flat(out))
            assert out == _clip_convex_raw(_as_fractions(subject), _edges(_as_fractions([e1, e2]))[:1])
        out = _convex_clip(subject, clipper)
        _assert_exact(_flat(out))
        assert out == _convex_clip(_as_fractions(subject), _as_fractions(clipper))

    @settings(max_examples=200)
    @given(int_simple_polygons(), int_simple_polygons())
    def test_parts_and_overlap_sums(self, a, b):
        parts_a, parts_b = convex_parts(a), convex_parts(b)
        for part, box, edges in parts_a + parts_b:
            _assert_exact(_flat(part) + list(box) + [v for e in edges for v in e])
        area2 = overlap_sum2(parts_a, parts_b)
        _assert_exact([area2])
        assert area2 == overlap_sum2(convex_parts(_as_fractions(a)), convex_parts(_as_fractions(b)))

    @settings(max_examples=200)
    @given(int_simple_polygons(), st.sets(st.tuples(st.integers(-9, 8), st.integers(-9, 8)), min_size=1))
    def test_covered_by_cells(self, pts, cells):
        parts = convex_parts(pts)
        fparts = convex_parts(_as_fractions(pts))
        box, bounds = _bbox(pts), cell_bounds(cells)
        area2 = _signed_area2(pts)
        covered2 = covered_by_cells2(parts, box, area2, cells, bounds)
        _assert_exact([covered2])
        assert covered2 == covered_by_cells2(fparts, box, area2, cells, bounds)
        assert covered2 == 2 * _reference_covered_by_cells(fparts, box, cells)

    def test_covered_by_cells_inside_one_cell(self):
        # a piece inside one target cell takes the shortcut that returns its
        # own doubled area
        square = [(3, 4), (4, 4), (4, 5), (3, 5)]
        halves = [[(3, 4), (4, 4), (3, 5)], [(4, 5), (3, 5), (4, 4)]]
        for pts, area2 in [(square, 2)] + [(h, 1) for h in halves]:
            parts = convex_parts(pts)
            covered2 = covered_by_cells2(parts, _bbox(pts), area2, {(3, 4)}, (3, 4, 4, 5))
            assert type(covered2) is int and covered2 == area2
            assert covered_by_cells2(parts, _bbox(pts), area2, {(3, 5)}, (3, 5, 4, 6)) == 0


# ---------------------------------------------------------------------------
# the ear scan never stalls on a simple polygon, straight vertices included


@st.composite
def straight_vertex_polygons(draw):
    """An int_simple_polygons polygon, scaled by 6, with 1-3 lattice points
    inserted on random edges; in ints, or divided by 1-7 in Fractions."""
    pts = [(6 * x, 6 * y) for x, y in draw(int_simple_polygons())]
    for _ in range(draw(st.integers(1, 3))):
        n = len(pts)
        steps = [math.gcd(pts[(i + 1) % n][0] - x, pts[(i + 1) % n][1] - y)
                 for i, (x, y) in enumerate(pts)]
        i = draw(st.sampled_from([i for i in range(n) if steps[i] > 1]))
        (ax, ay), (bx, by) = pts[i], pts[(i + 1) % n]
        k = draw(st.integers(1, steps[i] - 1))
        pts.insert(i + 1, (ax + (bx - ax) // steps[i] * k, ay + (by - ay) // steps[i] * k))
    if draw(st.booleans()):
        q = draw(st.integers(1, 7))
        pts = [(Fraction(x, q), Fraction(y, q)) for x, y in pts]
    return pts


@st.composite
def unit_edge_outlines(draw):
    """The outline of a random hole-free polyomino with every unit vertex
    kept, so each straight run of the boundary is a run of straight
    vertices."""
    try:
        corners = boundary_polygon(
            random_polyomino(draw(st.integers(1, 24)), draw(st.integers(0, 10**6)))
        ).vertices
    except HolePresent:
        assume(False)
    loop = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        steps = abs(b.x - a.x) + abs(b.y - a.y)
        dx, dy = (b.x - a.x) // steps, (b.y - a.y) // steps
        loop += [(a.x + dx * k, a.y + dy * k) for k in range(steps)]
    return loop


def _scan_ear_clip(pts):
    """The ear clip before incremental ear status, verbatim: the reference
    for _ear_clip's default order.  It restarts its scan from vertex 0
    after each ear, so its worst case is cubic."""
    verts = list(pts)
    triangles = []
    while len(verts) > 3:
        n = len(verts)
        clipped = False
        for i in range(n):
            prv = verts[(i - 1) % n]
            cur = verts[i]
            nxt = verts[(i + 1) % n]
            if _orient(prv, cur, nxt) <= 0:
                continue
            ear = (prv, cur, nxt)
            blocked = False
            for v in verts:
                if v is prv or v is cur or v is nxt:
                    continue
                if v == prv or v == cur or v == nxt:
                    continue
                if _point_in_triangle_closed(ear, v):
                    blocked = True
                    break
            if blocked:
                continue
            triangles.append(ear)
            del verts[i]
            clipped = True
            break
        if not clipped:
            raise InvalidPolygon("no diagonal found; polygon is not simple")
    triangles.append(tuple(verts))
    return triangles


def _rescan_fattest(pts):
    """The reference for _ear_clip's fattest order: after each clip, test
    every vertex against all the others, and clip the ear of largest
    doubled area over squared longest side, the first of equal ones."""
    verts = list(pts)
    triangles = []
    while len(verts) > 3:
        n = len(verts)
        best = None
        for i in range(n):
            ear = verts[i - 1], verts[i], verts[(i + 1) % n]
            area2 = _orient(*ear)
            if area2 <= 0 or any(
                v not in ear and _point_in_triangle_closed(ear, v) for v in verts
            ):
                continue
            side2 = max((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
                        for p, q in zip(ear, ear[1:] + ear[:1]))
            if best is None or Fraction(area2, side2) > best[0]:
                best = Fraction(area2, side2), i, ear
        if best is None:
            raise InvalidPolygon("no diagonal found; polygon is not simple")
        triangles.append(best[2])
        del verts[best[1]]
    triangles.append(tuple(verts))
    return triangles


def _clip_outcome(clip, *args):
    """The triangles of clip(*args), or the text of its stall."""
    try:
        return clip(*args)
    except InvalidPolygon as exc:
        return str(exc)


def _turned(pts, angle, dx, dy):
    """The points turned by angle and shifted by (dx, dy), in floats."""
    c, s = math.cos(angle), math.sin(angle)
    return [(c * float(x) - s * float(y) + dx, s * float(x) + c * float(y) + dy)
            for x, y in pts]


def comb(teeth):
    """A comb of 4 * teeth + 2 int vertices, built unchecked: the base
    [0, 2 * teeth] x [0, 1] with a unit tooth on every other unit of its
    top edge.  A scan that restarts after each ear takes cubic time on
    it."""
    pts = [(0, 0)]
    for k in reversed(range(teeth)):
        pts += [(2 * k + 2, 1), (2 * k + 2, 2), (2 * k + 1, 2), (2 * k + 1, 1)]
    pts[1] = (2 * teeth, 0)  # the last tooth's right side runs down to the base
    pts.append((0, 1))
    return tuple.__new__(SimplePolygon, [Point2(x, y) for x, y in pts])


_shifts = st.floats(-100, 100)
_angles = st.floats(0, 2 * math.pi)
# lattice points in any order: mostly not simple, often with repeats
_lattice_lists = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=4, max_size=9)


class TestEarClip:
    @settings(max_examples=300)
    @given(st.one_of(straight_vertex_polygons(), unit_edge_outlines()))
    def test_no_stall_on_straight_vertices(self, pts):
        # the no-stall argument of _ear_clip's docstring, where straight
        # vertices could break it; it holds for either order
        for fattest in (False, True):
            tris = _ear_clip(pts, fattest)
            assert len(tris) == len(pts) - 2
            assert all(_orient(*t) > 0 for t in tris)
            assert sum(_signed_area2(t) for t in tris) == _signed_area2(pts)

    @settings(max_examples=500)
    @given(st.one_of(straight_vertex_polygons(), unit_edge_outlines()), _angles, _shifts, _shifts)
    def test_default_order_is_the_scan(self, pts, angle, dx, dy):
        # exact, and turned in floats, where rounding can stall both
        assert _ear_clip(pts) == _scan_ear_clip(pts)
        turned = _turned(pts, angle, dx, dy)
        assert _clip_outcome(_ear_clip, turned) == _clip_outcome(_scan_ear_clip, turned)

    @settings(max_examples=500)
    @given(_lattice_lists, _angles, _shifts, _shifts)
    def test_default_order_stalls_as_the_scan(self, pts, angle, dx, dy):
        for poly in (pts, _turned(pts, angle, dx, dy)):
            assert _clip_outcome(_ear_clip, poly) == _clip_outcome(_scan_ear_clip, poly)

    @settings(max_examples=300)
    @given(st.one_of(straight_vertex_polygons(), unit_edge_outlines(), _lattice_lists))
    def test_fattest_order_is_the_rescan(self, pts):
        assert _clip_outcome(_ear_clip, pts, True) == _clip_outcome(_rescan_fattest, pts)

    @pytest.mark.parametrize("fattest", [False, True], ids=["default", "fattest"])
    def test_comb_work_is_bounded(self, monkeypatch, fattest):
        # the scan made 2,002,496 triangle tests on this comb
        calls = 0
        test = exact_geom._point_in_triangle_closed

        def counted(tri, p):
            nonlocal calls
            calls += 1
            return test(tri, p)

        p = comb(500)
        monkeypatch.setattr(exact_geom, "_point_in_triangle_closed", counted)
        tris = _ear_clip(p, fattest)
        assert len(p) == 2002 and len(tris) == 2000
        assert sum(_signed_area2(t) for t in tris) == _signed_area2(p)
        assert calls <= 100_000


# ---------------------------------------------------------------------------
# one number rule: exact producers give ints and Fractions on int inputs


def _exact_leaves(obj):
    """Every number an exact producer returns, through tuples, lists,
    polygons, points, motions, rectangles, charts and reports; the
    numeric motions of charts are floats by design.  Records are
    tuples, so they are matched before the plain tuples."""
    if isinstance(obj, NumericMotion):
        return []
    if isinstance(obj, Point2):
        return [obj.x, obj.y]
    if isinstance(obj, RigidMotion):
        return [obj.rot_cos, obj.rot_sin, obj.translate.x, obj.translate.y]
    if isinstance(obj, RectangleForm):
        return _exact_leaves((obj.corners, obj.width_sq, obj.height_sq))
    if isinstance(obj, DissectionChart):
        return _exact_leaves((obj.pieces, obj.source, obj.target))
    if isinstance(obj, (list, tuple)):
        return [v for item in obj for v in _exact_leaves(item)]
    return [obj]


_INT_POLYGONS = {
    "odd-triangle": [(0, 0), (3, 0), (1, 2)],  # an odd doubled area
    "L-hexagon": [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)],
}


class TestOneNumberRule:
    @pytest.mark.parametrize("coords", _INT_POLYGONS.values(), ids=_INT_POLYGONS.keys())
    def test_exact_producers_on_int_inputs(self, coords):
        p = exact_geom.polygon(coords)
        shifted = [(x + 1, y) for x, y in coords]
        pieces, rect, motions = triangle_to_rectangle(triangulate_simple(p)[0])
        width_pieces, _, width_rect = rectangle_to_width(rect, 1)
        outputs = {
            "polygon_area": polygon_area(p),
            # against itself no clip cuts a part, so the doubled sum stays an int
            "polygon_overlap": [overlap.polygon_overlap(coords, pts) for pts in (coords, shifted)],
            "triangle_to_rectangle": (pieces, rect, motions),
            "rectangle_to_width": (width_pieces, width_rect),
            "polygon_to_canonical_chart": polygon_to_canonical_chart(p, 1),
        }
        for name, value in outputs.items():
            for v in _exact_leaves(value):
                assert type(v) in (int, Fraction), f"{name} gave {v!r}"

    def test_square_of_side_2_30_plus_1_overlaps_itself_exactly(self):
        # the doubled area is an int beyond 2**53, which a float halving rounds
        n = 2**30 + 1
        coords = [(0, 0), (n, 0), (n, n), (0, n)]
        assert overlap.polygon_overlap(coords, coords) == n * n
        square = exact_geom.polygon(coords)
        assert overlap.polygon_overlap(square, square) == n * n

    def test_boundary_polygon_and_computed_area(self):
        p = random_polyomino(30, 4)
        outline = boundary_polygon(p)
        _assert_exact(_exact_leaves(outline))
        f, c, _ = _fold(p)
        for target in (p, outline):
            _assert_exact([verify_configuration(f, c, target).computed_area])


def _rewritten_n_over_1(doc_json):
    """A copy of an HDJ document with every placement value written as
    the string "n/1"."""
    doc = json.loads(json.dumps(doc_json))
    for config in doc["configurations"]:
        for m in config["placements"]:
            for key in ("cos", "sin", "tx", "ty"):
                m[key] = f"{m[key]}/1"
    return doc


class TestNOver1Documents:
    @pytest.mark.parametrize("mutant", [False, True])
    def test_same_exact_report_as_the_int_document(self, mutant):
        f, c, p = _fold(random_polyomino(64, 5))
        if mutant:
            c = _moved(c, 20, _translated(1, 0))
        doc = figures.HdjFile(f, [figures.NamedConfiguration("fold", c)],
                              [figures.NamedTarget("target", p)])
        as_ints = figures.hdj_from_json(figures.hdj_to_json(doc))
        as_text = figures.hdj_from_json(_rewritten_n_over_1(figures.hdj_to_json(doc)))
        reports = [
            verify_configuration(d.figure, d.configurations[0].configuration, d.targets[0].data)
            for d in (as_ints, as_text)
        ]
        assert reports[0] == reports[1]
        assert reports[0].accepted is not mutant
        assert as_text.configurations[0].configuration == as_ints.configurations[0].configuration
