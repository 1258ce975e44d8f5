"""Acceptance suite.

One test per criterion, each printing a single PASS line when it
holds.  Tolerances are pinned here and nowhere else: chain folds are
exact (no tolerance), charts verify at 1e-9 relative, the shipped
square/triangle asset at 1e-6.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from chainfold.chain import dissect_pair, fold_chain, list_sample_shapes, load_sample_shape
from chainfold.cli import main
from chainfold.equidecompose import (
    overlay_charts,
    polygon_to_canonical_chart,
    verify_chart,
)
from chainfold.exact_geom import polygon_area
from chainfold.figures import figures_equal, load_hdj, verify_configuration
from chainfold.kinematics import sample_motion
from chainfold.numeric import apply_numeric, numeric_from_rigid
from chainfold.polyomino import parse_grid, random_polyomino
from conftest import (
    PENTOMINO_GRIDS,
    TETROMINO_GRIDS,
    canonical_cycle,
    criterion_8_cases,
    enumerate_half_square_cycles,
)

FOLD_TIME_LIMIT = 1.0
BIG_FOLD_TIME_LIMIT = 2.0
CHART_TIME_LIMIT = 5.0
CHART_TOLERANCE = 1e-9
KINEMATIC_TOLERANCE = 1e-9
ASSET_TOLERANCE = 1e-6


@pytest.fixture(scope="module")
def fold_corpus():
    """Folds and exact verification reports for the criterion-1 shapes."""
    shapes = [(name, parse_grid(grid)) for name, grid in TETROMINO_GRIDS.items()]
    shapes += [(name, parse_grid(grid)) for name, grid in PENTOMINO_GRIDS.items()]
    for n in range(1, 13):
        for seed in range(25):
            shapes.append((f"rand-{n}-{seed}", random_polyomino(n, seed)))
    corpus = []
    for label, p in shapes:
        start = time.perf_counter()
        fr = fold_chain(p)
        report = verify_configuration(fr.figure, fr.config, p)
        elapsed = time.perf_counter() - start
        corpus.append((label, p, fr, report, elapsed))
    return corpus


def test_criterion_1_piece_count_law(fold_corpus):
    for label, p, fr, report, elapsed in fold_corpus:
        assert len(fr.figure.pieces) == 2 * p.cell_count, label
        assert len(fr.config.placements) == 2 * p.cell_count, label
        assert report.accepted, (label, report.failures)
        assert elapsed < FOLD_TIME_LIMIT, (label, elapsed)
    print(f"\nACCEPTANCE 1 (piece-count law, {len(fold_corpus)} shapes): PASS")


def test_criterion_2_universality(fold_corpus):
    by_n = {}
    for label, p, fr, _, _ in fold_corpus:
        by_n.setdefault(p.cell_count, []).append((label, fr.figure))
    pairs = 0
    for n, group in by_n.items():
        _, reference = group[0]
        for label, figure in group[1:]:
            assert figures_equal(reference, figure), (n, label)
            pairs += 1
    print(f"\nACCEPTANCE 2 (universality, {pairs} same-n comparisons): PASS")


def test_criterion_3_pairwise_tetromino_dissections():
    shapes = {name: parse_grid(grid) for name, grid in TETROMINO_GRIDS.items()}
    count = 0
    for name_a, name_b in itertools.combinations(sorted(shapes), 2):
        hd = dissect_pair(shapes[name_a], shapes[name_b])
        report_a = verify_configuration(hd.figure, hd.config_a, hd.target_a)
        report_b = verify_configuration(hd.figure, hd.config_b, hd.target_b)
        assert report_a.accepted, (name_a, name_b, report_a.failures)
        assert report_b.accepted, (name_a, name_b, report_b.failures)
        count += 1
    assert count == 10
    print("\nACCEPTANCE 3 (all 10 tetromino pairs dissect and verify): PASS")


def test_criterion_4_128_piece_demonstration():
    shapes = [(f"rand64-{seed}", random_polyomino(64, seed)) for seed in range(20)]
    shapes += [(f"glyph-{name}", load_sample_shape(name)) for name in list_sample_shapes()]
    for label, p in shapes:
        assert p.cell_count == 64, label
        start = time.perf_counter()
        fr = fold_chain(p)
        report = verify_configuration(fr.figure, fr.config, p)
        elapsed = time.perf_counter() - start
        assert len(fr.figure.pieces) == 128, label
        assert report.accepted, (label, report.failures)
        assert elapsed < BIG_FOLD_TIME_LIMIT, (label, elapsed)
    print(f"\nACCEPTANCE 4 (128-piece folds, {len(shapes)} shapes under "
          f"{BIG_FOLD_TIME_LIMIT}s): PASS")


def _placed_geometry(doc_json):
    """Placed vertex lists of every piece, as exact rationals."""
    from chainfold.figures import hdj_from_json
    from chainfold.exact_geom import apply_motion

    doc = hdj_from_json(doc_json)
    config = doc.configurations[0].configuration
    out = []
    for piece, m in zip(doc.figure.pieces, config.placements):
        out.append(tuple(apply_motion(m, v).as_tuple() for v in piece.vertices))
    return tuple(out)


def test_criterion_5_mutation_rejection(tmp_path):
    rng = random.Random(20240517)
    bases = []
    for name, grid in TETROMINO_GRIDS.items():
        path = tmp_path / f"{name}.hdj"
        (tmp_path / f"{name}.txt").write_text(grid + "\n")
        assert main(["fold", "--in", str(tmp_path / f"{name}.txt"), "--out", str(path)]) == 0
        bases.append(json.loads(path.read_text()))

    checked = 0
    geometry_changing = 0
    for k in range(100):
        base = rng.choice(bases)
        doc = json.loads(json.dumps(base))  # deep copy
        kind = rng.choice(("translate", "rotate", "swap-hinges"))
        placements = doc["configurations"][0]["placements"]
        if kind == "translate":
            idx = rng.randrange(len(placements))
            placements[idx]["tx"] = str(Fraction(str(placements[idx]["tx"])) + 1)
        elif kind == "rotate":
            idx = rng.randrange(len(placements))
            cos = Fraction(str(placements[idx]["cos"]))
            sin = Fraction(str(placements[idx]["sin"]))
            placements[idx]["cos"] = str(-sin)
            placements[idx]["sin"] = str(cos)
        else:
            hinges = doc["figure"]["hinges"]
            i, j = rng.sample(range(len(hinges)), 2)
            hinges[i], hinges[j] = hinges[j], hinges[i]
            doc["figure"]["topology"] = "general"

        changed = _placed_geometry(doc) != _placed_geometry(base)

        path = tmp_path / f"mut{k}.hdj"
        path.write_text(json.dumps(doc))
        code = main(["verify", str(path)])
        if changed:
            geometry_changing += 1
            assert code == 1, (k, kind, code)
        else:
            assert code in (0, 1), (k, kind, code)
        checked += 1
    assert checked == 100
    assert geometry_changing >= 50
    print(f"\nACCEPTANCE 5 (mutation rejection, {geometry_changing}/100 "
          "geometry-changing mutants all rejected): PASS")


def test_criterion_6_oracle_equivalence():
    cases = [("monomino", "#"), ("domino-h", "##"), ("domino-v", "#\n#")]
    for label, grid in cases:
        p = parse_grid(grid)
        enumerated = enumerate_half_square_cycles(p)
        assert enumerated, label
        fold = canonical_cycle(list(fold_chain(p).placed))
        assert fold in enumerated, label
    print("\nACCEPTANCE 6 (fold is in the brute-force cycle set for n in {1,2}): PASS")


def test_criterion_7_kinematics_fidelity():
    shapes = {name: parse_grid(grid) for name, grid in TETROMINO_GRIDS.items()}
    pairs = list(itertools.combinations(sorted(shapes), 2))[:5]
    for name_a, name_b in pairs:
        hd = dissect_pair(shapes[name_a], shapes[name_b])
        cut = len(hd.figure.pieces) - 1
        samples = sample_motion(hd.figure, hd.config_a, hd.config_b, 60, cut)
        assert len(samples) == 60
        for endpoint, config in ((samples[0], hd.config_a), (samples[-1], hd.config_b)):
            worst = 0.0
            for piece, m, ref in zip(hd.figure.pieces, endpoint.placements, config.placements):
                ref_m = numeric_from_rigid(ref)
                for v in piece.vertices:
                    x1, y1 = apply_numeric(m, v.as_tuple())
                    x2, y2 = apply_numeric(ref_m, v.as_tuple())
                    worst = max(worst, math.hypot(x1 - x2, y1 - y2))
            assert worst <= KINEMATIC_TOLERANCE, (name_a, name_b, worst)
        for s in samples:
            for idx, h in enumerate(hd.figure.hinges):
                if idx == cut:
                    continue
                ax, ay = apply_numeric(
                    s.placements[h.piece_a],
                    hd.figure.pieces[h.piece_a].vertices[h.vertex_a].as_tuple(),
                )
                bx, by = apply_numeric(
                    s.placements[h.piece_b],
                    hd.figure.pieces[h.piece_b].vertices[h.vertex_b].as_tuple(),
                )
                assert math.hypot(ax - bx, ay - by) <= KINEMATIC_TOLERANCE
    print("\nACCEPTANCE 7 (60-frame kinematics endpoint+hinge fidelity <= 1e-9): PASS")


def test_criterion_8_bolyai_gerwien():
    cases = criterion_8_cases()
    for label, pa, pb, width in cases:
        assert polygon_area(pa) == polygon_area(pb), label
        start = time.perf_counter()
        chart_a = polygon_to_canonical_chart(pa, width)
        chart_b = polygon_to_canonical_chart(pb, width)
        mutual = overlay_charts(chart_a, chart_b)
        report = verify_chart(mutual, CHART_TOLERANCE)
        elapsed = time.perf_counter() - start
        assert report.accepted, (label, report.failures[:4])
        assert elapsed < CHART_TIME_LIMIT, (label, elapsed)
        # source-side piece areas sum exactly, as rationals
        for chart, source in ((chart_a, pa), (chart_b, pb)):
            total = sum((polygon_area(p) for p in chart.pieces), Fraction(0))
            assert total == polygon_area(source), label
            assert verify_chart(chart, CHART_TOLERANCE).accepted, label
    print(f"\nACCEPTANCE 8 (mutual charts verify at 1e-9, {len(cases)} pairs, "
          "exact rational source sums): PASS")


def test_criterion_9_dudeney_asset():
    from importlib import resources

    asset = resources.files("chainfold") / "assets" / "dudeney.hdj"
    doc = load_hdj(str(asset))
    assert len(doc.figure.pieces) == 4
    for nc, nt in doc.pairs():
        config = nc.configuration
        assert config.mode == "approx"
        assert config.effective_tolerance <= ASSET_TOLERANCE
        report = verify_configuration(doc.figure, config, nt.data)
        assert report.accepted, (nc.name, report.failures)
    triangle = doc.targets[0].data
    area = float(polygon_area(triangle))
    assert abs(area - 1.0) < 1e-9  # unit-area asset
    analytic = math.sqrt(4.0 * area / math.sqrt(3.0))
    assert abs(analytic - 1.519671) < 1e-6
    for i in range(3):
        a = triangle.vertices[i]
        b = triangle.vertices[(i + 1) % 3]
        side = math.sqrt(float((b - a).norm_sq()))
        assert abs(side - analytic) < ASSET_TOLERANCE
    print("\nACCEPTANCE 9 (shipped 4-piece square/triangle asset at 1e-6): PASS")
