import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfold.chain import load_sample_shape
from chainfold.cli import COMMANDS, MAX_FRAMES, MAX_GEN_CELLS, MAX_PIECE_FRAMES, build_parser, main
from chainfold.equidecompose import MAX_HALVINGS
from chainfold.exact_geom import RAT_MAX_DIGITS
from chainfold.figures import VerifyReport, load_hdj
from chainfold.kinematics import motion_frame_json, sample_motion
from chainfold.polyomino import parse_grid, to_grid
from chainfold.render import render_animation

L_GRID = "#.\n#.\n##\n"
T_GRID = "###\n.#.\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "L.txt").write_text(L_GRID)
    (tmp_path / "T.txt").write_text(T_GRID)
    (tmp_path / "sq.json").write_text("[[0,0],[2,0],[2,2],[0,2]]")
    (tmp_path / "tri.json").write_text("[[0,0],[4,0],[0,2]]")
    return tmp_path


class TestFold:
    def test_grid_to_verified_hdj(self, workdir, capsys):
        out = workdir / "L.hdj"
        assert main(["fold", "--in", str(workdir / "L.txt"), "--out", str(out)]) == 0
        assert main(["verify", str(out)]) == 0
        assert "ACCEPTED" in capsys.readouterr().out

    def test_cells_json_input(self, workdir):
        cells = workdir / "cells.json"
        cells.write_text(json.dumps({"cells": [[0, 0], [1, 0], [1, 1]]}))
        out = workdir / "c.hdj"
        assert main(["fold", "--cells", str(cells), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["figure"]["pieces"]) == 6
        assert "cell_map" in doc

    @pytest.mark.parametrize("inputs", [["--in", "L.txt", "--cells", "cells.json"], []],
                             ids=["both", "neither"])
    def test_both_or_neither_input_exits_2(self, workdir, capsys, inputs):
        (workdir / "cells.json").write_text(json.dumps({"cells": [[0, 0]]}))
        args = [str(workdir / a) if "." in a else a for a in inputs]
        out = workdir / "x.hdj"
        assert main(["fold", *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: give exactly one of --in/--cells\n"
        assert not out.exists()

    def test_disconnected_grid_exits_2(self, workdir):
        bad = workdir / "bad.txt"
        bad.write_text("#.#\n")
        assert main(["fold", "--in", str(bad), "--out", str(workdir / "x.hdj")]) == 2

    def test_glyph_has_128_pieces(self, workdir):
        from chainfold.chain import load_sample_shape
        from chainfold.polyomino import to_grid

        grid = workdir / "I.txt"
        grid.write_text(to_grid(load_sample_shape("I")) + "\n")
        out = workdir / "I.hdj"
        assert main(["fold", "--in", str(grid), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["figure"]["pieces"]) == 128

    def test_svg_side_output(self, workdir):
        out = workdir / "L.hdj"
        svg = workdir / "L.svg"
        assert main(["fold", "--in", str(workdir / "L.txt"), "--out", str(out),
                     "--svg", str(svg)]) == 0
        assert svg.read_text().startswith("<?xml")

    def test_svg_of_cells_beyond_the_float_range_exits_2_and_writes_nothing(self, workdir, capsys):
        # the fold is exact, but its SVG needs floats; no HDJ is written either
        cells = workdir / "huge.json"
        cells.write_text(json.dumps({"cells": [[10**400, 0], [10**400 + 1, 0]]}))
        out, svg = workdir / "h.hdj", workdir / "h.svg"
        assert main(["fold", "--cells", str(cells), "--out", str(out), "--svg", str(svg)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists() and not svg.exists()


class TestDissect:
    def test_pair(self, workdir):
        out = workdir / "pair.hdj"
        assert main(["dissect", "--a", str(workdir / "L.txt"), "--b", str(workdir / "T.txt"),
                     "--out", str(out)]) == 0
        assert main(["verify", str(out)]) == 0

    def test_area_mismatch_exits_2(self, workdir):
        three = workdir / "three.txt"
        three.write_text("###\n")
        assert main(["dissect", "--a", str(three), "--b", str(workdir / "T.txt"),
                     "--out", str(workdir / "x.hdj")]) == 2

    def test_same_shape(self, workdir):
        out = workdir / "same.hdj"
        assert main(["dissect", "--a", str(workdir / "L.txt"), "--b", str(workdir / "L.txt"),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["configurations"][0]["placements"] == doc["configurations"][1]["placements"]


class TestVerify:
    def test_corrupted_translation_exits_1(self, workdir, capsys):
        out = workdir / "L.hdj"
        main(["fold", "--in", str(workdir / "L.txt"), "--out", str(out)])
        doc = json.loads(out.read_text())
        doc["configurations"][0]["placements"][0]["tx"] = 99
        out.write_text(json.dumps(doc))
        assert main(["verify", str(out)]) == 1
        assert "HingeCoincidence" in capsys.readouterr().out

    def test_malformed_file_exits_2(self, workdir):
        bad = workdir / "bad.hdj"
        bad.write_text("{not json")
        assert main(["verify", str(bad)]) == 2

    def test_dudeney_asset(self, workdir):
        from importlib import resources

        asset = resources.files("chainfold") / "assets" / "dudeney.hdj"
        assert main(["verify", str(asset), "--mode", "approx", "--tol", "1e-6"]) == 0

    @pytest.mark.parametrize("mode", [(), ("--mode", "exact"), ("--mode", "approx")])
    def test_collapsed_dudeney_piece_exits_1(self, workdir, capsys, mode):
        # the zero (cos, sin) collapses a non-triangle piece to a point,
        # which has no convex parts to clip
        from importlib import resources

        asset = resources.files("chainfold") / "assets" / "dudeney.hdj"
        doc = json.loads(asset.read_text())
        doc["configurations"][0]["placements"][0].update(cos=0, sin=0)
        assert _verify_doc(workdir, doc, *mode) == 1
        out, err = capsys.readouterr()
        assert "internal error" not in err
        assert {"ProperMotion", "AreaCoverage"} <= {
            line.split(":")[0].strip() for line in out.splitlines()
        }

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_exits_2(self, workdir, capsys, tol):
        # a moved placement passed at nan and inf, and -1 rejected an intact fold
        doc = _tromino_hdj(workdir)
        assert _verify_doc(workdir, doc, "--mode", "approx", "--tol", tol) == 2
        doc["configurations"][0]["placements"][1]["tx"] = "1/1000"
        assert _verify_doc(workdir, doc, "--mode", "approx") == 1
        assert _verify_doc(workdir, doc, "--mode", "approx", "--tol", tol) == 2
        assert "tolerance must be finite and >= 0" in capsys.readouterr().err

    def test_far_away_placements_exit_1_in_approx_mode(self, workdir, capsys):
        # the placed pieces' areas overflow to inf - inf = nan in doubles
        doc = _tromino_hdj(workdir)
        for m in doc["configurations"][0]["placements"]:
            for key in ("tx", "ty"):
                m[key] = str(Fraction(m[key]) + 10**160)
        assert _verify_doc(workdir, doc, "--mode", "approx") == 1
        assert "Containment" in capsys.readouterr().out
        assert _verify_doc(workdir, doc) == 1

    @pytest.mark.parametrize("tol", [True, "0.5", 10**400], ids=["true", "string", "10**400"])
    def test_tolerance_that_is_not_a_finite_json_number_exits_2(self, workdir, capsys, tol):
        # true was read as 1.0 and "0.5" as 0.5, which accepted the moved
        # piece; 10**400 failed in float() with an internal error
        from importlib import resources

        asset = resources.files("chainfold") / "assets" / "dudeney.hdj"
        doc = json.loads(asset.read_text())
        square = doc["configurations"][1]
        square["placements"][0]["tx"] += 0.3
        assert _verify_doc(workdir, doc) == 1
        square["tolerance"] = tol
        assert _verify_doc(workdir, doc) == 2
        err = capsys.readouterr().err
        assert "bad configuration encoding" in err and "internal error" not in err

    def test_nan_tolerance_in_document_exits_2(self, workdir, capsys):
        doc = _tromino_hdj(workdir)
        config = doc["configurations"][0]
        config.update(mode="approx", tolerance=float("nan"))
        config["placements"][1]["tx"] = "1/1000"
        assert _verify_doc(workdir, doc) == 2
        assert "tolerance must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("record", ["configurations", "targets"])
    @pytest.mark.parametrize("name", [None, 5, ["x"]], ids=["null", "5", "list"])
    def test_name_that_is_not_a_json_string_exits_2(self, workdir, capsys, record, name):
        # null was read as the text "None" and ["x"] as "['x']"; verify
        # accepted the document and a re-save wrote that text
        doc = _tromino_hdj(workdir)
        doc[record][0]["name"] = name
        assert _verify_doc(workdir, doc) == 2
        err = capsys.readouterr().err
        assert f"name must be a string, got {name!r}" in err and "internal error" not in err
        del doc[record][0]["name"]  # a missing name reads as ""
        assert _verify_doc(workdir, doc) == 0
        assert "''" in capsys.readouterr().out

    @pytest.mark.parametrize("mode, placement, extra", [
        ("exact", {"cos": "-23/265", "sin": "264/265", "tx": 7, "ty": 0}, ("--mode", "approx")),
        ("approx", dict(zip(("cos", "sin", "tx", "ty"), (
            0.32312834542402913, -0.9463551512955003, -69.27954711239138, 0.8099981110470935,
        ))), ()),
    ], ids=["exact-motion-in-approx-mode", "approx-document"])
    def test_placed_piece_that_is_not_simple_exits_1(self, workdir, capsys, mode, placement, extra):
        # exactly simple, but its top chain lies within 1e-15 of a line, so
        # the piece placed in floats cannot be cut into convex parts
        piece = [["1/2", -1], ["3/4", "-1/100000000000000000"], ["1/2", 0],
                 ["1/4", "3/10000000000000000"], [0, 0]]
        doc = {
            "figure": {"pieces": [piece], "hinges": [], "topology": "general"},
            "configurations": [{"name": "c", "mode": mode, "placements": [placement]}],
            "targets": [{"name": "t", "kind": "polygon", "data": [[0, 0], [1, 0], [0, 1]]}],
        }
        assert _verify_doc(workdir, doc, *extra) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines() == [
            "configuration 'c' vs target 't': REJECTED",
            "  PairwiseDisjoint: piece 0 cannot be cut into convex parts:"
            " no diagonal found; polygon is not simple",
            "  AreaCoverage: piece areas sum to 0.375, target 0.5, off by 0.125",
        ]


class TestAnimate:
    def test_pair_animation(self, workdir):
        pair = workdir / "pair.hdj"
        main(["dissect", "--a", str(workdir / "L.txt"), "--b", str(workdir / "T.txt"),
              "--out", str(pair)])
        anim = workdir / "anim.svg"
        report = workdir / "ov.json"
        assert main(["animate", str(pair), "--frames", "12", "--out", str(anim),
                     "--report-overlaps", str(report)]) == 0
        assert anim.read_text().count("<animate ") == 8
        frames = json.loads(report.read_text())["frames"]
        assert len(frames) == 12

    def test_one_configuration_exits_2(self, workdir, capsys):
        fold = workdir / "L.hdj"
        assert main(["fold", "--in", str(workdir / "L.txt"), "--out", str(fold)]) == 0
        capsys.readouterr()
        out = workdir / "x.svg"
        assert main(["animate", str(fold), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {fold}: animation needs a document with two configurations\n"
        )
        assert not out.exists()

    def test_one_frame_exits_2(self, workdir):
        pair = workdir / "pair.hdj"
        main(["dissect", "--a", str(workdir / "L.txt"), "--b", str(workdir / "T.txt"),
              "--out", str(pair)])
        assert main(["animate", str(pair), "--frames", "1",
                     "--out", str(workdir / "x.svg")]) == 2

    @pytest.mark.parametrize("option,value,text", [
        ("--frames", "1", "need at least 2 frames, got 1"),
        ("--cut", "99", "cut hinge 99 out of range"),
    ], ids=["one-frame", "cut-out-of-range"])
    def test_sampler_rejects_frames_and_cut(self, workdir, capsys, option, value, text):
        # the 8-piece L-T pair; the texts are those the sampler raises
        out = workdir / "x.svg"
        assert main(["animate", str(_pair_hdj(workdir)), option, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {text}\n"
        assert not out.exists()

    def test_one_frame_of_a_general_figure_names_the_topology(self, workdir, capsys):
        from importlib import resources

        asset = resources.files("chainfold") / "assets" / "dudeney.hdj"
        assert main(["animate", str(asset), "--frames", "1",
                     "--out", str(workdir / "x.svg")]) == 2
        assert capsys.readouterr().err == "error: figure is not a hinged cycle\n"

    def test_frames_above_cap_exit_2_before_any_work(self, workdir, capsys):
        # the HDJ file does not exist: the cap is checked before it is read
        out = workdir / "x.svg"
        assert main(["animate", str(workdir / "missing.hdj"), "--frames", str(MAX_FRAMES + 1),
                     "--out", str(out)]) == 2
        assert f"at most {MAX_FRAMES} frames" in capsys.readouterr().err
        assert not out.exists()

    def test_pieces_times_frames_above_cap_exit_2_before_any_sampling(
            self, workdir, capsys, monkeypatch):
        # two 128-cell shapes dissect into 256 pieces: 512 frames reach the cap
        for name, seed in (("a", "0"), ("b", "1")):
            assert main(["gen", "--cells", "128", "--seed", seed,
                         "--out", str(workdir / f"{name}.txt")]) == 0
        pair = workdir / "big.hdj"
        assert main(["dissect", "--a", str(workdir / "a.txt"), "--b", str(workdir / "b.txt"),
                     "--out", str(pair)]) == 0
        assert len(load_hdj(pair).figure.pieces) * 512 == MAX_PIECE_FRAMES
        capsys.readouterr()

        def refuse(*args):
            raise ValueError("sample_motion was called")

        monkeypatch.setattr("chainfold.cli.sample_motion", refuse)
        out, report = workdir / "x.svg", workdir / "x.json"
        animate = ["animate", str(pair), "--out", str(out), "--report-overlaps", str(report)]
        assert main(animate + ["--frames", "513"]) == 2
        assert capsys.readouterr().err == (
            f"error: at most {MAX_PIECE_FRAMES} pieces times frames, "
            "got 256 pieces and 513 frames\n")
        assert main(animate + ["--frames", "512"]) == 2  # at the cap, sampling starts
        assert capsys.readouterr().err == "error: sample_motion was called\n"
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("where", ["placement", "vertex"])
    def test_value_outside_the_float_range_exits_2(self, workdir, capsys, where):
        # a 3-cell pair; verify --mode approx exits 2 on the same documents
        (workdir / "L3.txt").write_text("##\n#.\n")
        (workdir / "I3.txt").write_text("###\n")
        pair = workdir / "pair.hdj"
        assert main(["dissect", "--a", str(workdir / "L3.txt"), "--b", str(workdir / "I3.txt"),
                     "--out", str(pair)]) == 0
        doc = json.loads(pair.read_text())
        if where == "placement":  # of piece 0, the root of the default cut
            doc["configurations"][0]["placements"][0]["tx"] = "1e400"
        else:  # the piece stays counter-clockwise
            doc["figure"]["pieces"][0][1] = ["1e400", 0]
        pair.write_text(json.dumps(doc))
        capsys.readouterr()
        out = workdir / "x.svg"
        assert main(["animate", str(pair), "--out", str(out)]) == 2
        assert "int too large to convert to float" in capsys.readouterr().err
        assert not out.exists()
        assert main(["verify", "--mode", "approx", str(pair)]) == 2

    def test_tolerance_beyond_the_float_range_exits_2(self, workdir, capsys):
        pair = workdir / "pair.hdj"
        assert main(["dissect", "--a", str(workdir / "L.txt"), "--b", str(workdir / "T.txt"),
                     "--out", str(pair)]) == 0
        doc = json.loads(pair.read_text())
        doc["configurations"][0]["tolerance"] = 10**400
        pair.write_text(json.dumps(doc))
        capsys.readouterr()
        out = workdir / "x.svg"
        assert main(["animate", str(pair), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "int too large to convert to float" in err and "internal error" not in err
        assert not out.exists()

    def test_rejected_end_exits_1_and_writes_nothing(self, workdir, capsys):
        # a finite but far-off root placement samples without overflow;
        # verify rejects the configuration, and so must animate
        (workdir / "L3.txt").write_text("##\n#.\n")
        (workdir / "I3.txt").write_text("###\n")
        pair = workdir / "pair.hdj"
        assert main(["dissect", "--a", str(workdir / "L3.txt"), "--b", str(workdir / "I3.txt"),
                     "--out", str(pair)]) == 0
        doc = json.loads(pair.read_text())
        doc["configurations"][0]["placements"][0]["tx"] = "1e308"
        pair.write_text(json.dumps(doc))
        capsys.readouterr()
        out, report = workdir / "x.svg", workdir / "ov.json"
        assert main(["animate", str(pair), "--out", str(out),
                     "--report-overlaps", str(report)]) == 1
        err = capsys.readouterr().err
        assert "configuration 'fold_a' vs target 'a': REJECTED" in err
        assert "HingeCoincidence" in err
        assert not out.exists() and not report.exists()
        assert main(["verify", str(pair)]) == 1

    def test_identity_pair_no_overlaps(self, workdir):
        pair = workdir / "same.hdj"
        main(["dissect", "--a", str(workdir / "L.txt"), "--b", str(workdir / "L.txt"),
              "--out", str(pair)])
        report = workdir / "ov.json"
        assert main(["animate", str(pair), "--frames", "8", "--out", str(workdir / "a.svg"),
                     "--report-overlaps", str(report)]) == 0
        frames = json.loads(report.read_text())["frames"]
        assert all(f["overlaps"] == [] for f in frames)


# SHA-256 of render_animation for the 128-piece L-T glyph pair at 6 frames;
# any change to the animation's bytes fails the pin
GLYPH_ANIMATION_SHA256 = "c01e2bec2504f360d54f290a584eb2b46290a37c44a0ea4ac289b9df5e752c76"


class TestGlyphAnimation:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("glyphs")
        for name in "LT":
            (work / f"{name}.txt").write_text(to_grid(load_sample_shape(name)) + "\n")
        pair, svg, report = work / "L-T.hdj", work / "L-T.svg", work / "L-T.json"
        assert main(["dissect", "--a", str(work / "L.txt"), "--b", str(work / "T.txt"),
                     "--out", str(pair)]) == 0
        assert main(["animate", str(pair), "--frames", "6", "--out", str(svg),
                     "--report-overlaps", str(report)]) == 0
        doc = load_hdj(pair)
        configs = [nc.configuration for nc in doc.configurations]
        samples = sample_motion(doc.figure, configs[0], configs[1], 6)
        return doc, samples, svg, report

    def test_svg_matches_pinned_digest(self, run):
        doc, samples, svg, _ = run
        text = render_animation(samples, figure=doc.figure)
        assert hashlib.sha256(text.encode()).hexdigest() == GLYPH_ANIMATION_SHA256
        assert svg.read_text() == text

    def test_report_streams_one_frame_per_line(self, run):
        _, samples, _, report = run
        lines = report.read_text().split("\n")
        assert lines[0] == '{"frames": [' and lines[-2:] == ["]}", ""]
        frames = lines[1:-2]
        assert len(frames) == 6
        for k, line in enumerate(frames):
            frame = json.loads(line.rstrip(","))
            assert frame == motion_frame_json(samples[k])
        with open(report, encoding="utf-8") as fh:
            assert json.load(fh) == {"frames": [motion_frame_json(s) for s in samples]}
        assert any(s.overlaps for s in samples)  # the report is not trivially empty


# SHA-256 of the overlap report of animate --frames 12 for each pair of the
# I, L, O and T glyphs; its areas come from the float clip kernel, so any
# change to the kernel's arithmetic or its order fails the pin
GLYPH_REPORT_SHA256 = {
    "I-L": "efcbc9f39d6ec963c371d04df6f8bb6a6eb51b7470f87c33d86eca12b65deaaf",
    "I-O": "99d673fbb3f643482aecec3fdbdfad034cb14460105e689cbbf816fc327648cd",
    "I-T": "18d5cdff58a3fa8c6a0592fad38d2b41b92d5ec4080d345ebe4c6213ef3be384",
    "L-O": "3968fd91a43758102e34a3a5913fbeb77b2874ab7ae86c6f9a22f1777f30b3b2",
    "L-T": "eb8b6b922ed76997ad92df2e00c212668414fa76b17e076efcad9b4fa3ba2774",
    "O-T": "d3ee83f0369f247a99a0a0fe12e1a58ac19d23ee8844360494fa062e3c5b3933",
}


@pytest.mark.parametrize("pair", sorted(GLYPH_REPORT_SHA256))
def test_overlap_report_matches_pinned_digest(tmp_path, pair):
    a, b = pair.split("-")
    for name in (a, b):
        (tmp_path / f"{name}.txt").write_text(to_grid(load_sample_shape(name)) + "\n")
    doc, svg, report = tmp_path / "pair.hdj", tmp_path / "pair.svg", tmp_path / "pair.json"
    assert main(["dissect", "--a", str(tmp_path / f"{a}.txt"), "--b", str(tmp_path / f"{b}.txt"),
                 "--out", str(doc)]) == 0
    assert main(["animate", str(doc), "--frames", "12", "--out", str(svg),
                 "--report-overlaps", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == GLYPH_REPORT_SHA256[pair]


class TestBg:
    def test_square_vs_triangle(self, workdir):
        out = workdir / "chart.json"
        svg = workdir / "chart.svg"
        assert main(["bg", "--a", str(workdir / "sq.json"), "--b", str(workdir / "tri.json"),
                     "--width", "2", "--out", str(out), "--svg", str(svg)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["pieces"]) == len(doc["target_motions"])

    def test_json_object_polygon_exits_2(self, workdir, capsys):
        obj = workdir / "obj.json"
        obj.write_text('{"points": [[0,0],[2,0],[2,2],[0,2]]}')
        out = workdir / "x.json"
        assert main(["bg", "--a", str(obj), "--b", str(workdir / "sq.json"),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {obj}: expected a JSON array of [x, y] points\n"
        assert not out.exists()

    def test_unequal_areas_exit_2(self, workdir):
        small = workdir / "small.json"
        small.write_text("[[0,0],[1,0],[1,1],[0,1]]")
        assert main(["bg", "--a", str(workdir / "sq.json"), "--b", str(small),
                     "--out", str(workdir / "x.json")]) == 2

    @pytest.mark.parametrize("width", ["1e-300", "1e300"])
    def test_width_beyond_the_strip_cap_exits_2_quickly(self, workdir, capsys, width):
        # 2**997 halvings or doublings of a side: rejected before any strip is built
        (workdir / "t2.json").write_text("[[0,0],[2,0],[0,2]]")
        (workdir / "r2.json").write_text("[[0,0],[2,0],[2,1],[0,1]]")
        out = workdir / "o.json"
        start = time.perf_counter()
        assert main(["bg", "--a", str(workdir / "t2.json"), "--b", str(workdir / "r2.json"),
                     "--width", width, "--out", str(out)]) == 2
        assert time.perf_counter() - start < 2
        assert f"at most 2**{MAX_HALVINGS}" in capsys.readouterr().err
        assert not out.exists()

    def test_sliver_charts_in_bounded_pieces(self, workdir):
        # no candidate rotation lays the sliver's long sides flat; its
        # trapezoid is cut into 2 bands across its flatter side, not
        # 31,001 horizontal ones
        (workdir / "sliver.json").write_text('[[0,0],[1000,31],[1000,"31002/1000"]]')
        (workdir / "unit.json").write_text("[[0,0],[1,0],[1,1],[0,1]]")
        out = workdir / "o.json"
        start = time.perf_counter()
        assert main(["bg", "--a", str(workdir / "sliver.json"), "--b", str(workdir / "unit.json"),
                     "--width", "1", "--out", str(out)]) == 0
        assert time.perf_counter() - start < 10
        assert len(json.loads(out.read_text())["pieces"]) <= 2258

    def test_trapezoid_past_the_piece_cap_exits_2_quickly(self, workdir, capsys):
        # a sliver 4096 long: every way to cut it needs 4,096,001 bands or
        # over 2**10 strips
        (workdir / "sliver.json").write_text('[[0,0],[1,4096],[1,"4096002/1000"]]')
        (workdir / "strip.json").write_text('[[0,0],[1,0],[1,"1/1000"],[0,"1/1000"]]')
        out = workdir / "o.json"
        start = time.perf_counter()
        assert main(["bg", "--a", str(workdir / "sliver.json"), "--b", str(workdir / "strip.json"),
                     "--width", "1", "--out", str(out)]) == 2
        assert time.perf_counter() - start < 2
        assert f"at most 9 * 2**{MAX_HALVINGS}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("width", ["abc", "1/0", "nan"])
    def test_a_width_that_is_no_rational_names_the_option(self, workdir, capsys, width):
        out = workdir / "o.json"
        assert main(["bg", "--a", str(workdir / "sq.json"), "--b", str(workdir / "tri.json"),
                     "--width", width, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --width: ") and repr(width) in err
        assert not out.exists()

    def test_areas_with_thousands_of_digits_differ_by_their_digit_counts(self, workdir, capsys):
        # a convex 9-gon whose vertices have 998-digit denominators: its
        # area's has about 9,000 digits, beyond what str() of an int allows
        corners = [(39, 20), (35, 32), (23, 39), (11, 36), (2, 26), (2, 14), (10, 4), (23, 1),
                   (35, 8)]
        dens = [10**997 + k for k in range(1, 10)]
        (workdir / "tiny.json").write_text(
            json.dumps([[f"{x}/{d}", f"{y}/{d}"] for (x, y), d in zip(corners, dens)])
        )
        (workdir / "unit.json").write_text("[[0,0],[1,0],[1,1],[0,1]]")
        assert main(["bg", "--a", str(workdir / "tiny.json"), "--b", str(workdir / "unit.json"),
                     "--out", str(workdir / "c.json")]) == 2
        err = capsys.readouterr().err
        assert "areas differ: ~" in err and " digits) vs 1\n" in err
        assert len(err) < 300

    @pytest.mark.parametrize("scale, width", [
        ("e400", "1"), ("", "1e400"), ("e-400", "1"), ("", "1e-400"),
    ])
    def test_outside_the_float_range_exits_2_quickly(self, workdir, capsys, scale, width):
        # the motions are floats: a coordinate or width beyond their range, or
        # one that rounds to 0, is invalid input, not an internal error
        (workdir / "t2.json").write_text(f"[[0,0],[2{scale},0],[0,2{scale}]]")
        (workdir / "r2.json").write_text(f"[[0,0],[2{scale},0],[2{scale},1{scale}],[0,1{scale}]]")
        start = time.perf_counter()
        assert main(["bg", "--a", str(workdir / "t2.json"), "--b", str(workdir / "r2.json"),
                     "--width", width, "--out", str(workdir / "o.json")]) == 2
        assert time.perf_counter() - start < 2
        assert "outside the float range" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [1, 5, 7])
    def test_rejected_chart_lists_its_first_five_failures(self, workdir, capsys, monkeypatch, count):
        failures = [("TargetOverlap", f"pieces 0 and {i} overlap by 0.5") for i in range(count)]
        monkeypatch.setattr("chainfold.cli.verify_chart",
                            lambda chart, tol: VerifyReport(failures, 4.0))
        out, svg = workdir / "chart.json", workdir / "chart.svg"
        assert main(["bg", "--a", str(workdir / "sq.json"), "--b", str(workdir / "tri.json"),
                     "--width", "2", "--out", str(out), "--svg", str(svg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: mutual chart failed verification:",
            *(f"  TargetOverlap: pieces 0 and {i} overlap by 0.5" for i in range(min(count, 5))),
            *(["  … 2 more"] if count == 7 else []),
        ]
        assert not out.exists() and not svg.exists()

    def test_square_vs_itself(self, workdir):
        out = workdir / "self.json"
        assert main(["bg", "--a", str(workdir / "sq.json"), "--b", str(workdir / "sq.json"),
                     "--width", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        total = sum(
            _shoelace(piece) for piece in doc["pieces"]
        )
        assert abs(total - 4.0) < 1e-9


def _shoelace(piece):
    pts = [(float(x), float(y)) for x, y in piece]
    n = len(pts)
    return abs(sum(pts[i][0] * pts[(i + 1) % n][1] - pts[(i + 1) % n][0] * pts[i][1]
                   for i in range(n))) / 2


class TestGen:
    def test_monomino(self, workdir):
        out = workdir / "g.txt"
        assert main(["gen", "--cells", "1", "--seed", "5", "--out", str(out)]) == 0
        assert out.read_text() == "#\n"

    def test_deterministic(self, workdir):
        f1, f2 = workdir / "g1.txt", workdir / "g2.txt"
        main(["gen", "--cells", "9", "--seed", "3", "--out", str(f1)])
        main(["gen", "--cells", "9", "--seed", "3", "--out", str(f2)])
        assert f1.read_text() == f2.read_text()

    def test_zero_cells_exits_2(self, workdir):
        assert main(["gen", "--cells", "0", "--seed", "1", "--out", str(workdir / "x")]) == 2

    def test_cells_above_cap_exit_2(self, workdir, capsys):
        out = workdir / "x.txt"
        assert main(["gen", "--cells", str(MAX_GEN_CELLS + 1), "--out", str(out)]) == 2
        assert f"at most {MAX_GEN_CELLS} cells" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_then_fold_round_trip(self, workdir):
        grid = workdir / "g.txt"
        main(["gen", "--cells", "12", "--seed", "7", "--out", str(grid)])
        assert main(["fold", "--in", str(grid), "--out", str(workdir / "g.hdj")]) == 0


@pytest.mark.parametrize(
    "command, text",
    [
        ("animate", f"2 to {MAX_FRAMES}"),
        ("gen", f"1 to {MAX_GEN_CELLS}"),
        ("bg", f"2**{MAX_HALVINGS} strips"),
    ],
)
def test_caps_in_help(command, text, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert text in capsys.readouterr().out


_PARSER_ARGVS = [
    [], ["-h"], *([name, "-h"] for name, *_ in COMMANDS), ["nope"], ["verify", "x.hdj", "--bogus"],
    ["fold", "--in", "L.txt"], ["verify", "x.hdj", "--mode", "bogus"],
    ["gen", "--cells", "x", "--out", "g.txt"], ["gen", "--cells", "3", "--out", "g.txt"],
    ["verify", "fold"], ["--", "fold"],
]


@pytest.mark.parametrize("argv", _PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "none")
def test_the_parser_of_one_command_acts_as_the_parser_of_all(
        tmp_path, monkeypatch, capsys, argv):
    """build_parser(argv) builds only argv[0]'s subparser when it names a
    command; exit code, output and parse are as with all of them built."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")

    def outcome(build):
        monkeypatch.setattr("chainfold.cli.build_parser", build)
        results = []
        for run in (main, lambda argv: build(argv).parse_args(argv)):
            try:
                results.append(run(list(argv)))
            except SystemExit as exc:
                results.append(exc.code)
            results.extend(capsys.readouterr())
        return results

    subparsers = next(a for a in build_parser(argv)._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert len(subparsers.choices) == (1 if argv and argv[0] in subparsers.choices else 6)
    assert outcome(build_parser) == outcome(lambda argv: build_parser())


@pytest.mark.parametrize("argv, text", [
    ([], "error: the following arguments are required: command\n"),
    (["nope"], "error: argument command: invalid choice: "),
    (["verify", "x.hdj", "--bogus"], "usage: chainfold [-h] {fold,dissect,verify,animate,bg,gen} "
                                     "...\nchainfold: error: unrecognized arguments: --bogus\n"),
], ids=["none", "nope", "bogus"])
def test_argparse_errors_name_the_command_argument_and_every_command(capsys, argv, text):
    with pytest.raises(SystemExit):
        main(argv)
    assert text in capsys.readouterr().err


class TestConsoleEntry:
    def test_subprocess_smoke(self, workdir):
        result = subprocess.run(
            [sys.executable, "-m", "chainfold.cli", "gen", "--cells", "4",
             "--seed", "1", "--out", str(workdir / "s.txt")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0

    @pytest.mark.parametrize("buffered", [True, False])
    def test_closed_stdout_exits_2(self, workdir, buffered):
        # an unwritable output exits 2, also when it is stdout, whether the
        # write fails at once or at the flush of a buffered stream
        hdj = workdir / "L.hdj"
        assert main(["fold", "--in", str(workdir / "L.txt"), "--out", str(hdj)]) == 0
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "chainfold.cli", "verify", str(hdj)],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 2
        assert "internal error" not in result.stderr
        assert "Exception ignored" not in result.stderr


class TestExactDecimals:
    def test_decimal_square_matches_rational_triangle(self, workdir):
        square = workdir / "dec.json"
        square.write_text("[[0,0],[0.1,0],[0.1,0.1],[0,0.1]]")
        tri = workdir / "rat.json"
        tri.write_text('[[0,0],["1/5",0],[0,"1/10"]]')
        out = workdir / "dec-chart.json"
        assert main(["bg", "--a", str(square), "--b", str(tri), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["source"][1] == ["1/10", 0]


def _pair_hdj(workdir):
    pair = workdir / "pair.hdj"
    assert main(["dissect", "--a", str(workdir / "L.txt"), "--b", str(workdir / "T.txt"),
                 "--out", str(pair)]) == 0
    return pair


_UNWRITABLE_COMMANDS = {
    "fold": lambda w, out: ["fold", "--in", str(w / "L.txt"), "--out", out],
    "dissect": lambda w, out: ["dissect", "--a", str(w / "L.txt"), "--b", str(w / "T.txt"),
                               "--out", out],
    "bg": lambda w, out: ["bg", "--a", str(w / "sq.json"), "--b", str(w / "tri.json"),
                          "--width", "2", "--out", out],
    "animate": lambda w, out: ["animate", str(_pair_hdj(w)), "--frames", "4", "--out", out],
    "gen": lambda w, out: ["gen", "--cells", "5", "--out", out],
}


@pytest.mark.parametrize("command", sorted(_UNWRITABLE_COMMANDS))
class TestUnwritableOutput:
    """An output that cannot be written is bad input (exit 2), and no
    partial or temporary file is left behind."""

    def test_missing_directory_exits_2(self, workdir, command, capsys):
        out = workdir / "missing" / "out"
        assert main(_UNWRITABLE_COMMANDS[command](workdir, str(out))) == 2
        assert "cannot write" in capsys.readouterr().err
        assert not (workdir / "missing").exists()

    def test_directory_in_the_way_leaves_nothing(self, workdir, command):
        out = workdir / "taken"
        out.mkdir()
        argv = _UNWRITABLE_COMMANDS[command](workdir, str(out))
        before = set(workdir.iterdir())
        assert main(argv) == 2
        assert set(workdir.iterdir()) == before
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, option", [
    ("fold", "--svg"), ("dissect", "--svg"), ("bg", "--svg"), ("animate", "--report-overlaps"),
])
def test_a_second_output_that_cannot_be_written_leaves_the_first_as_it_was(
        workdir, capsys, command, option):
    out, second = workdir / "first", workdir / "missing" / "second"
    out.write_bytes(b"earlier\n")
    argv = _UNWRITABLE_COMMANDS[command](workdir, str(out))
    before = set(workdir.iterdir())
    assert main([*argv, option, str(second)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] cannot write {second}: No such file or directory\n"
    assert out.read_bytes() == b"earlier\n"
    assert set(workdir.iterdir()) == before


@pytest.mark.parametrize("taken", ["first", "second"])
@pytest.mark.parametrize("command, option", [
    ("fold", "--svg"), ("dissect", "--svg"), ("bg", "--svg"), ("animate", "--report-overlaps"),
])
def test_an_output_that_is_a_directory_leaves_every_other_output_as_it_was(
        workdir, capsys, command, option, taken):
    first, second = workdir / "first", workdir / "second"
    argv = _UNWRITABLE_COMMANDS[command](workdir, str(first))
    for path in (first, second):
        if path.name == taken:
            path.mkdir()
        else:
            path.write_bytes(b"earlier\n")
    before = {p: p.read_bytes() for p in workdir.iterdir() if p.is_file()}
    assert main([*argv, option, str(second)]) == 2
    assert capsys.readouterr().err == (
        f"error: [Errno {errno.EISDIR}] cannot write {workdir / taken}: "
        f"{os.strerror(errno.EISDIR)}\n")
    assert {p: p.read_bytes() for p in workdir.iterdir() if p.is_file()} == before
    assert set(workdir.iterdir()) == {*before, workdir / taken}
    assert list((workdir / taken).iterdir()) == []


@pytest.mark.parametrize("command, option", [
    ("fold", "--svg"), ("dissect", "--svg"), ("bg", "--svg"), ("animate", "--report-overlaps"),
])
def test_two_outputs_that_name_one_file_exit_2_before_any_input_is_read(
        workdir, capsys, monkeypatch, command, option):
    # x and ./x are one file, so one output would overwrite the other; the
    # inputs are removed first, so only a check before reading them passes
    monkeypatch.chdir(workdir)
    argv = [*_UNWRITABLE_COMMANDS[command](workdir, "x"), option, "./x"]
    for path in workdir.iterdir():
        path.unlink()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: --out and {option} name one file: ./x\n"
    assert list(workdir.iterdir()) == []


def test_a_temporary_name_another_file_holds_is_left_to_it(workdir, monkeypatch):
    # a file already at gen's first temporary name, x.txt.<pid>.tmp, keeps its
    # bytes; gen writes through the next fresh name and leaves no other file
    monkeypatch.chdir(workdir)
    other = workdir / f"x.txt.{os.getpid()}.tmp"
    other.write_text("someone else")
    before = set(workdir.iterdir())
    assert main(["gen", "--cells", "3", "--out", "x.txt"]) == 0
    assert other.read_text() == "someone else"
    assert set(workdir.iterdir()) == {*before, workdir / "x.txt"}
    assert parse_grid((workdir / "x.txt").read_text()).cell_count == 3


def _tromino_hdj(workdir):
    """A verified 3-cell fold as a JSON document."""
    grid = workdir / "tromino.txt"
    grid.write_text("##\n#.\n")
    out = workdir / "tromino.hdj"
    assert main(["fold", "--in", str(grid), "--out", str(out)]) == 0
    return json.loads(out.read_text())


_DOMINO_TARGET = {"name": "t", "kind": "polygon", "data": [[0, 0], [2, 0], [2, 1], [0, 1]]}


def _domino_doc():
    """Two unit squares hinged at (1, 0), a general figure, laid side by
    side over a 2x1 rectangle."""
    square = [[0, 0], [1, 0], [1, 1], [0, 1]]
    return {
        "figure": {"pieces": [square, square], "hinges": [[0, 1, 1, 0]], "topology": "general"},
        "configurations": [{"name": "c", "mode": "exact", "placements": [
            {"cos": 1, "sin": 0, "tx": 0, "ty": 0}, {"cos": 1, "sin": 0, "tx": 1, "ty": 0},
        ]}],
        "targets": [_DOMINO_TARGET],
    }


# ways to put a junk value into _domino_doc, each invalid input
_JUNK_EDITS = {
    "placement": lambda doc, junk: doc["configurations"][0]["placements"][1].update(tx=junk),
    "placement-1/0": lambda doc, junk: doc["configurations"][0]["placements"][1].update(
        tx="1/0" + " " * len(junk)),
    "placement-list": lambda doc, junk: doc["configurations"][0]["placements"][1].update(
        tx=[junk]),
    "hinge": lambda doc, junk: doc["figure"]["hinges"][0].__setitem__(1, junk),
    "point": lambda doc, junk: doc["figure"]["pieces"][1].__setitem__(2, junk),
    "coordinate": lambda doc, junk: doc["figure"]["pieces"][1].__setitem__(2, [junk, 1]),
    "cell": lambda doc, junk: doc["targets"].__setitem__(
        0, {"kind": "polyomino", "data": {"cells": [[0, 0], junk]}}),
    "mode": lambda doc, junk: doc["configurations"][0].update(mode=junk),
    "topology": lambda doc, junk: doc["figure"].update(topology=junk),
    "kind": lambda doc, junk: doc["targets"][0].update(kind=junk),
    "targets": lambda doc, junk: doc.update(targets=junk),
    "configurations": lambda doc, junk: doc.update(configurations=junk),
    "configuration": lambda doc, junk: doc.update(configurations=[junk]),
    "target": lambda doc, junk: doc.update(targets=[junk]),
    "name": lambda doc, junk: doc["configurations"][0].update(name=[junk]),
    "tolerance": lambda doc, junk: doc["configurations"][0].update(tolerance=junk),
}


def _verify_doc(workdir, doc, *extra):
    path = workdir / "doc.hdj"
    path.write_text(json.dumps(doc))
    return main(["verify", str(path), *extra])


class TestParseErrors:
    def test_zero_denominator_in_placement_exits_2(self, workdir, capsys):
        doc = _tromino_hdj(workdir)
        doc["configurations"][0]["placements"][1]["tx"] = "1/0"
        assert _verify_doc(workdir, doc) == 2
        assert "1/0" in capsys.readouterr().err

    def test_zero_denominator_in_polygon_vertex_exits_2(self, workdir):
        (workdir / "bad.json").write_text('[[0,0],["1/0",0],[0,2]]')
        assert main(["bg", "--a", str(workdir / "bad.json"), "--b", str(workdir / "tri.json"),
                     "--out", str(workdir / "c.json")]) == 2

    def test_non_object_configuration_exits_2(self, workdir, capsys):
        doc = _tromino_hdj(workdir)
        doc["configurations"] = ["x"]
        assert _verify_doc(workdir, doc) == 2
        assert "expected an object" in capsys.readouterr().err

    def test_placement_count_mismatch_exits_2(self, workdir):
        doc = _tromino_hdj(workdir)
        del doc["configurations"][0]["placements"][-1]
        assert _verify_doc(workdir, doc) == 2

    @pytest.mark.parametrize("key, value, message", [
        ("configurations", [], "document has no configurations"),
        ("configurations", None, "document has no configurations"),
        ("hinges", [[0, 1, 2, 0]], "hinge piece index out of range"),
        ("hinges", [[0, 1, 1, 4]], "hinge vertex_b out of range"),
        ("targets", [], "document has no targets"),
        ("targets", [_DOMINO_TARGET] * 2, "1 configurations vs 2 targets"),
    ], ids=["no-configurations", "configurations-missing", "hinge-piece", "hinge-vertex-b",
            "no-targets", "target-count"])
    def test_invalid_document_exits_2(self, workdir, capsys, key, value, message):
        # a document with no configuration would verify nothing
        doc = _domino_doc()
        assert _verify_doc(workdir, doc) == 0
        capsys.readouterr()
        holder = doc["figure"] if key == "hinges" else doc
        if value is None:
            del holder[key]
        else:
            holder[key] = value
        assert _verify_doc(workdir, doc) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("cell", [[1.5, 0], [True, 0], ["1", 0], [1], [1, 0, 0], None])
    def test_cells_must_be_integer_pairs(self, workdir, cell):
        cells = workdir / "cells.json"
        cells.write_text(json.dumps({"cells": [[0, 0], cell]}))
        assert main(["fold", "--cells", str(cells), "--out", str(workdir / "c.hdj")]) == 2
        doc = _tromino_hdj(workdir)
        doc["targets"][0]["data"]["cells"][1] = cell
        assert _verify_doc(workdir, doc) == 2

    def test_huge_rotation_entry_is_rejected_quickly(self, workdir):
        # the piece's box spans 10**400 cells; containment visits only the
        # cells inside the target's own bounding box
        doc = _tromino_hdj(workdir)
        doc["configurations"][0]["placements"][2]["cos"] = "1e400"
        start = time.perf_counter()
        assert _verify_doc(workdir, doc) == 1
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("command", [
        ["verify", "{deep}"],
        ["animate", "{deep}", "--out", "{work}/a.svg"],
        ["fold", "--cells", "{deep}", "--out", "{work}/f.hdj"],
        ["bg", "--a", "{deep}", "--b", "{work}/tri.json", "--out", "{work}/c.json"],
    ], ids=["verify", "animate", "fold", "bg"])
    def test_deeply_nested_json_exits_2(self, workdir, capsys, command):
        # json.load recurses once per level; 5,000 levels pass any default limit
        deep = workdir / "deep.json"
        deep.write_text("[" * 5000)
        argv = [arg.format(deep=deep, work=workdir) for arg in command]
        assert main(argv) == 2
        assert "JSON nested deeper than the recursion limit" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name, text, message", [
        (["fold", "--in", "{bad}", "--out", "{work}/f.hdj"], "bad.txt", "#x\n",
         "unexpected character 'x' in row 0"),
        (["fold", "--cells", "{bad}", "--out", "{work}/f.hdj"], "bad.json", '{"cells": 1}',
         "expected an object with a 'cells' array"),
        (["dissect", "--a", "{work}/L.txt", "--b", "{bad}", "--out", "{work}/d.hdj"], "bad.txt",
         "#x\n", "unexpected character 'x' in row 0"),
        (["bg", "--a", "{work}/sq.json", "--b", "{bad}", "--out", "{work}/c.json"], "bad.json",
         '[[0,0],["a",0],[0,2]]', "Invalid literal for Fraction: 'a'"),
        (["bg", "--a", "{bad}", "--b", "{work}/tri.json", "--out", "{work}/c.json"], "bad.json",
         '{"points": []}', "expected a JSON array of [x, y] points"),
        (["verify", "{bad}"], "bad.hdj", "{", "not valid JSON: Expecting property name"),
        (["animate", "{bad}", "--out", "{work}/a.svg"], "bad.hdj", "{}", "document has no figure"),
        # errors in a document that reads as JSON and as an HDJ file
        (["verify", "{bad}"], "nt.hdj", json.dumps({**_domino_doc(), "targets": []}),
         "document has no targets"),
        (["verify", "{bad}"], "nt.hdj",
         json.dumps({**_domino_doc(), "targets": [_DOMINO_TARGET] * 2}),
         "1 configurations vs 2 targets"),
        (["animate", "{bad}", "--out", "{work}/a.svg"], "nt.hdj", json.dumps(_domino_doc()),
         "animation needs a document with two configurations"),
    ], ids=["fold-grid", "fold-cells", "dissect", "bg-coordinate", "bg-array", "verify",
            "animate", "verify-no-targets", "verify-target-count", "animate-one-configuration"])
    def test_an_input_error_names_its_file(self, workdir, capsys, command, name, text, message):
        bad = workdir / name
        bad.write_text(text)
        assert main([arg.format(bad=bad, work=workdir) for arg in command]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")

    @pytest.mark.parametrize("field", list(_JUNK_EDITS))
    def test_a_megabyte_value_is_quoted_short(self, workdir, capsys, field):
        # an error text quotes at most 40 characters of a document value
        doc = _domino_doc()
        _JUNK_EDITS[field](doc, "x" * 2**20)
        assert _verify_doc(workdir, doc) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.encode()) < 300

    def test_a_huge_hinge_index_is_quoted_short(self, workdir, capsys):
        # json reads an int of 4,201 digits; the range error quotes 40 of them
        doc = _domino_doc()
        doc["figure"]["hinges"][0][2] = 10**4200
        assert _verify_doc(workdir, doc) == 2
        err = capsys.readouterr().err
        assert "hinge piece index out of range: Hinge(piece_a=0, vertex_a=1, piece_b=1000" in err
        assert len(err.encode()) < 300

    def test_huge_exponent_exits_2_quickly(self, workdir, capsys):
        # the cap is read off the text: 10**3000000 is never built
        doc = _tromino_hdj(workdir)
        doc["configurations"][0]["placements"][1]["tx"] = "1e3000000"
        start = time.perf_counter()
        assert _verify_doc(workdir, doc) == 2
        assert time.perf_counter() - start < 1
        assert f"exponent beyond {RAT_MAX_DIGITS}" in capsys.readouterr().err

    def test_huge_decimal_in_polygon_exits_2_quickly(self, workdir):
        (workdir / "huge.json").write_text("[[0,0],[1e-3000000,0],[0,2]]")
        start = time.perf_counter()
        assert main(["bg", "--a", str(workdir / "huge.json"), "--b", str(workdir / "tri.json"),
                     "--out", str(workdir / "c.json")]) == 2
        assert time.perf_counter() - start < 1

    def test_value_beyond_double_range_in_approx_mode_exits_2(self, workdir, capsys):
        doc = _tromino_hdj(workdir)
        doc["configurations"][0]["placements"][2]["cos"] = "1e400"
        assert _verify_doc(workdir, doc, "--mode", "approx") == 2
        assert "too large" in capsys.readouterr().err


# rationals whose denominators have 999 digits, within RAT_MAX_DIGITS, so
# that failure texts show products of them
_NEAR_CAP = ["1/1" + "0" * 997 + "7", "1/1" + "0" * 997 + "9", "1/3" + "0" * 997 + "1"]
_FUZZ_VALUES = st.sampled_from(
    [None, True, False, 0, 7, -1, 1.5, "x", "", "1/0", "0/0", "3/5", [], [1], [1, 2, 3], {}, {"a": 1}]
    + _NEAR_CAP
)


def _paths(obj, prefix=()):
    """Every (container path, key) in a JSON value."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return []
    out = []
    for key, value in items:
        out.append((prefix, key))
        out.extend(_paths(value, prefix + (key,)))
    return out


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def _mutated_documents(draw, base):
    doc = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        paths = _paths(doc)
        if not paths:
            break
        prefix, key = draw(st.sampled_from(paths))
        parent = _at(doc, prefix)
        action = draw(st.sampled_from(["drop", "replace", "short"]))
        if action == "drop":
            del parent[key]
        elif action == "replace":
            parent[key] = draw(_FUZZ_VALUES)
        elif isinstance(parent[key], list):
            parent[key] = parent[key][: draw(st.integers(0, max(0, len(parent[key]) - 1)))]
    if draw(st.integers(0, 3)) == 0:
        # a repeated piece carrying true, so the piece cache sees a key
        # that compares equal to a valid piece's JSON
        pieces = doc.get("figure", {}).get("pieces") if isinstance(doc.get("figure"), dict) else None
        if isinstance(pieces, list) and pieces:
            pieces[-1] = [[0, 0], [True, 0], [0, True]]
    return doc


class TestVerifyFuzz:
    def test_repeated_piece_with_true_exits_2(self, workdir):
        doc = _tromino_hdj(workdir)
        doc["figure"]["pieces"][-1] = [[0, 0], [True, 0], [0, True]]
        assert _verify_doc(workdir, doc) == 2

    @pytest.mark.parametrize("extra", [(), ("--mode", "approx")])
    def test_near_cap_denominators_exit_1_with_bounded_lines(self, workdir, capsys, extra):
        doc = _tromino_hdj(workdir)
        cos, sin, shift = _NEAR_CAP
        doc["configurations"][0]["placements"][1].update(cos=cos, sin=sin, tx=shift, ty=shift)
        assert _verify_doc(workdir, doc, *extra) == 1
        out = capsys.readouterr().out
        assert "REJECTED" in out
        assert max(len(line) for line in out.splitlines()) <= 200

    def test_mutated_documents_exit_0_1_or_2(self, workdir):
        base = _tromino_hdj(workdir)

        @settings(max_examples=300)
        @given(_mutated_documents(base), st.sampled_from([(), ("--mode", "approx")]))
        def check(doc, extra):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert _verify_doc(workdir, doc, *extra) in (0, 1, 2)

        check()


# JSON number tokens json.dumps cannot write: decimals read as exact
# rationals, and an int past the interpreter's digit limit
_RAW_NUMBERS = ["1e3000000", "-1e-3000000", "1e400", "2.0e0", "9" * 5000]
_BG_FUZZ_VALUES = st.sampled_from(
    [None, True, False, 0, 2, -1, 1.5, "x", "1/0", "3/5", "1e3000000", [], [1], [1, 2, 3],
     [[0, 0]], {}]
    + [f"@raw{k}@" for k in range(len(_RAW_NUMBERS))]
)


@st.composite
def _mutated_polygons(draw):
    """Drops, replacements and truncations of a 2x2 square's JSON text."""
    doc = [[0, 0], [2, 0], [2, 2], [0, 2]]
    for _ in range(draw(st.integers(1, 3))):
        paths = _paths(doc)
        if not paths:
            break
        prefix, key = draw(st.sampled_from(paths))
        parent = _at(doc, prefix)
        action = draw(st.sampled_from(["drop", "replace", "short"]))
        if action == "drop":
            del parent[key]
        elif action == "replace":
            parent[key] = draw(_BG_FUZZ_VALUES)
        elif isinstance(parent[key], list):
            parent[key] = parent[key][: draw(st.integers(0, max(0, len(parent[key]) - 1)))]
    text = json.dumps(doc)
    for k, raw in enumerate(_RAW_NUMBERS):
        text = text.replace(f'"@raw{k}@"', raw)
    if draw(st.integers(0, 4)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


class TestBgFuzz:
    def test_mutated_polygons_exit_0_1_or_2(self, workdir):
        # the triangle has the square's area, so a mutation that keeps the
        # area runs the whole chart pipeline
        path = workdir / "fuzz.json"

        @settings(max_examples=150)
        @given(_mutated_polygons())
        def check(text):
            path.write_text(text)
            argv = ["bg", "--a", str(path), "--b", str(workdir / "tri.json"),
                    "--out", str(workdir / "fuzz-chart.json")]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) in (0, 1, 2)

        check()
