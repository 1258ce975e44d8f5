import json
import subprocess
import sys

import pytest

from chainfold.cli import main

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

    def test_one_frame_exits_2(self, workdir):
        pair = workdir / "pair.hdj"
        main(["dissect", "--a", str(workdir / "L.txt"), "--b", str(workdir / "T.txt"),
              "--out", str(pair)])
        assert main(["animate", str(pair), "--frames", "1",
                     "--out", str(workdir / "x.svg")]) == 2

    def test_identity_pair_no_overlaps(self, workdir):
        pair = workdir / "same.hdj"
        main(["dissect", "--a", str(workdir / "L.txt"), "--b", str(workdir / "L.txt"),
              "--out", str(pair)])
        report = workdir / "ov.json"
        assert main(["animate", str(pair), "--frames", "8", "--out", str(workdir / "a.svg"),
                     "--report-overlaps", str(report)]) == 0
        frames = json.loads(report.read_text())["frames"]
        assert all(f["overlaps"] == [] for f in frames)


class TestBg:
    def test_square_vs_triangle(self, workdir):
        out = workdir / "chart.json"
        svg = workdir / "chart.svg"
        assert main(["bg", "--a", str(workdir / "sq.json"), "--b", str(workdir / "tri.json"),
                     "--width", "2", "--out", str(out), "--svg", str(svg)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["pieces"]) == len(doc["target_motions"])

    def test_unequal_areas_exit_2(self, workdir):
        small = workdir / "small.json"
        small.write_text("[[0,0],[1,0],[1,1],[0,1]]")
        assert main(["bg", "--a", str(workdir / "sq.json"), "--b", str(small),
                     "--out", str(workdir / "x.json")]) == 2

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

    def test_gen_then_fold_round_trip(self, workdir):
        grid = workdir / "g.txt"
        main(["gen", "--cells", "12", "--seed", "7", "--out", str(grid)])
        assert main(["fold", "--in", str(grid), "--out", str(workdir / "g.hdj")]) == 0


class TestConsoleEntry:
    def test_subprocess_smoke(self, workdir):
        result = subprocess.run(
            [sys.executable, "-m", "chainfold.cli", "gen", "--cells", "4",
             "--seed", "1", "--out", str(workdir / "s.txt")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0


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
