"""The three workloads: their jobs, the CLI steps of each job, and the checks.

A job runs one or more `chainfold` commands through chainfold.cli.main,
in process, the way the `chainfold` console script does.  Only the
commands are timed; writing inputs and checking outputs are not.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import checks
import inputs
import speed

ANIMATION_FRAMES = 60
APPROX_MAX_CELLS = 256  # approx verify scans every cell against every piece


class Session:
    """Runs the CLI steps of one job, timing each and checking its exit code.

    `seconds` sums the steps' contention-corrected times (see speed.py),
    `wall_s` their plain wall times.
    """

    def __init__(self, main):
        self.main = main
        self.seconds = 0.0
        self.wall_s = 0.0
        self.problems: list[str] = []

    def _call(self, argv):
        try:
            return self.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            return exc.code

    def step(self, expect: int, *argv) -> float:
        """Run one command; return its wall time."""
        sink = io.StringIO()
        argv = [str(a) for a in argv]
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code, wall, corrected = speed.timed(lambda: self._call(argv))
        self.seconds += corrected
        self.wall_s += wall
        if code != expect:
            tail = sink.getvalue().strip().splitlines()[-1:] or [""]
            self.problems.append(f"{argv[0]} exited {code}, expected {expect}: {tail[0][:200]}")
        return wall


class Job:
    """One unit of closed-loop work.  `body(session, job)` runs its steps,
    returns the piece count of its verified artifact, and may set
    `gate_s`, the time the job's acceptance gate applies to."""

    def __init__(self, label: str, size: str, body):
        self.label = label
        self.size = size
        self.body = body
        self.gate_s = None


class FoldVerify:
    """fold, verify, verify a seeded mutant, and (small shapes) approx verify.

    Pass p folds random shapes of 64, 256 and 1024 cells grown from seed
    1000 * seed + p, so seed 0 walks through criterion 4's random shapes,
    plus the four shipped 64-cell glyphs.
    """

    name = "fold-verify"
    gate = ("criterion 4", 2.0, "64-cell fold+verify")

    def __init__(self, root: Path, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.glyphs = [(f"glyph-{g}", inputs.load_glyph(root, g)) for g in inputs.GLYPHS]

    def jobs(self, p: int) -> list[Job]:
        shape_seed = 1000 * self.seed + p
        shapes = [(f"rand{n}-{shape_seed}", inputs.random_cells(n, shape_seed))
                  for n in inputs.FOLD_SIZES]
        return [
            Job(label, f"{len(cells)} cells", self._body(label, cells, p))
            for label, cells in shapes + self.glyphs
        ]

    def _body(self, label, cells, p):
        grid = self.work / f"{label}.txt"
        out = self.work / f"{label}.hdj"
        mutant = self.work / f"{label}-mutant.hdj"

        def body(session: Session, job: Job) -> int:
            grid.write_text(inputs.grid_text(cells))
            fold_s = session.step(0, "fold", "--in", grid, "--out", out)
            verify_s = session.step(0, "verify", out)
            doc = json.loads(out.read_text())
            session.problems += checks.fold_problems(doc, cells)

            bad = json.loads(json.dumps(doc))
            kind = inputs.mutate(bad, random.Random(f"{self.seed}/{p}/{label}"),
                                 checks.placed_vertices(doc, 0))
            if not checks.fold_problems(bad, cells):
                session.problems.append(f"{kind} mutant passes the independent check")
            mutant.write_text(json.dumps(bad))
            session.step(1, "verify", mutant)

            if len(cells) <= APPROX_MAX_CELLS:
                session.step(0, "verify", out, "--mode", "approx")
            if len(cells) == 64:
                job.gate_s = fold_s + verify_s
            return len(doc["figure"]["pieces"])

        return body


class Bg:
    """One `bg --svg` run per criterion-8 pair; the seed orders the pairs."""

    name = "bg"
    gate = ("criterion 8", 5.0, "bg pair")

    def __init__(self, root: Path, work: Path, seed: int):
        self.work = work
        self.pairs = inputs.bg_pairs(seed)

    def jobs(self, p: int) -> list[Job]:
        return [
            Job(label, f"{len(pa)}+{len(pb)} vertices", self._body(label, pa, pb, w))
            for label, pa, pb, w in self.pairs
        ]

    def _body(self, label, pa, pb, width):
        a_path = self.work / f"{label}-a.json"
        b_path = self.work / f"{label}-b.json"
        out = self.work / f"{label}.json"
        svg = self.work / f"{label}.svg"

        def body(session: Session, job: Job) -> int:
            a_path.write_text(json.dumps(inputs.polygon_json(pa)))
            b_path.write_text(json.dumps(inputs.polygon_json(pb)))
            job.gate_s = session.step(0, "bg", "--a", a_path, "--b", b_path,
                                      "--width", inputs.rational_json(width),
                                      "--out", out, "--svg", svg)
            chart = json.loads(out.read_text())
            session.problems += checks.chart_problems(chart, pa, pb)
            if svg.stat().st_size == 0:
                session.problems.append("empty SVG")
            return len(chart["pieces"])

        return body


class Animate:
    """dissect (with its still SVG), then a 60-frame animate with an overlap
    report, for each of the 6 pairs of the glyphs I, L, O and T (128 pieces
    each)."""

    name = "animate"
    gate = None

    def __init__(self, root: Path, work: Path, seed: int):
        self.work = work
        self.cells = {g: inputs.load_glyph(root, g) for g in inputs.GLYPHS}
        self.pairs = inputs.glyph_pairs(seed)

    def jobs(self, p: int) -> list[Job]:
        return [
            Job(f"{a}-{b}", f"{len(self.cells[a])} cells", self._body(a, b))
            for a, b in self.pairs
        ]

    def _body(self, a, b):
        a_path = self.work / f"{a}.txt"
        b_path = self.work / f"{b}.txt"
        pair = self.work / f"{a}-{b}.hdj"
        still = self.work / f"{a}-{b}-fold.svg"
        svg = self.work / f"{a}-{b}.svg"
        report = self.work / f"{a}-{b}-overlaps.json"

        def body(session: Session, job: Job) -> int:
            a_path.write_text(inputs.grid_text(self.cells[a]))
            b_path.write_text(inputs.grid_text(self.cells[b]))
            session.step(0, "dissect", "--a", a_path, "--b", b_path, "--out", pair,
                         "--svg", still)
            session.step(0, "animate", pair, "--frames", ANIMATION_FRAMES, "--out", svg,
                         "--report-overlaps", report)
            doc = json.loads(pair.read_text())
            session.problems += checks.fold_problems(doc, self.cells[a], 0)
            session.problems += checks.fold_problems(doc, self.cells[b], 1)
            session.problems += checks.animation_problems(
                json.loads(report.read_text()), doc, ANIMATION_FRAMES
            )
            if svg.stat().st_size == 0 or still.stat().st_size == 0:
                session.problems.append("empty SVG")
            return len(doc["figure"]["pieces"])

        return body


WORKLOADS = {w.name: w for w in (FoldVerify, Bg, Animate)}
DEFAULT_SEEDS = {"fold-verify": 0, "bg": inputs.CRITERION_8_SEED, "animate": 0}
