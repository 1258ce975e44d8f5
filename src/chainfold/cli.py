"""Command-line surface: fold, dissect, verify, animate, bg, gen.

Exit codes: 0 success/accepted, 1 verification rejected, 2 invalid
input or an unwritable output, 3 internal error.  Failure detail goes
to stderr; reports go to stdout.  Every artifact written here is
verified before it is written, and is written through a temporary file,
so a failed run leaves no partial file behind.  A command with two
outputs opens both temporary files before it replaces either, so a run
that cannot open the second leaves the first as it found it.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .chain import dissect_pair, fold_chain
from .equidecompose import (
    CHART_TOLERANCE,
    MAX_HALVINGS,
    _width,
    chart_to_json,
    overlay_charts,
    polygon_to_canonical_chart,
    verify_chart,
)
from .exact_geom import SimplePolygon, point_from_json, polygon_area, rat
from .figures import (
    Configuration,
    HdjFile,
    NamedConfiguration,
    NamedTarget,
    _value_text,
    atomic_output,
    check_tolerance,
    load_hdj,
    read_json,
    save_hdj,
    verify_configuration,
    write_json,
)
from .kinematics import sample_motion, write_motion_report
from .polyomino import Polyomino, cells_from_json, parse_grid, random_polyomino, to_grid
from .render import render_animation, render_chart, render_config

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3

MAX_FRAMES = 1000  # animate holds every frame and the whole SVG in memory
MAX_PIECE_FRAMES = 2**17  # pieces times frames: animate holds about 1.1 KB for each
MAX_GEN_CELLS = 16384  # bounds the grid, and the fold and exact verify of it


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INVALID


def _distinct_outputs(out: str, second: str | None, flag: str) -> None:
    """Raise ValueError when a second output is the file of --out, which
    one of the two would otherwise overwrite."""
    if second and os.path.realpath(out) == os.path.realpath(second):
        raise ValueError(f"--out and {flag} name one file: {second}")


def _read(path: str, load):
    """load(path); a ValueError it raises names the file, as an OSError does."""
    try:
        return load(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_polyomino(grid_path: str | None, cells_path: str | None) -> Polyomino:
    if (grid_path is None) == (cells_path is None):
        raise ValueError("give exactly one of --in/--cells")
    if grid_path is not None:
        return _read(grid_path, lambda path: parse_grid(Path(path).read_text(encoding="utf-8")))
    return _read(cells_path, lambda path: cells_from_json(read_json(path)))


def _load_pairs(path: str):
    """The HDJ document at path and its (configuration, target) pairs."""
    doc = load_hdj(path)
    return doc, doc.pairs()


def _load_ends(path: str):
    """The HDJ document at path and the pairs of its first two configurations."""
    doc = load_hdj(path)
    if len(doc.configurations) < 2:
        raise ValueError("animation needs a document with two configurations")
    return doc, doc.pairs()[:2]


def _fold_document(p: Polyomino) -> HdjFile:
    result = fold_chain(p)
    report = verify_configuration(result.figure, result.config, p)
    if not report.accepted:
        raise RuntimeError(f"fold failed self-verification: {report.failures}")
    return HdjFile(
        result.figure,
        [NamedConfiguration("fold", result.config)],
        [NamedTarget("target", p)],
        dict(result.cell_map),
    )


def _save(args, doc: HdjFile) -> None:
    """Write the document to --out and, given --svg, its first configuration
    rendered; the SVG's file is opened first, since save_hdj opens its own."""
    if not args.svg:
        save_hdj(args.out, doc)
        return
    svg = render_config(doc.figure, doc.configurations[0].configuration)
    with atomic_output(args.svg) as fh:
        fh.write(svg)
        save_hdj(args.out, doc)


def cmd_fold(args) -> int:
    try:
        _distinct_outputs(args.out, args.svg, "--svg")
        p = _load_polyomino(args.infile, args.cells)
        doc = _fold_document(p)
        _save(args, doc)
    except (ValueError, OSError, OverflowError) as exc:  # cells beyond the double range
        return _fail(str(exc))
    print(f"wrote {args.out}: {len(doc.figure.pieces)} pieces, verified exactly")
    return EXIT_OK


def cmd_dissect(args) -> int:
    try:
        _distinct_outputs(args.out, args.svg, "--svg")
        a = _load_polyomino(args.a, None)
        b = _load_polyomino(args.b, None)
        hd = dissect_pair(a, b)
        for config, target in ((hd.config_a, a), (hd.config_b, b)):
            report = verify_configuration(hd.figure, config, target)
            if not report.accepted:
                raise RuntimeError(f"dissection failed self-verification: {report.failures}")
        doc = HdjFile(
            hd.figure,
            [
                NamedConfiguration("fold_a", hd.config_a),
                NamedConfiguration("fold_b", hd.config_b),
            ],
            [NamedTarget("a", hd.target_a), NamedTarget("b", hd.target_b)],
        )
        _save(args, doc)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    print(f"wrote {args.out}: {len(doc.figure.pieces)} pieces, both foldings verified")
    return EXIT_OK


def _print_report(nc: NamedConfiguration, nt: NamedTarget, report, file) -> None:
    status = "ACCEPTED" if report.accepted else "REJECTED"
    print(f"configuration '{nc.name}' vs target '{nt.name}': {status}", file=file)
    for check, detail in report.failures:
        print(f"  {check}: {detail}", file=file)


def cmd_verify(args) -> int:
    try:
        if args.tol is not None:
            check_tolerance(args.tol)
        doc, pairs = _read(args.file, _load_pairs)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    all_ok = True
    for nc, nt in pairs:
        config = nc.configuration
        if args.mode is not None and args.mode != config.mode:
            config = Configuration(config.placements, args.mode, config.tolerance)
        if args.tol is not None:
            config = Configuration(config.placements, config.mode, args.tol)
        try:
            report = verify_configuration(doc.figure, config, nt.data)
        except OverflowError as exc:  # approx mode: a value beyond the double range
            return _fail(f"configuration '{nc.name}': {exc}")
        _print_report(nc, nt, report, sys.stdout)
        if not report.accepted:
            all_ok = False
    return EXIT_OK if all_ok else EXIT_REJECTED


def cmd_animate(args) -> int:
    try:
        _distinct_outputs(args.out, args.report_overlaps, "--report-overlaps")
        if args.frames > MAX_FRAMES:
            raise ValueError(f"at most {MAX_FRAMES} frames, got {args.frames}")
        doc, pairs = _read(args.file, _load_ends)
        if len(doc.figure.pieces) * args.frames > MAX_PIECE_FRAMES:
            raise ValueError(f"at most {MAX_PIECE_FRAMES} pieces times frames, got "
                             f"{len(doc.figure.pieces)} pieces and {args.frames} frames")
        try:
            first, second = (nc.configuration for nc, _ in pairs)
            samples = sample_motion(doc.figure, first, second, args.frames, args.cut)
            # both ends, in their stored modes, as verify checks them
            ends = [(nc, nt, verify_configuration(doc.figure, nc.configuration, nt.data))
                    for nc, nt in pairs]
        except OverflowError as exc:  # a value beyond the double range
            return _fail(str(exc))
        rejected = [(nc, nt, report) for nc, nt, report in ends if not report.accepted]
        for nc, nt, report in rejected:
            _print_report(nc, nt, report, sys.stderr)
        if rejected:
            return EXIT_REJECTED
        with atomic_output(args.out) as fh:
            fh.write(render_animation(samples, figure=doc.figure))
            if args.report_overlaps:
                with atomic_output(args.report_overlaps) as report:
                    write_motion_report(samples, report)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    worst = max((o[2] for s in samples for o in s.overlaps), default=0.0)
    print(f"wrote {args.out}: {args.frames} frames, worst mid-motion overlap {worst:g}")
    return EXIT_OK


def _load_polygon_json(path: str) -> SimplePolygon:
    """Read [[x, y], ...]; decimals are read exactly, so 0.1 is 1/10, and
    capped like every other rational value."""
    obj = read_json(path, parse_float=rat)
    if not isinstance(obj, list):
        raise ValueError("expected a JSON array of [x, y] points")
    try:
        points = [point_from_json(v) for v in obj]
    except TypeError as exc:  # a coordinate that is not a number: null, a bool, a list
        raise ValueError(str(exc)) from None
    return SimplePolygon(points)


def cmd_bg(args) -> int:
    try:
        _distinct_outputs(args.out, args.svg, "--svg")
        pa = _read(args.a, _load_polygon_json)
        pb = _read(args.b, _load_polygon_json)
        area_a, area_b = polygon_area(pa), polygon_area(pb)
        if area_a != area_b:
            raise ValueError(f"areas differ: {_value_text(area_a)} vs {_value_text(area_b)}")
        try:
            width = _width(rat(args.width))
        except ValueError as exc:
            raise ValueError(f"--width: {exc}") from None
        chart_a = _read(args.a, lambda _: polygon_to_canonical_chart(pa, width))
        chart_b = _read(args.b, lambda _: polygon_to_canonical_chart(pb, width))
        mutual = overlay_charts(chart_a, chart_b)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    report = verify_chart(mutual, CHART_TOLERANCE)
    if not report.accepted:
        print("error: mutual chart failed verification:", file=sys.stderr)
        for check, detail in report.failures[:5]:
            print(f"  {check}: {detail}", file=sys.stderr)
        if len(report.failures) > 5:
            print(f"  … {len(report.failures) - 5} more", file=sys.stderr)
        return EXIT_REJECTED
    try:
        with atomic_output(args.out) as fh:
            write_json(chart_to_json(mutual), fh)
            if args.svg:
                with atomic_output(args.svg) as svg:
                    svg.write(render_chart(mutual))
    except OSError as exc:
        return _fail(str(exc))
    print(f"wrote {args.out}: {len(mutual.pieces)} pieces, verified at {CHART_TOLERANCE:g}")
    return EXIT_OK


def cmd_gen(args) -> int:
    try:
        if args.cells > MAX_GEN_CELLS:
            raise ValueError(f"at most {MAX_GEN_CELLS} cells, got {args.cells}")
        p = random_polyomino(args.cells, args.seed)
        with atomic_output(args.out) as fh:
            fh.write(to_grid(p) + "\n")
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    print(f"wrote {args.out}: {p.cell_count} cells, seed {args.seed}")
    return EXIT_OK


# each command: name, help, function, and its arguments as (flag, keywords)
COMMANDS = (
    ("fold", "fold the triangle chain onto a polyomino", cmd_fold, (
        ("--in", dict(dest="infile", help="ASCII grid file ('#' and '.')")),
        ("--cells", dict(help="JSON file {\"cells\": [[x,y],...]}")),
        ("--out", dict(required=True, help="output HDJ file")),
        ("--svg", dict(help="also render the folded configuration")),
    )),
    ("dissect", "hinged dissection between two polyominoes", cmd_dissect, (
        ("--a", dict(required=True, help="first grid file")),
        ("--b", dict(required=True, help="second grid file")),
        ("--out", dict(required=True, help="output HDJ file")),
        ("--svg", dict(help="also render the first folding")),
    )),
    ("verify", "verify every configuration in an HDJ file", cmd_verify, (
        ("file", dict(help="HDJ file")),
        ("--mode", dict(choices=("exact", "approx"), help="override stored modes")),
        ("--tol", dict(type=float, help="override tolerance (approx mode; finite, >= 0)")),
    )),
    ("animate", "animate between two configurations", cmd_animate, (
        ("file", dict(help="HDJ file with two configurations")),
        ("--frames", dict(type=int, default=60,
                          help=f"frames to sample, 2 to {MAX_FRAMES} (default: 60)")),
        ("--cut", dict(type=int, help="hinge to open (default: last)")),
        ("--out", dict(required=True, help="output SVG file")),
        ("--report-overlaps", dict(help="write per-frame overlap JSON")),
    )),
    ("bg", "mutual dissection of two equal-area polygons", cmd_bg, (
        ("--a", dict(required=True, help="first polygon JSON ([[x,y],...])")),
        ("--b", dict(required=True, help="second polygon JSON")),
        ("--width", dict(default="1",
                         help="common rectangle width (rational); a width that cuts a rectangle "
                         f"into more than 2**{MAX_HALVINGS} strips, or a trapezoid into more "
                         f"than 9 * 2**{MAX_HALVINGS} pieces, is rejected (default: 1)")),
        ("--out", dict(required=True, help="output chart JSON")),
        ("--svg", dict(help="also render the chart side by side")),
    )),
    ("gen", "generate a random polyomino grid", cmd_gen, (
        ("--cells", dict(type=int, required=True, help=f"cell count, 1 to {MAX_GEN_CELLS}")),
        ("--seed", dict(type=int, default=0)),
        ("--out", dict(required=True, help="output grid file")),
    )),
)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for argv.  When argv[0] names a command, only that
    command's subparser is built: argparse hands it every later argument,
    so no other could act on them.  Its metavar names every command, so
    the usage line of an "unrecognized arguments" error does too.  Any
    other argv, or none, gets all of them, for the top-level help and
    errors."""
    parser = argparse.ArgumentParser(
        prog="chainfold",
        description="Hinged dissections of polyominoes and classical "
        "polygon equidecomposition, with exact verification.",
    )
    chosen = [c for c in COMMANDS if argv and c[0] == argv[0]]
    names = "{" + ",".join(c[0] for c in COMMANDS) + "}" if chosen else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=names)
    for name, help_text, func, arguments in chosen or COMMANDS:
        command = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            command.add_argument(flag, **keywords)
        command.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except SystemExit:
        raise
    except BrokenPipeError:
        # the reader of stdout has gone; point stdout at devnull, so that
        # Python's flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail("standard output is closed")
    except Exception as exc:  # noqa: BLE001 - last-resort CLI guard
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
