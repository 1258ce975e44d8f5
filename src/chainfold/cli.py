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
import json
import os
import sys

from .chain import dissect_pair, fold_chain
from .equidecompose import (
    CHART_TOLERANCE,
    MAX_HALVINGS,
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
    atomic_output,
    check_tolerance,
    load_hdj,
    read_json,
    save_hdj,
    verify_configuration,
    write_json,
)
from .kinematics import motion_frame_json, sample_motion
from .polyomino import Polyomino, cells_from_json, parse_grid, random_polyomino, to_grid
from .render import render_animation, render_chart, render_config

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3

MAX_FRAMES = 1000  # animate holds every frame and the whole SVG in memory
MAX_GEN_CELLS = 16384  # bounds the grid, and the fold and exact verify of it


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INVALID


def _load_polyomino(grid_path: str | None, cells_path: str | None) -> Polyomino:
    if (grid_path is None) == (cells_path is None):
        raise ValueError("give exactly one of --in/--cells")
    if grid_path is not None:
        with open(grid_path, "r", encoding="utf-8") as fh:
            return parse_grid(fh.read())
    return cells_from_json(read_json(cells_path))


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
        p = _load_polyomino(args.infile, args.cells)
        doc = _fold_document(p)
        _save(args, doc)
    except (ValueError, OSError, OverflowError) as exc:  # cells beyond the double range
        return _fail(str(exc))
    print(f"wrote {args.out}: {len(doc.figure.pieces)} pieces, verified exactly")
    return EXIT_OK


def cmd_dissect(args) -> int:
    try:
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
        doc = load_hdj(args.file)
        pairs = doc.pairs()
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
        if args.frames > MAX_FRAMES:
            raise ValueError(f"at most {MAX_FRAMES} frames, got {args.frames}")
        doc = load_hdj(args.file)
        if len(doc.configurations) < 2:
            raise ValueError("animation needs a document with two configurations")
        try:
            samples = sample_motion(
                doc.figure,
                doc.configurations[0].configuration,
                doc.configurations[1].configuration,
                args.frames,
                args.cut,
            )
            # both ends, in their stored modes, as verify checks them
            ends = [(nc, nt, verify_configuration(doc.figure, nc.configuration, nt.data))
                    for nc, nt in doc.pairs()[:2]]
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
                # motion_report_json(samples), one frame per line: json.dumps of
                # a frame runs the C encoder, json.dump with indent the Python one
                with atomic_output(args.report_overlaps) as report:
                    sep = '{"frames": [\n'
                    for s in samples:
                        report.write(sep + json.dumps(motion_frame_json(s)))
                        sep = ",\n"
                    report.write("\n]}\n")
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
        raise ValueError(f"{path}: expected a JSON array of [x, y] points")
    try:
        points = [point_from_json(v) for v in obj]
    except TypeError as exc:  # a coordinate that is not a number: null, a bool, a list
        raise ValueError(f"{path}: {exc}") from None
    return SimplePolygon(points)


def cmd_bg(args) -> int:
    try:
        pa = _load_polygon_json(args.a)
        pb = _load_polygon_json(args.b)
        if polygon_area(pa) != polygon_area(pb):
            raise ValueError(
                f"areas differ: {polygon_area(pa)} vs {polygon_area(pb)}"
            )
        width = rat(args.width)
        chart_a = polygon_to_canonical_chart(pa, width)
        chart_b = polygon_to_canonical_chart(pb, width)
        mutual = overlay_charts(chart_a, chart_b)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    report = verify_chart(mutual, CHART_TOLERANCE)
    if not report.accepted:
        print(f"error: mutual chart failed verification: {report.failures[:5]}",
              file=sys.stderr)
        return EXIT_REJECTED
    try:
        with atomic_output(args.out) as fh:
            write_json(chart_to_json(mutual), fh)
            fh.write("\n")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainfold",
        description="Hinged dissections of polyominoes and classical "
        "polygon equidecomposition, with exact verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fold = sub.add_parser("fold", help="fold the triangle chain onto a polyomino")
    p_fold.add_argument("--in", dest="infile", help="ASCII grid file ('#' and '.')")
    p_fold.add_argument("--cells", help="JSON file {\"cells\": [[x,y],...]}")
    p_fold.add_argument("--out", required=True, help="output HDJ file")
    p_fold.add_argument("--svg", help="also render the folded configuration")
    p_fold.set_defaults(func=cmd_fold)

    p_dis = sub.add_parser("dissect", help="hinged dissection between two polyominoes")
    p_dis.add_argument("--a", required=True, help="first grid file")
    p_dis.add_argument("--b", required=True, help="second grid file")
    p_dis.add_argument("--out", required=True, help="output HDJ file")
    p_dis.add_argument("--svg", help="also render the first folding")
    p_dis.set_defaults(func=cmd_dissect)

    p_ver = sub.add_parser("verify", help="verify every configuration in an HDJ file")
    p_ver.add_argument("file", help="HDJ file")
    p_ver.add_argument("--mode", choices=("exact", "approx"), help="override stored modes")
    p_ver.add_argument("--tol", type=float, help="override tolerance (approx mode; finite, >= 0)")
    p_ver.set_defaults(func=cmd_verify)

    p_anim = sub.add_parser("animate", help="animate between two configurations")
    p_anim.add_argument("file", help="HDJ file with two configurations")
    p_anim.add_argument("--frames", type=int, default=60,
                        help=f"frames to sample, 2 to {MAX_FRAMES} (default: 60)")
    p_anim.add_argument("--cut", type=int, help="hinge to open (default: last)")
    p_anim.add_argument("--out", required=True, help="output SVG file")
    p_anim.add_argument("--report-overlaps", help="write per-frame overlap JSON")
    p_anim.set_defaults(func=cmd_animate)

    p_bg = sub.add_parser("bg", help="mutual dissection of two equal-area polygons")
    p_bg.add_argument("--a", required=True, help="first polygon JSON ([[x,y],...])")
    p_bg.add_argument("--b", required=True, help="second polygon JSON")
    p_bg.add_argument("--width", default="1",
                      help="common rectangle width (rational); a width that cuts a rectangle "
                      f"into more than 2**{MAX_HALVINGS} strips is rejected (default: 1)")
    p_bg.add_argument("--out", required=True, help="output chart JSON")
    p_bg.add_argument("--svg", help="also render the chart side by side")
    p_bg.set_defaults(func=cmd_bg)

    p_gen = sub.add_parser("gen", help="generate a random polyomino grid")
    p_gen.add_argument("--cells", type=int, required=True,
                       help=f"cell count, 1 to {MAX_GEN_CELLS}")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output grid file")
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
