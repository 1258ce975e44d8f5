"""Deterministic SVG output for configurations, charts, and sampled motions.

All coordinates are written with fixed 6-decimal formatting, so identical
inputs produce byte-identical documents.  Animations are declarative
(SMIL path morphing), no scripting.
"""

from __future__ import annotations

from .equidecompose import DissectionChart, _placed
from .figures import Configuration, CountMismatch, HingedFigure, _placed_points
from .kinematics import MotionSample, TooFewFrames
from .numeric import apply_numeric_points, float_polygon

SCALE = 40.0  # SVG user units per unit of length
PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#59a14f",
    "#e15759",
    "#b07aa1",
    "#edc948",
    "#76b7b2",
    "#ff9da7",
    "#9c755f",
    "#bab0ac",
)
STROKE_WIDTH = 0.02


def _color(index: int) -> str:
    return PALETTE[index % len(PALETTE)]


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _path_d(points) -> str:
    coords = ["%.6f,%.6f" % p for p in points]  # the bytes of _fmt on each coordinate
    return "M " + " L ".join(coords) + " Z"


def _piece_path(index: int, points) -> str:
    """A static piece: one filled, stroked path."""
    return (
        f'<path d="{_path_d(points)}" fill="{_color(index)}" '
        f'stroke="#222222" stroke-width="{_fmt(STROKE_WIDTH)}"/>'
    )


def _bounds(point_lists):
    xs = [x for pts in point_lists for x, _ in pts]
    ys = [y for pts in point_lists for _, y in pts]
    return min(xs), min(ys), max(xs), max(ys)


def _svg_open(min_x, min_y, max_x, max_y) -> list[str]:
    """Document header; the inner group flips y so +y points up."""
    span_x = max(max_x - min_x, 1e-9)
    span_y = max(max_y - min_y, 1e-9)
    margin_x = span_x * 0.05
    margin_y = span_y * 0.05
    vb_x = min_x - margin_x
    vb_y = -(max_y + margin_y)
    vb_w = span_x + 2 * margin_x
    vb_h = span_y + 2 * margin_y
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(vb_w * SCALE)}" height="{_fmt(vb_h * SCALE)}" '
        f'viewBox="{_fmt(vb_x)} {_fmt(vb_y)} {_fmt(vb_w)} {_fmt(vb_h)}">',
        '<g transform="scale(1,-1)">',
    ]


_SVG_CLOSE = ["</g>", "</svg>"]


def render_config(f: HingedFigure, c: Configuration) -> str:
    """Static picture of one placed configuration, one path per piece,
    with a marker on each hinge."""
    _, placed = _placed_points(f, c)
    lines = _svg_open(*_bounds(placed))
    lines.extend(_piece_path(i, pts) for i, pts in enumerate(placed))
    for h in f.hinges:
        x, y = placed[h.piece_a][h.vertex_a]
        lines.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(0.06)}" '
            f'fill="#ffffff" stroke="#222222" stroke-width="{_fmt(STROKE_WIDTH)}"/>'
        )
    lines.extend(_SVG_CLOSE)
    return "\n".join(lines) + "\n"


def render_animation(samples: list[MotionSample], *, figure: HingedFigure) -> str:
    """Looping animation A -> B -> A over the sampled frames.

    Each piece is one path whose "d" attribute is morphed linearly
    between the per-frame placed outlines.
    """
    if len(samples) < 2:
        raise TooFewFrames(f"need at least 2 samples, got {len(samples)}")
    local_points = [float_polygon(p) for p in figure.pieces]
    piece_count = len(samples[0].placements)
    boxes = []
    paths = []  # per frame, each piece's outline formatted once
    for s in samples:
        if len(s.placements) != piece_count:
            raise CountMismatch("samples disagree on piece count")
        frame = [apply_numeric_points(m, pts) for m, pts in zip(s.placements, local_points)]
        boxes.append(_bounds(frame))
        paths.append([_path_d(pts) for pts in frame])
    min_xs, min_ys, max_xs, max_ys = zip(*boxes)
    lines = _svg_open(min(min_xs), min(min_ys), max(max_xs), max(max_ys))
    steps = 2 * len(paths) - 1  # forward then back, sharing the endpoints
    key_times = ";".join(_fmt(i / (steps - 1)) for i in range(steps))
    columns = zip(*paths)  # piece i's forward outlines, joined both ways
    for i, forward in enumerate(columns):
        values = ";".join(forward + forward[-2::-1])
        lines.append(
            f'<path d="{forward[0]}" fill="{_color(i)}" '
            f'fill-opacity="0.85" stroke="#222222" stroke-width="{_fmt(STROKE_WIDTH)}">'
        )
        lines.append(
            f'<animate attributeName="d" dur="8s" repeatCount="indefinite" '
            f'calcMode="linear" keyTimes="{key_times}" values="{values}"/>'
        )
        lines.append("</path>")
    lines.extend(_SVG_CLOSE)
    return "\n".join(lines) + "\n"


def render_chart(chart: DissectionChart) -> str:
    """Source and target assemblies side by side with matching piece colors."""
    source_pts = [float_polygon(pts) for pts in chart.pieces]
    placed_pts = _placed(chart)
    src_min_x, src_min_y, src_max_x, src_max_y = _bounds(
        source_pts + [float_polygon(chart.source)]
    )
    gap = max(src_max_x - src_min_x, 1e-9) * 0.15
    shift = src_max_x - src_min_x + gap
    # the target side's bounds, shifted: rounding is monotone, so the
    # least x + shift is the least x, plus shift
    min_x, min_y, max_x, max_y = _bounds(source_pts)
    t_min_x, t_min_y, t_max_x, t_max_y = _bounds(placed_pts + [float_polygon(chart.target)])
    lines = _svg_open(min(min_x, t_min_x + shift), min(min_y, t_min_y),
                      max(max_x, t_max_x + shift), max(max_y, t_max_y))
    lines.append('<g id="source">')
    lines.extend(_piece_path(i, pts) for i, pts in enumerate(source_pts))
    lines.append("</g>")
    lines.append(f'<g id="target" transform="translate({_fmt(shift)},0)">')
    lines.extend(_piece_path(i, pts) for i, pts in enumerate(placed_pts))
    lines.append("</g>")
    lines.extend(_SVG_CLOSE)
    return "\n".join(lines) + "\n"
