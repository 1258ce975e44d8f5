"""Deterministic SVG output for configurations, charts, and sampled motions.

All coordinates are written with fixed 6-decimal formatting, so identical
inputs produce byte-identical documents.  Animations are declarative
(SMIL path morphing), no scripting.
"""

from __future__ import annotations

from dataclasses import dataclass

from .equidecompose import DissectionChart, _piece_points, _placed
from .figures import Configuration, CountMismatch, HingedFigure, _placed_points
from .kinematics import MotionSample, TooFewFrames
from .numeric import apply_numeric_points, float_polygon

DEFAULT_PALETTE = (
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


@dataclass(frozen=True)
class RenderStyle:
    scale: float = 40.0
    palette: tuple[str, ...] = DEFAULT_PALETTE
    stroke_width: float = 0.02
    show_hinges: bool = False
    show_labels: bool = False

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if not self.palette:
            raise ValueError("palette must not be empty")

    def color(self, index: int) -> str:
        return self.palette[index % len(self.palette)]


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _path_d(points) -> str:
    coords = [f"{x:.6f},{y:.6f}" for x, y in points]  # _fmt on each coordinate
    return "M " + " L ".join(coords) + " Z"


def _bounds(point_lists):
    xs = [x for pts in point_lists for x, _ in pts]
    ys = [y for pts in point_lists for _, y in pts]
    return min(xs), min(ys), max(xs), max(ys)


def _svg_open(min_x, min_y, max_x, max_y, scale) -> list[str]:
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
        f'width="{_fmt(vb_w * scale)}" height="{_fmt(vb_h * scale)}" '
        f'viewBox="{_fmt(vb_x)} {_fmt(vb_y)} {_fmt(vb_w)} {_fmt(vb_h)}">',
        '<g transform="scale(1,-1)">',
    ]


_SVG_CLOSE = ["</g>", "</svg>"]


def render_config(f: HingedFigure, c: Configuration, style: RenderStyle = RenderStyle()) -> str:
    """Static picture of one placed configuration, one path per piece."""
    placed = _placed_points(f, c)
    lines = _svg_open(*_bounds(placed), style.scale)
    for i, pts in enumerate(placed):
        lines.append(
            f'<path d="{_path_d(pts)}" fill="{style.color(i)}" '
            f'stroke="#222222" stroke-width="{_fmt(style.stroke_width)}"/>'
        )
    if style.show_hinges:
        for h in f.hinges:
            x, y = placed[h.piece_a][h.vertex_a]
            lines.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(0.06)}" '
                'fill="#ffffff" stroke="#222222" '
                f'stroke-width="{_fmt(style.stroke_width)}"/>'
            )
    if style.show_labels:
        for i, pts in enumerate(placed):
            cx = sum(x for x, _ in pts) / len(pts)
            cy = sum(y for _, y in pts) / len(pts)
            lines.append(
                f'<text x="{_fmt(cx)}" y="{_fmt(-cy)}" font-size="0.2" '
                f'text-anchor="middle" transform="scale(1,-1)">{i}</text>'
            )
    lines.extend(_SVG_CLOSE)
    return "\n".join(lines) + "\n"


def render_animation(samples: list[MotionSample], style: RenderStyle = RenderStyle(),
                     figure: HingedFigure | None = None,
                     local_points: list | None = None) -> str:
    """Looping animation A -> B -> A over the sampled frames.

    Each piece is one path whose "d" attribute is morphed linearly
    between the per-frame placed outlines.
    """
    if len(samples) < 2:
        raise TooFewFrames(f"need at least 2 samples, got {len(samples)}")
    if local_points is None:
        if figure is None:
            raise ValueError("render_animation needs the figure or explicit local points")
        local_points = [float_polygon(p.as_tuples()) for p in figure.pieces]
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
    lines = _svg_open(min(min_xs), min(min_ys), max(max_xs), max(max_ys), style.scale)
    steps = 2 * len(paths) - 1  # forward then back, sharing the endpoints
    key_times = ";".join(_fmt(i / (steps - 1)) for i in range(steps))
    columns = zip(*paths)  # piece i's forward outlines, joined both ways
    for i, forward in enumerate(columns):
        values = ";".join(forward + forward[-2::-1])
        lines.append(
            f'<path d="{forward[0]}" fill="{style.color(i)}" '
            f'fill-opacity="0.85" stroke="#222222" stroke-width="{_fmt(style.stroke_width)}">'
        )
        lines.append(
            f'<animate attributeName="d" dur="8s" repeatCount="indefinite" '
            f'calcMode="linear" keyTimes="{key_times}" values="{values}"/>'
        )
        lines.append("</path>")
    lines.extend(_SVG_CLOSE)
    return "\n".join(lines) + "\n"


def render_chart(chart: DissectionChart, style: RenderStyle = RenderStyle()) -> str:
    """Source and target assemblies side by side with matching piece colors."""
    source_pts = [float_polygon(pts) for pts in _piece_points(chart)]
    placed_pts = _placed(chart)
    src_min_x, src_min_y, src_max_x, src_max_y = _bounds(
        source_pts + [float_polygon(chart.source.as_tuples())]
    )
    gap = max(src_max_x - src_min_x, 1e-9) * 0.15
    shift = src_max_x - src_min_x + gap
    shifted = [[(x + shift, y) for x, y in pts] for pts in placed_pts]
    everything = source_pts + shifted + [
        [(x + shift, y) for x, y in float_polygon(chart.target.as_tuples())]
    ]
    lines = _svg_open(*_bounds(everything), style.scale)
    lines.append('<g id="source">')
    for i, pts in enumerate(source_pts):
        lines.append(
            f'<path d="{_path_d(pts)}" fill="{style.color(i)}" '
            f'stroke="#222222" stroke-width="{_fmt(style.stroke_width)}"/>'
        )
    lines.append("</g>")
    lines.append(f'<g id="target" transform="translate({_fmt(shift)},0)">')
    for i, pts in enumerate(placed_pts):
        lines.append(
            f'<path d="{_path_d(pts)}" fill="{style.color(i)}" '
            f'stroke="#222222" stroke-width="{_fmt(style.stroke_width)}"/>'
        )
    lines.append("</g>")
    lines.extend(_SVG_CLOSE)
    return "\n".join(lines) + "\n"
