"""Hinged figures, configurations, the exact/approximate verifier, HDJ files.

A hinged figure stores every piece in its own local frame together with
the hinge incidences pinning piece vertices together.  A configuration
assigns one proper motion per piece; the verifier decides whether the
placed pieces realize a target polygon or polyomino.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .exact_geom import (
    RigidMotion,
    SimplePolygon,
    _bbox,
    _signed_area2,
    point,
    point_from_json,
    point_to_json,
    polygon_area,
    rat,
    rational_to_json,
)
from .exact_geom import _bboxes_interiors_overlap, _convex_clip  # noqa: F401 - looked up by perfbench/tracing.py
from .overlap import cell_bounds, convex_parts, covered_by_cells2, overlap_sum2, pairs_within
from .polyomino import BadSize, Cell, Polyomino, cells_from_json, cells_to_json, int_from_json

DEFAULT_APPROX_TOLERANCE = 1e-9

Target = Union[SimplePolygon, Polyomino]


class FigureError(ValueError):
    """Base class for hinged-figure errors."""


class CountMismatch(FigureError):
    pass


class HdjError(ValueError):
    """Malformed HDJ document."""


@dataclass(frozen=True)
class Hinge:
    """Pin joining vertex_a of piece_a to vertex_b of piece_b."""

    piece_a: int
    vertex_a: int
    piece_b: int
    vertex_b: int


@dataclass(frozen=True)
class HingedFigure:
    """Pieces in local frames plus hinge incidences.

    topology_tag is "cycle" for the canonical chain layout (hinge i joins
    piece i vertex 1 to piece i+1 vertex 2) and "general" otherwise.
    """

    pieces: tuple[SimplePolygon, ...]
    hinges: tuple[Hinge, ...]
    topology_tag: str = "general"

    def __post_init__(self):
        if self.topology_tag not in ("cycle", "general"):
            raise FigureError(f"unknown topology tag {self.topology_tag!r}")
        k = len(self.pieces)
        for h in self.hinges:
            if not (0 <= h.piece_a < k and 0 <= h.piece_b < k):
                raise FigureError(f"hinge piece index out of range: {h}")
            if h.piece_a == h.piece_b:
                raise FigureError(f"hinge joins a piece to itself: {h}")
            if not (0 <= h.vertex_a < len(self.pieces[h.piece_a].vertices)):
                raise FigureError(f"hinge vertex_a out of range: {h}")
            if not (0 <= h.vertex_b < len(self.pieces[h.piece_b].vertices)):
                raise FigureError(f"hinge vertex_b out of range: {h}")
        if self.topology_tag == "cycle":
            if k < 2 or k % 2 != 0 or len(self.hinges) != k:
                raise FigureError("cycle figures need 2k pieces and 2k hinges")
            for i, h in enumerate(self.hinges):
                if h != Hinge(i, 1, (i + 1) % k, 2):
                    raise FigureError(f"hinge {i} breaks the canonical cycle layout")


@dataclass(frozen=True)
class Configuration:
    """One motion per piece; exact configurations tolerate nothing."""

    placements: tuple[RigidMotion, ...]
    mode: str = "exact"
    tolerance: Optional[float] = None

    def __post_init__(self):
        if self.mode not in ("exact", "approx"):
            raise FigureError(f"unknown mode {self.mode!r}")

    @property
    def effective_tolerance(self) -> float:
        if self.mode == "exact":
            return 0.0
        return DEFAULT_APPROX_TOLERANCE if self.tolerance is None else self.tolerance


@dataclass
class VerifyReport:
    accepted: bool
    failures: list[tuple[str, str]]
    computed_area: object  # Fraction in exact mode, float in approx mode

    def failed_checks(self) -> set[str]:
        return {name for name, _ in self.failures}


_CANONICAL_TRIANGLE = SimplePolygon([point(0, 0), point(1, 0), point(0, 1)])


def canonical_chain_figure(n: int) -> HingedFigure:
    """Cycle of 2n congruent right isosceles triangle pieces.

    Each local piece is (0,0),(1,0),(0,1): right angle at vertex 0, base
    (hypotenuse) vertices 1 and 2.  Hinge i pins piece i's vertex 1 to
    piece (i+1)'s vertex 2, closing a cycle.
    """
    if n < 1:
        raise BadSize(f"chain needs n >= 1, got {n}")
    k = 2 * n
    pieces = tuple(_CANONICAL_TRIANGLE for _ in range(k))
    hinges = tuple(Hinge(i, 1, (i + 1) % k, 2) for i in range(k))
    return HingedFigure(pieces, hinges, "cycle")


def figures_equal(f1: HingedFigure, f2: HingedFigure) -> bool:
    """Structural equality: identical vertex lists and hinge tuples."""
    return (
        f1.pieces == f2.pieces
        and f1.hinges == f2.hinges
        and f1.topology_tag == f2.topology_tag
    )


# ---------------------------------------------------------------------------
# verification


def verify_configuration(f: HingedFigure, c: Configuration, target: Target) -> VerifyReport:
    """Run the five acceptance checks of a placed configuration, in order:

    ProperMotion, HingeCoincidence, PairwiseDisjoint, Containment,
    AreaCoverage.  Exact configurations use rational arithmetic with no
    tolerance anywhere; approx configurations run in doubles against the
    configuration's tolerance.
    """
    if len(c.placements) != len(f.pieces):
        raise CountMismatch(
            f"{len(c.placements)} placements for {len(f.pieces)} pieces"
        )
    if c.mode == "exact":
        return _verify_exact(f, c, target)
    return _verify_approx(f, c, target)


def _target_area_exact(target: Target) -> Fraction:
    if isinstance(target, Polyomino):
        return Fraction(target.cell_count)
    return polygon_area(target)


def _exact_value(v):
    """A Fraction whose denominator is 1 as its int; any other value as is.

    Exact verification runs on these values, so a lattice configuration
    (a chain fold: quarter turns, integer translations and cells) runs on
    ints, and any other one mixes ints and Fractions per coordinate.
    """
    if isinstance(v, Fraction) and v.denominator == 1:
        return v.numerator
    return v


def _verify_exact(f: HingedFigure, c: Configuration, target: Target) -> VerifyReport:
    failures: list[tuple[str, str]] = []
    num = _exact_value
    motions = [
        (num(m.rot_cos), num(m.rot_sin), num(m.translate.x), num(m.translate.y))
        for m in c.placements
    ]

    for i, (cos, sin, _, _) in enumerate(motions):
        if cos * cos + sin * sin != 1:
            failures.append(
                ("ProperMotion", f"placement {i}: rot_cos^2+rot_sin^2 != 1")
            )

    local = {}  # each distinct piece's vertices, converted once
    for piece in f.pieces:
        if id(piece) not in local:
            local[id(piece)] = [(num(v.x), num(v.y)) for v in piece.vertices]
    placed = [
        [(cos * x - sin * y + tx, sin * x + cos * y + ty) for x, y in local[id(piece)]]
        for (cos, sin, tx, ty), piece in zip(motions, f.pieces)
    ]

    for idx, h in enumerate(f.hinges):
        (ax, ay), (bx, by) = placed[h.piece_a][h.vertex_a], placed[h.piece_b][h.vertex_b]
        if (ax, ay) != (bx, by):
            failures.append(("HingeCoincidence", f"hinge {idx}: ({ax},{ay}) vs ({bx},{by})"))

    parts = [convex_parts(pts) for pts in placed]
    boxes = [_bbox(pts) for pts in placed]

    for i, j in pairs_within(boxes):
        if overlap_sum2(parts[i], parts[j]) > 0:
            failures.append(("PairwiseDisjoint", f"pieces {i} and {j} overlap"))

    # doubled areas, so int coordinates are never halved
    areas2 = [_signed_area2(pts) for pts in placed]
    for i, covered2 in enumerate(_covered_areas2(parts, boxes, target, num)):
        if covered2 != areas2[i]:
            outside = Fraction(areas2[i] - covered2, 2)
            failures.append(("Containment", f"piece {i}: {outside} of its area is outside"))

    total = Fraction(sum(areas2), 2)
    target_area = _target_area_exact(target)
    if total != target_area:
        failures.append(("AreaCoverage", f"piece areas sum to {total}, target {target_area}"))

    return VerifyReport(not failures, failures, total)


def _covered_areas2(parts, boxes, target: Target, num) -> list:
    """Twice the area of each placed piece inside the target, from its
    convex parts.

    A polyomino is covered through the cells near each piece, a polygon
    through its own convex parts; num converts target coordinates to the
    pieces' number type.
    """
    if isinstance(target, Polyomino):
        bounds = cell_bounds(target.cells)
        return [
            covered_by_cells2(p, box, target.cells, bounds, num) for p, box in zip(parts, boxes)
        ]
    target_parts = convex_parts([(num(v.x), num(v.y)) for v in target.vertices])
    return [overlap_sum2(p, target_parts) for p in parts]


def _verify_approx(f: HingedFigure, c: Configuration, target: Target) -> VerifyReport:
    tol = c.effective_tolerance
    failures: list[tuple[str, str]] = []

    mats = []
    for i, m in enumerate(c.placements):
        cos = float(m.rot_cos)
        sin = float(m.rot_sin)
        tx = float(m.translate.x)
        ty = float(m.translate.y)
        mats.append((cos, sin, tx, ty))
        err = abs(cos * cos + sin * sin - 1.0)
        if err > tol:
            failures.append(("ProperMotion", f"placement {i}: |cos^2+sin^2-1| = {err:g}"))

    def place(i, v):
        cos, sin, tx, ty = mats[i]
        x, y = float(v.x), float(v.y)
        return (cos * x - sin * y + tx, sin * x + cos * y + ty)

    placed = [
        [place(i, v) for v in piece.vertices] for i, piece in enumerate(f.pieces)
    ]

    for idx, h in enumerate(f.hinges):
        (ax, ay), (bx, by) = placed[h.piece_a][h.vertex_a], placed[h.piece_b][h.vertex_b]
        gap = math.hypot(ax - bx, ay - by)
        if gap > tol:
            failures.append(("HingeCoincidence", f"hinge {idx}: gap {gap:g}"))
    parts = [convex_parts(pts) for pts in placed]
    boxes = [_bbox(pts) for pts in placed]
    target_area = float(_target_area_exact(target))

    for i, j in pairs_within(boxes):
        area = overlap_sum2(parts[i], parts[j]) / 2
        if area > tol * target_area:
            failures.append(
                ("PairwiseDisjoint", f"pieces {i} and {j} overlap by {area:g}")
            )

    areas = [_signed_area2(pts) / 2.0 for pts in placed]
    for i, covered2 in enumerate(_covered_areas2(parts, boxes, target, float)):
        outside = areas[i] - covered2 / 2
        if outside > tol * target_area:
            failures.append(("Containment", f"piece {i}: {outside:g} outside target"))

    total = sum(areas)
    if abs(total - target_area) > tol * target_area:
        failures.append(
            ("AreaCoverage", f"piece areas sum to {total:g}, target {target_area:g}")
        )

    return VerifyReport(not failures, failures, total)


# ---------------------------------------------------------------------------
# HDJ ("hinged dissection JSON") files


@dataclass
class NamedConfiguration:
    name: str
    configuration: Configuration


@dataclass
class NamedTarget:
    name: str
    kind: str  # "polygon" | "polyomino"
    data: Target


@dataclass
class HdjFile:
    figure: HingedFigure
    configurations: list[NamedConfiguration] = field(default_factory=list)
    targets: list[NamedTarget] = field(default_factory=list)
    cell_map: Optional[dict] = None

    def pairs(self) -> list[tuple[NamedConfiguration, NamedTarget]]:
        """Pair configurations with targets by index (single target fans out)."""
        if not self.targets:
            raise HdjError("document has no targets")
        if len(self.targets) == 1:
            return [(nc, self.targets[0]) for nc in self.configurations]
        if len(self.targets) != len(self.configurations):
            raise HdjError(
                f"{len(self.configurations)} configurations vs {len(self.targets)} targets"
            )
        return list(zip(self.configurations, self.targets))


def _num_to_json(value: Fraction, approx: bool):
    if approx:
        return float(value)
    return rational_to_json(value)


def _point_encoder(approx: bool):
    if approx:
        return lambda v: [float(v.x), float(v.y)]
    return point_to_json


def figure_to_json(f: HingedFigure, approx: bool = False) -> dict:
    encode = _point_encoder(approx)
    return {
        "pieces": [[encode(v) for v in piece.vertices] for piece in f.pieces],
        "hinges": [[h.piece_a, h.vertex_a, h.piece_b, h.vertex_b] for h in f.hinges],
        "topology": f.topology_tag,
    }


def figure_from_json(obj) -> HingedFigure:
    """Parse a figure; identical pieces share one validated SimplePolygon.

    Pieces are keyed on their parsed points, not on the JSON values
    (true == 1 == 1.0 there), and the keys live for this call only.  A
    key holds each coordinate's numerator and denominator, which hash
    much faster than the Fraction.
    """
    try:
        polygons: dict[tuple, SimplePolygon] = {}
        pieces = []
        for piece in obj["pieces"]:
            pts = [point_from_json(v) for v in piece]
            key = tuple(
                (p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator) for p in pts
            )
            if key not in polygons:
                polygons[key] = SimplePolygon(pts)
            pieces.append(polygons[key])
        pieces = tuple(pieces)
        hinges = tuple(Hinge(*[int_from_json(x) for x in h]) for h in obj["hinges"])
        return HingedFigure(pieces, hinges, obj.get("topology", "general"))
    except HdjError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise HdjError(f"bad figure encoding: {exc}") from exc


def configuration_to_json(nc: NamedConfiguration) -> dict:
    c = nc.configuration
    approx = c.mode == "approx"
    out = {
        "name": nc.name,
        "mode": c.mode,
        "placements": [
            {
                "cos": _num_to_json(m.rot_cos, approx),
                "sin": _num_to_json(m.rot_sin, approx),
                "tx": _num_to_json(m.translate.x, approx),
                "ty": _num_to_json(m.translate.y, approx),
            }
            for m in c.placements
        ],
    }
    if c.tolerance is not None:
        out["tolerance"] = c.tolerance
    return out


def configuration_from_json(obj) -> NamedConfiguration:
    if not isinstance(obj, dict):
        raise HdjError(f"bad configuration encoding: expected an object, got {obj!r}")
    try:
        mode = obj.get("mode", "exact")
        placements = tuple(
            RigidMotion(rat(m["cos"]), rat(m["sin"]), point(m["tx"], m["ty"]))
            for m in obj["placements"]
        )
        tol = obj.get("tolerance")
        config = Configuration(placements, mode, None if tol is None else float(tol))
        return NamedConfiguration(str(obj.get("name", "")), config)
    except (KeyError, TypeError, ValueError) as exc:
        raise HdjError(f"bad configuration encoding: {exc}") from exc


def target_to_json(nt: NamedTarget, approx: bool = False) -> dict:
    if nt.kind == "polygon":
        encode = _point_encoder(approx)
        data = [encode(v) for v in nt.data.vertices]
    elif nt.kind == "polyomino":
        data = cells_to_json(nt.data)
    else:
        raise HdjError(f"unknown target kind {nt.kind!r}")
    return {"name": nt.name, "kind": nt.kind, "data": data}


def target_from_json(obj) -> NamedTarget:
    if not isinstance(obj, dict):
        raise HdjError(f"bad target encoding: expected an object, got {obj!r}")
    try:
        kind = obj["kind"]
        if kind == "polygon":
            data = SimplePolygon([point_from_json(v) for v in obj["data"]])
        elif kind == "polyomino":
            data = cells_from_json(obj["data"])
        else:
            raise HdjError(f"unknown target kind {kind!r}")
        return NamedTarget(str(obj.get("name", "")), kind, data)
    except HdjError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise HdjError(f"bad target encoding: {exc}") from exc


def hdj_to_json(doc: HdjFile) -> dict:
    # decimals are only readable (and only safe) when nothing downstream
    # expects exactness, i.e. when every stored configuration is approx
    approx = bool(doc.configurations) and all(
        nc.configuration.mode == "approx" for nc in doc.configurations
    )
    out = {
        "figure": figure_to_json(doc.figure, approx),
        "configurations": [configuration_to_json(nc) for nc in doc.configurations],
        "targets": [target_to_json(nt, approx) for nt in doc.targets],
    }
    if doc.cell_map is not None:
        out["cell_map"] = [
            [[cell[0], cell[1]], [pair[0], pair[1]]]
            for cell, pair in sorted(doc.cell_map.items())
        ]
    return out


def hdj_from_json(obj) -> HdjFile:
    if not isinstance(obj, dict) or "figure" not in obj:
        raise HdjError("document has no figure")
    figure = figure_from_json(obj["figure"])
    configurations = [configuration_from_json(c) for c in _json_list(obj, "configurations")]
    for nc in configurations:
        if len(nc.configuration.placements) != len(figure.pieces):
            raise HdjError(
                f"configuration {nc.name!r}: {len(nc.configuration.placements)} placements"
                f" for {len(figure.pieces)} pieces"
            )
    targets = [target_from_json(t) for t in _json_list(obj, "targets")]
    cell_map = None
    if "cell_map" in obj:
        try:
            cell_map = {
                Cell(int_from_json(c[0]), int_from_json(c[1])):
                    (int_from_json(p[0]), int_from_json(p[1]))
                for c, p in obj["cell_map"]
            }
        except (TypeError, ValueError, IndexError, KeyError) as exc:
            raise HdjError(f"bad cell_map encoding: {exc}") from exc
    return HdjFile(figure, configurations, targets, cell_map)


def _json_list(obj: dict, key: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise HdjError(f"{key} must be a list, got {value!r}")
    return value


@contextlib.contextmanager
def atomic_output(path):
    """Open a text file that appears at path complete or not at all.

    Writes go to a temporary file in the same directory, which replaces
    path when the block ends.  If the block raises, the temporary file is
    removed and any earlier file at path is left untouched.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, f"cannot write {path}: {exc.strerror}") from exc
        raise


def save_hdj(path, doc: HdjFile):
    with atomic_output(path) as fh:
        json.dump(hdj_to_json(doc), fh, indent=1)
        fh.write("\n")


def load_hdj(path) -> HdjFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise HdjError(f"not valid JSON: {exc}") from exc
    return hdj_from_json(obj)
