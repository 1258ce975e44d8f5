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
    point,
    point_from_json,
    point_to_json,
    polygon_area,
    rat,
    rational_to_json,
)
from .exact_geom import _bboxes_interiors_overlap, _convex_clip  # noqa: F401 - looked up by perfbench/tracing.py
from .overlap import partition_residuals
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


def check_tolerance(tol) -> None:
    """Raise FigureError unless tol is finite and >= 0: a NaN tolerance
    would pass every comparison, an infinite one every check, and a
    negative one would reject an intact figure."""
    if not (math.isfinite(tol) and tol >= 0):
        raise FigureError(f"tolerance must be finite and >= 0, got {tol!r}")


@dataclass(frozen=True)
class Configuration:
    """One motion per piece; exact configurations tolerate nothing."""

    placements: tuple[RigidMotion, ...]
    mode: str = "exact"
    tolerance: Optional[float] = None

    def __post_init__(self):
        if self.mode not in ("exact", "approx"):
            raise FigureError(f"unknown mode {self.mode!r}")
        if self.tolerance is not None:
            check_tolerance(self.tolerance)

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
    if c.mode == "exact":
        return _verify_exact(f, c, target)
    return _verify_approx(f, c, target)


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
    return _verify(f, c, target, _exact_value, 0)


def _verify_approx(f: HingedFigure, c: Configuration, target: Target) -> VerifyReport:
    return _verify(f, c, target, float, c.effective_tolerance)


def _verify(f: HingedFigure, c: Configuration, target: Target, num, tol) -> VerifyReport:
    """The five checks on coordinates converted by num: exact mode runs on
    ints and Fractions with tol 0, approx mode on doubles.  Only
    HingeCoincidence tests by mode: equal points, or a gap of at most tol."""
    exact = num is _exact_value
    placed = _placed_points(f, c, num)
    failures: list[tuple[str, str]] = []
    for i, m in enumerate(c.placements):
        cos, sin = num(m.rot_cos), num(m.rot_sin)
        err = abs(cos * cos + sin * sin - 1)
        if err > tol:
            text = "rot_cos^2+rot_sin^2 != 1" if exact else f"|cos^2+sin^2-1| = {_value_text(err)}"
            failures.append(("ProperMotion", f"placement {i}: {text}"))

    for idx, h in enumerate(f.hinges):
        (ax, ay), (bx, by) = placed[h.piece_a][h.vertex_a], placed[h.piece_b][h.vertex_b]
        if exact and (ax, ay) != (bx, by):
            a, b = ",".join(map(_value_text, (ax, ay))), ",".join(map(_value_text, (bx, by)))
            failures.append(("HingeCoincidence", f"hinge {idx}: ({a}) vs ({b})"))
        elif not exact and (gap := math.hypot(ax - bx, ay - by)) > tol:
            failures.append(("HingeCoincidence", f"hinge {idx}: gap {_value_text(gap)}"))

    if isinstance(target, Polyomino):
        region, area2 = target.cells, 2 * target.cell_count
    else:
        region = [(num(v.x), num(v.y)) for v in target.vertices]
        area2 = 2 * polygon_area(target)
    partition, total = _partition_failures(
        partition_residuals(placed, region), num(area2), tol, exact,
        ("PairwiseDisjoint", "Containment", "AreaCoverage"), "target",
    )
    failures += partition
    return VerifyReport(not failures, failures, total)


def _placed_points(f: HingedFigure, c: Configuration, num=float) -> list:
    """Each piece's vertices moved by its placement, on the numbers num
    converts to; each distinct piece's vertices are converted once."""
    if len(c.placements) != len(f.pieces):
        raise CountMismatch(f"{len(c.placements)} placements for {len(f.pieces)} pieces")
    motions = [
        (num(m.rot_cos), num(m.rot_sin), num(m.translate.x), num(m.translate.y))
        for m in c.placements
    ]
    local = {}
    for piece in f.pieces:
        if id(piece) not in local:
            local[id(piece)] = [(num(v.x), num(v.y)) for v in piece.vertices]
    return [
        [(cos * x - sin * y + tx, sin * x + cos * y + ty) for x, y in local[id(piece)]]
        for (cos, sin, tx, ty), piece in zip(motions, f.pieces)
    ]


def _partition_failures(residuals, region_area2, tol, exact: bool, checks, region: str):
    """(failures, total area) from partition_residuals and twice the region's
    area.  Each doubled residual is held to a doubled bound, 0 when exact,
    and halved only to be shown; checks names the overlap, containment and
    area checks, region the region in their texts."""
    areas2, overlaps2, outside2 = residuals
    bound2 = tol * region_area2 if tol else 0

    def half_text(v):
        return _value_text(Fraction(v, 2) if exact else v / 2)

    failures = [
        (checks[0], f"pieces {i} and {j} overlap" + ("" if exact else f" by {half_text(area2)}"))
        for i, j, area2 in overlaps2 if area2 > bound2
    ]
    where = "of its area is outside" if exact else f"outside {region}"
    failures += [
        (checks[1], f"piece {i}: {half_text(area2)} {where}")
        for i, area2 in enumerate(outside2) if area2 > bound2
    ]
    total2 = sum(areas2)
    if abs(total2 - region_area2) > bound2:
        text = f"piece areas sum to {half_text(total2)}, {region} {half_text(region_area2)}"
        failures.append((checks[2], text))
    return failures, Fraction(total2, 2) if exact else total2 / 2


_SHORT_BITS = 200  # longer exact numerators or denominators are shown approximately


def _value_text(v) -> str:
    """A computed value for a failure text: a float as :g, an int or
    Fraction exactly while short, else as "~" and a 6-digit approximation
    with the digit counts of its numerator and denominator.  Those come
    from logarithms and bit lengths, so no oversized int goes through
    str() or float()."""
    if isinstance(v, float):
        return f"{v:g}"
    n, d = v.numerator, v.denominator
    if max(n.bit_length(), d.bit_length()) <= _SHORT_BITS:
        return str(v)
    log = math.log10(abs(n)) - math.log10(d)
    mantissa = f"{'-' if n < 0 else ''}{min(10 ** (log % 1), 9.99999):.5f}"
    return f"~{mantissa}e{math.floor(log):+d} ({_digits(abs(n))}/{_digits(d)} digits)"


def _digits(n: int) -> int:
    """Decimal digits of n >= 1: k, those of 2**(bits-1), or k + 1 once n
    reaches 10**k."""
    k = int((n.bit_length() - 1) * math.log10(2)) + 1
    return k + (n >= 10**k)


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
