"""Hinged figures, configurations, the exact/approximate verifier, HDJ files.

A hinged figure stores every piece in its own local frame together with
the hinge incidences pinning piece vertices together.  A configuration
assigns one proper motion per piece; the verifier decides whether the
placed pieces realize a target polygon or polyomino.
"""

from __future__ import annotations

import contextlib
import errno
import json
import math
import os
from fractions import Fraction
from itertools import chain, count, groupby, repeat
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence, Union

from .exact_geom import (
    InvalidPolygon,
    Point2,
    RigidMotion,
    SimplePolygon,
    _signed_area2,
    point,
    point_from_json,
    rat,
    rational_to_json,
)
from .exact_geom import _bboxes_interiors_overlap, _convex_clip  # noqa: F401 - looked up by perfbench/tracing.py
from .overlap import cell_partition_residuals, convex_parts, partition_residuals
from .polyomino import BadSize, Cell, Polyomino, cells_from_json, cells_to_json, int_from_json
from .polyomino import is_table

DEFAULT_APPROX_TOLERANCE = 1e-9

Target = Union[SimplePolygon, Polyomino]


class FigureError(ValueError):
    """Base class for hinged-figure errors."""


class CountMismatch(FigureError):
    pass


class HdjError(ValueError):
    """Malformed HDJ document."""


class Hinge(NamedTuple):
    """Pin joining vertex_a of piece_a to vertex_b of piece_b: a tuple of
    four ints, equal to the plain tuple of the same ints."""

    piece_a: int
    vertex_a: int
    piece_b: int
    vertex_b: int


def _hinge_text(h: Hinge) -> str:
    """A hinge as its repr, each value quoted to at most 40 characters."""
    return "Hinge(" + ", ".join(f"{name}={v!r:.40}" for name, v in zip(h._fields, h)) + ")"


class _FigureFields(NamedTuple):
    pieces: tuple[SimplePolygon, ...]
    hinges: tuple[Hinge, ...]
    topology_tag: str


class HingedFigure(_FigureFields):
    """Pieces in local frames plus hinge incidences.

    topology_tag is "cycle" for the canonical chain layout (hinge i joins
    piece i vertex 1 to piece i+1 vertex 2) and "general" otherwise.  A
    figure is checked when it is built, by _replace too.  Each piece is a
    SimplePolygon, so simple and ccw, as the exact verifier's proof needs.
    """

    __slots__ = ()

    def __new__(cls, pieces, hinges, topology_tag="general"):
        for i, piece in enumerate(pieces):
            if not isinstance(piece, SimplePolygon):
                raise FigureError(f"piece {i} is not a SimplePolygon")
        k = len(pieces)
        if topology_tag == "cycle":
            if k < 2 or k % 2 != 0 or len(hinges) != k:
                raise FigureError("cycle figures need 2k pieces and 2k hinges")
            layout = _cycle_layout(k)
            if hinges != layout:
                i = next(i for i, (h, canonical) in enumerate(zip(hinges, layout))
                         if h != canonical)
                raise FigureError(f"hinge {i} breaks the canonical cycle layout")
            # the hinges pin vertices 1 and 2 of pieces i != i+1 mod k; a
            # run of one shared polygon, as in a chain fold, is looked at once
            if min(len(piece) for piece, _ in groupby(pieces)) < 3:
                raise FigureError("a cycle piece needs 3 or more vertices")
        elif topology_tag == "general":
            for h in hinges:
                if not (0 <= h.piece_a < k and 0 <= h.piece_b < k):
                    raise FigureError(f"hinge piece index out of range: {_hinge_text(h)}")
                if h.piece_a == h.piece_b:
                    raise FigureError(f"hinge joins a piece to itself: {_hinge_text(h)}")
                if not (0 <= h.vertex_a < len(pieces[h.piece_a])):
                    raise FigureError(f"hinge vertex_a out of range: {_hinge_text(h)}")
                if not (0 <= h.vertex_b < len(pieces[h.piece_b])):
                    raise FigureError(f"hinge vertex_b out of range: {_hinge_text(h)}")
        else:
            raise FigureError(f"unknown topology tag {topology_tag!r:.40}")
        return super().__new__(cls, pieces, hinges, topology_tag)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls _make


def _cycle_layout(k: int) -> tuple:
    """The hinges of the canonical k-piece cycle as plain int tuples: hinge
    i joins piece i's vertex 1 to piece i+1's vertex 2, mod k."""
    return tuple([(i, 1, i + 1, 2) for i in range(k - 1)] + [(k - 1, 1, 0, 2)])


def check_tolerance(tol) -> None:
    """Raise FigureError unless tol is finite and >= 0: a NaN tolerance
    would pass every comparison, an infinite one every check, and a
    negative one would reject an intact figure."""
    if not (math.isfinite(tol) and tol >= 0):
        raise FigureError(f"tolerance must be finite and >= 0, got {tol!r}")


class _ConfigurationFields(NamedTuple):
    placements: tuple[RigidMotion, ...]
    mode: str
    tolerance: Optional[float]


class Configuration(_ConfigurationFields):
    """One motion per piece; exact configurations tolerate nothing.
    Checked when built, by _replace too."""

    __slots__ = ()

    def __new__(cls, placements, mode="exact", tolerance=None):
        if mode not in ("exact", "approx"):
            raise FigureError(f"unknown mode {mode!r:.40}")
        if tolerance is not None:
            check_tolerance(tolerance)
        return super().__new__(cls, placements, mode, tolerance)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls _make

    @property
    def effective_tolerance(self) -> float:
        if self.mode == "exact":
            return 0.0
        return DEFAULT_APPROX_TOLERANCE if self.tolerance is None else self.tolerance


class VerifyReport(NamedTuple):
    failures: list[tuple[str, str]]
    computed_area: object  # Fraction in exact mode, float in approx mode

    @property
    def accepted(self) -> bool:
        return not self.failures


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
    return HingedFigure(pieces, tuple(map(Hinge._make, _cycle_layout(k))), "cycle")


# ---------------------------------------------------------------------------
# verification


def verify_configuration(f: HingedFigure, c: Configuration, target: Target) -> VerifyReport:
    """Run the five acceptance checks of a placed configuration, in order:

    ProperMotion, HingeCoincidence, PairwiseDisjoint, Containment,
    AreaCoverage.  Exact configurations use rational arithmetic with no
    tolerance anywhere; approx configurations run in doubles against the
    configuration's tolerance.  The target is a SimplePolygon or a
    Polyomino, else a FigureError.
    """
    if not isinstance(target, (SimplePolygon, Polyomino)):
        raise FigureError(f"target is not a SimplePolygon or a Polyomino: {type(target).__name__}")
    if c.mode == "exact":
        return _verify_exact(f, c, target)
    return _verify_approx(f, c, target)


def _verify_exact(f: HingedFigure, c: Configuration, target: Target) -> VerifyReport:
    return _verify(f, c, target, None, 0)


def _verify_approx(f: HingedFigure, c: Configuration, target: Target) -> VerifyReport:
    return _verify(f, c, target, float, c.effective_tolerance)


def _verify(f: HingedFigure, c: Configuration, target: Target, num, tol) -> VerifyReport:
    """The five checks.  Exact mode (num None) runs on the stored ints and
    Fractions with tol 0, so a chain fold runs on ints; approx mode on the
    doubles num converts them to.  Only HingeCoincidence tests by mode:
    equal points, or a gap of at most tol.  Each residual passes only
    when it is <= its bound, so a NaN fails."""
    exact = num is None
    motions, placed = _placed_points(f, c, num)
    failures: list[tuple[str, str]] = []
    for i, (cos, sin, _, _) in enumerate(motions):
        err = abs(cos * cos + sin * sin - 1)
        if not err <= tol:
            text = "rot_cos^2+rot_sin^2 != 1" if exact else f"|cos^2+sin^2-1| = {_value_text(err)}"
            failures.append(("ProperMotion", f"placement {i}: {text}"))

    for idx, h in enumerate(f.hinges):
        (ax, ay), (bx, by) = placed[h.piece_a][h.vertex_a], placed[h.piece_b][h.vertex_b]
        if exact and (ax, ay) != (bx, by):
            a, b = ",".join(map(_value_text, (ax, ay))), ",".join(map(_value_text, (bx, by)))
            failures.append(("HingeCoincidence", f"hinge {idx}: ({a}) vs ({b})"))
        elif not exact and not (gap := math.hypot(ax - bx, ay - by)) <= tol:
            failures.append(("HingeCoincidence", f"hinge {idx}: gap {_value_text(gap)}"))

    partition, total = _partition_failures(
        placed, target, tol, exact, ("PairwiseDisjoint", "Containment", "AreaCoverage"), "target",
    )
    failures += partition
    return VerifyReport(failures, total)


def _placed_points(f: HingedFigure, c: Configuration, num=float) -> tuple[list, list]:
    """(motions, placed): each placement's (cos, sin, tx, ty) and each
    piece's vertices moved by it, on the numbers num converts to, or on
    the stored values when num is None; each distinct piece's vertices
    are converted once."""
    if len(c.placements) != len(f.pieces):
        raise CountMismatch(f"{len(c.placements)} placements for {len(f.pieces)} pieces")
    motions = [(m.rot_cos, m.rot_sin, m.translate.x, m.translate.y) for m in c.placements]
    local = {id(piece): piece for piece in f.pieces}
    if num is not None:
        motions = [tuple(map(num, m)) for m in motions]
        local = {key: [(num(x), num(y)) for x, y in pts] for key, pts in local.items()}
    return motions, [
        [(cos * x - sin * y + tx, sin * x + cos * y + ty) for x, y in local[id(piece)]]
        for (cos, sin, tx, ty), piece in zip(motions, f.pieces)
    ]


def _partition_failures(pieces, region, tol, exact: bool, checks, name: str):
    """(failures, total area) of the check that pieces, lists of (x, y)
    points, partition a region: a ccw simple polygon's points or a
    polyomino's frozenset of cells.  The region's kind alone picks the
    path: pieces on cells, exact or float, go to the cancellation
    certificate; nothing cancels against a polygon, whose maximal sides
    piece edges meet at T-junctions, so pieces on a polygon go to the
    engine, float pieces against the polygon in floats.
    Each doubled residual is held to a doubled bound, 0 when exact, and
    halved only to be shown, and passes only when it is <= the bound, so
    a NaN fails; checks names the overlap, containment and area checks,
    name the region in their texts.  A piece that cannot be cut into
    convex parts, such as a float piece that is not simple, fails the
    overlap check by name instead of raising; without its parts, only
    the areas are checked."""
    cells = isinstance(region, frozenset)
    region_area2 = 2 * len(region) if cells else _signed_area2(region)
    if not exact:
        region_area2 = float(region_area2)
        region = region if cells else [(float(x), float(y)) for x, y in region]
    residuals_of = cell_partition_residuals if cells else partition_residuals
    failures = []
    try:
        residuals = residuals_of(pieces, region)
    except InvalidPolygon:
        failures = [(checks[0], f"piece {k} cannot be cut into convex parts: {error}")
                    for k, pts in enumerate(pieces) if (error := _split_error(pts))]
        if not failures:  # the region's own split failed
            raise
        residuals = ([_signed_area2(pts) for pts in pieces], [], [0] * len(pieces))
    areas2, overlaps2, outside2 = residuals
    bound2 = tol * region_area2 if tol else 0

    def half_text(v):
        return _value_text(Fraction(v, 2) if exact else v / 2)

    failures += [
        (checks[0], f"pieces {i} and {j} overlap" + ("" if exact else f" by {half_text(area2)}"))
        for i, j, area2 in overlaps2 if not area2 <= bound2
    ]
    where = "of its area is outside" if exact else f"outside {name}"
    failures += [
        (checks[1], f"piece {i}: {half_text(area2)} {where}")
        for i, area2 in enumerate(outside2) if not area2 <= bound2
    ]
    total2 = 0  # left to right, as overlap_sum2 adds, on every Python
    for area2 in areas2:
        total2 += area2
    if not abs(total2 - region_area2) <= bound2:
        text = f"piece areas sum to {half_text(total2)}, {name} {half_text(region_area2)}"
        off = "" if exact else f", off by {half_text(abs(total2 - region_area2))}"
        failures.append((checks[2], text + off))
    return failures, Fraction(total2, 2) if exact else total2 / 2


def _split_error(pts):
    """The text of the InvalidPolygon that convex_parts raises on pts, or None."""
    try:
        convex_parts(pts)
    except InvalidPolygon as exc:
        return str(exc)
    return None


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


class NamedConfiguration(NamedTuple):
    name: str
    configuration: Configuration


class NamedTarget(NamedTuple):
    name: str
    data: Target

    @property
    def kind(self) -> str:
        return "polyomino" if isinstance(self.data, Polyomino) else "polygon"


class HdjFile(NamedTuple):
    figure: HingedFigure
    configurations: Sequence[NamedConfiguration] = ()
    targets: Sequence[NamedTarget] = ()
    cell_map: Optional[dict] = None

    def pairs(self) -> list[tuple[NamedConfiguration, NamedTarget]]:
        """Pair configurations with targets by index (single target fans out)."""
        if not self.configurations:
            raise HdjError("document has no configurations")
        if not self.targets:
            raise HdjError("document has no targets")
        if len(self.targets) == 1:
            return [(nc, self.targets[0]) for nc in self.configurations]
        if len(self.targets) != len(self.configurations):
            raise HdjError(
                f"{len(self.configurations)} configurations vs {len(self.targets)} targets"
            )
        return list(zip(self.configurations, self.targets))


def figure_to_json(f: HingedFigure, approx: bool = False) -> dict:
    """The figure as JSON values, coordinates as floats when approx and
    as rational_to_json values otherwise.  Pieces that are one
    SimplePolygon share one encoded list, so each is encoded once."""
    encode = float if approx else rational_to_json
    encoded = {}
    for piece in f.pieces:
        if id(piece) not in encoded:
            encoded[id(piece)] = [[encode(x), encode(y)] for x, y in piece]
    return {
        "pieces": [encoded[id(piece)] for piece in f.pieces],
        "hinges": [list(h) for h in f.hinges],
        "topology": f.topology_tag,
    }


def figure_from_json(obj) -> HingedFigure:
    """Parse a figure; identical pieces share one validated SimplePolygon."""
    try:
        pieces = _pieces_from_json(obj["pieces"])
        hinges = obj["hinges"]
        if is_table(hinges, 4):
            hinges = tuple(map(tuple.__new__, repeat(Hinge), hinges))
        else:  # int_from_json names the first value that is not an int
            hinges = tuple(Hinge(*map(int_from_json, h)) for h in hinges)
        return HingedFigure(pieces, hinges, obj.get("topology", "general"))
    except HdjError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise HdjError(f"bad figure encoding: {exc}") from exc


def _pieces_from_json(pieces) -> tuple[SimplePolygon, ...]:
    """The pieces, each distinct list of points validated once: a piece
    whose JSON equals the previous one's takes its polygon when every
    point is a pair of ints, floats or strings (true == 1), and any other
    is looked up by its points, read by point_from_json unless all ints."""
    points = list(chain.from_iterable(pieces)) if set(map(type, pieces)) <= {list} else None
    ints = is_table(points, 2)
    reuse = ints or is_table(points, 2, (int, float, str))
    to_point = Point2._make if ints else point_from_json
    by_points: dict[tuple[Point2, ...], SimplePolygon] = {}
    out = []
    last_json, polygon = object(), None  # at first, no piece equals last_json
    for piece in pieces:
        if not (reuse and piece == last_json):
            key = tuple(map(to_point, piece))
            polygon = by_points.get(key)
            if polygon is None:
                polygon = by_points[key] = SimplePolygon(key)
            last_json = piece
        out.append(polygon)
    return tuple(out)


def configuration_to_json(nc: NamedConfiguration) -> dict:
    c = nc.configuration
    encode = float if c.mode == "approx" else rational_to_json
    out = {
        "name": nc.name,
        "mode": c.mode,
        "placements": [
            {
                "cos": encode(m.rot_cos),
                "sin": encode(m.rot_sin),
                "tx": encode(m.translate.x),
                "ty": encode(m.translate.y),
            }
            for m in c.placements
        ],
    }
    if c.tolerance is not None:
        out["tolerance"] = c.tolerance
    return out


_MOTION_KEYS = ("cos", "sin", "tx", "ty")


def _placements_from_json(placements) -> tuple[RigidMotion, ...]:
    """One motion per {"cos", "sin", "tx", "ty"} object: ints as they are,
    any other value through rat once per distinct (type, value), and
    when that fails, rat value by value, which names the first bad one."""
    try:
        values = list(chain.from_iterable(map(itemgetter(*_MOTION_KEYS), placements)))
        if not set(map(type, values)) <= {int}:
            typed = list(zip(map(type, values), values))  # keeps true apart from 1
            rats = {key: rat(key[1]) for key in set(typed)}
            values = list(map(rats.__getitem__, typed))
    except (KeyError, TypeError, ValueError):
        values = [rat(m[key]) for m in placements for key in _MOTION_KEYS]
    translations = map(tuple.__new__, repeat(Point2), zip(values[2::4], values[3::4]))
    motions = zip(values[::4], values[1::4], translations)
    return tuple(map(tuple.__new__, repeat(RigidMotion), motions))


def _name_from_json(obj) -> str:
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise TypeError(f"name must be a string, got {name!r:.40}")
    return name


def configuration_from_json(obj) -> NamedConfiguration:
    if not isinstance(obj, dict):
        raise HdjError(f"bad configuration encoding: expected an object, got {obj!r:.40}")
    try:
        mode = obj.get("mode", "exact")
        placements = _placements_from_json(obj["placements"])
        # a JSON int or float, not a bool, finite as a double: float()
        # overflows beyond that range, and Configuration rejects a NaN
        tol = obj.get("tolerance")
        if tol is not None and type(tol) not in (int, float):
            raise HdjError(f"tolerance must be a number, got {tol!r:.40}")
        config = Configuration(placements, mode, None if tol is None else float(tol))
        return NamedConfiguration(_name_from_json(obj), config)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise HdjError(f"bad configuration encoding: {exc}") from exc


def target_to_json(nt: NamedTarget, approx: bool = False) -> dict:
    """A target's JSON object.  Data that is neither a Polyomino nor a
    SimplePolygon is a FigureError: target_from_json could not read it."""
    if nt.kind == "polyomino":
        data = cells_to_json(nt.data)
    elif not isinstance(nt.data, SimplePolygon):
        raise FigureError(
            f"target {nt.name!r} is not a SimplePolygon or a Polyomino: {type(nt.data).__name__}"
        )
    else:
        encode = float if approx else rational_to_json
        data = [[encode(x), encode(y)] for x, y in nt.data]
    return {"name": nt.name, "kind": nt.kind, "data": data}


def target_from_json(obj) -> NamedTarget:
    if not isinstance(obj, dict):
        raise HdjError(f"bad target encoding: expected an object, got {obj!r:.40}")
    try:
        kind = obj["kind"]
        if kind == "polygon":
            data = SimplePolygon([point_from_json(v) for v in obj["data"]])
        elif kind == "polyomino":
            data = cells_from_json(obj["data"])
        else:
            raise HdjError(f"unknown target kind {kind!r:.40}")
        return NamedTarget(_name_from_json(obj), data)
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
                f"configuration {nc.name!r:.40}: {len(nc.configuration.placements)} placements"
                f" for {len(figure.pieces)} pieces"
            )
    targets = [target_from_json(t) for t in _json_list(obj, "targets")]
    cell_map = None
    if "cell_map" in obj:
        entries = obj["cell_map"]
        try:
            pairs = list(chain.from_iterable(entries)) if is_table(entries, 2, (list,)) else None
            if is_table(pairs, 2):  # [[x, y], [i, j]] entries of ints, taken as they are
                cells = map(tuple.__new__, repeat(Cell), pairs[::2])
                cell_map = dict(zip(cells, map(tuple, pairs[1::2])))
            else:  # int_from_json names the first value that is not an int
                cell_map = {
                    Cell(int_from_json(c[0]), int_from_json(c[1])):
                        (int_from_json(p[0]), int_from_json(p[1]))
                    for c, p in entries
                }
        except (TypeError, ValueError, IndexError, KeyError) as exc:
            raise HdjError(f"bad cell_map encoding: {exc}") from exc
    return HdjFile(figure, configurations, targets, cell_map)


def _json_list(obj: dict, key: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise HdjError(f"{key} must be a list, got {value!r:.40}")
    return value


def write_json(obj, fh) -> None:
    """Write obj to fh as json.dumps writes it, on one line ended by a
    newline: the layout of every HDJ document and chart."""
    fh.write(json.dumps(obj) + "\n")


@contextlib.contextmanager
def atomic_output(path):
    """Open a text file that appears at path complete or not at all.

    Writes go to the first free name of path.<pid>.tmp, path.<pid>.1.tmp,
    ..., which replaces path when the block ends.  If the block raises,
    that file is removed and any earlier file at path is left untouched.
    An OSError is raised again naming path, unless a nested block has
    named its own.  A path that is a directory raises before anything is
    opened, so a block that writes another output never runs.
    """
    fh = None
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        base = f"{os.fspath(path)}.{os.getpid()}"
        for k in count():  # a name that another file holds is passed over
            with contextlib.suppress(FileExistsError):
                fh = open(f"{base}.{k}.tmp" if k else f"{base}.tmp", "x", encoding="utf-8")
                break
        with fh:
            yield fh
        os.replace(fh.name, path)
    except BaseException as exc:
        if fh is not None:  # the file this call made, never another's
            with contextlib.suppress(OSError):
                os.unlink(fh.name)
        if isinstance(exc, OSError) and exc.__cause__ is None:
            raise OSError(exc.errno, f"cannot write {path}: {exc.strerror}") from exc
        raise


def save_hdj(path, doc: HdjFile):
    with atomic_output(path) as fh:
        write_json(hdj_to_json(doc), fh)


def read_json(path, **kwargs):
    """json.load of the file at path; JSON nested too deeply for it is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, **kwargs)
        except RecursionError:  # json.load recurses once per level of nesting
            raise ValueError("JSON nested deeper than the recursion limit") from None


def load_hdj(path) -> HdjFile:
    """The HDJ document at path; a file that holds none raises HdjError."""
    try:
        obj = read_json(path)
    except json.JSONDecodeError as exc:
        raise HdjError(f"not valid JSON: {exc}") from exc
    except ValueError as exc:  # not UTF-8, nested too deeply, or an int too long
        raise HdjError(str(exc)) from exc
    return hdj_from_json(obj)
