"""The HDJ reader against a per-value reference: a differential test.

The reference is the reader as first written, one value at a time:
``figure_from_json`` looks each piece up by the repr of its JSON and
then by its parsed points, ``_hinge_from_json`` reads a hinge, each
placement value goes through ``rat`` once per distinct (type, value),
and ``cells_from_json`` checks every cell before ``Polyomino`` checks
them again.  The reader under test checks each JSON column in bulk.  On
intact documents, on fuzzed ones and on hand cases that put a bool, a
float, a string or a list in each column, both must return equal
documents with the same type at every coordinate and motion value, and
share pieces alike, or raise the same exception with the same text.
"""

import json

import pytest
from hypothesis import given, settings

from chainfold.chain import dissect_pair, fold_chain
from chainfold.exact_geom import Point2, RigidMotion, SimplePolygon, point_from_json, rat
from chainfold.figures import (
    Configuration,
    HdjError,
    HdjFile,
    Hinge,
    HingedFigure,
    NamedConfiguration,
    NamedTarget,
    hdj_from_json,
    hdj_to_json,
)
from chainfold.polyomino import (
    BadCharacter,
    Cell,
    Polyomino,
    int_from_json,
    parse_grid,
    random_polyomino,
)

from test_cli import _mutated_documents

# ---------------------------------------------------------------------------
# the reference reader


def reference_figure_from_json(obj) -> HingedFigure:
    try:
        by_text = {}
        by_points = {}
        pieces = []
        for piece in obj["pieces"]:
            text = repr(piece)
            polygon = by_text.get(text)
            if polygon is None:
                key = tuple(point_from_json(v) for v in piece)
                if key not in by_points:
                    by_points[key] = SimplePolygon(key)
                polygon = by_text[text] = by_points[key]
            pieces.append(polygon)
        hinges = tuple(map(_reference_hinge_from_json, obj["hinges"]))
        return HingedFigure(tuple(pieces), hinges, obj.get("topology", "general"))
    except HdjError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise HdjError(f"bad figure encoding: {exc}") from exc


def _reference_hinge_from_json(h) -> Hinge:
    if type(h) is list and len(h) == 4:
        a, b, c, d = h
        if type(a) is type(b) is type(c) is type(d) is int:
            return Hinge(a, b, c, d)
    return Hinge(*[int_from_json(x) for x in h])


def _rat_once(cache: dict, value):
    try:
        return cache[type(value), value]
    except KeyError:
        cache[type(value), value] = r = rat(value)
        return r
    except TypeError:  # an unhashable value: rat names it in its error
        return rat(value)


def _reference_name(obj) -> str:
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise TypeError(f"name must be a string, got {name!r:.40}")
    return name


def reference_configuration_from_json(obj) -> NamedConfiguration:
    if not isinstance(obj, dict):
        raise HdjError(f"bad configuration encoding: expected an object, got {obj!r:.40}")
    try:
        mode = obj.get("mode", "exact")
        cache: dict = {}
        placements = tuple(
            RigidMotion(
                _rat_once(cache, m["cos"]),
                _rat_once(cache, m["sin"]),
                Point2(_rat_once(cache, m["tx"]), _rat_once(cache, m["ty"])),
            )
            for m in obj["placements"]
        )
        tol = obj.get("tolerance")
        if tol is not None and type(tol) not in (int, float):
            raise HdjError(f"tolerance must be a number, got {tol!r:.40}")
        config = Configuration(placements, mode, None if tol is None else float(tol))
        return NamedConfiguration(_reference_name(obj), config)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise HdjError(f"bad configuration encoding: {exc}") from exc


def reference_cells_from_json(obj) -> Polyomino:
    if not isinstance(obj, dict) or not isinstance(obj.get("cells"), list):
        raise BadCharacter("expected an object with a 'cells' array")
    cells = []
    for c in obj["cells"]:
        if not isinstance(c, list) or len(c) != 2:
            raise BadCharacter(f"bad cell {c!r:.40}: expected [x, y]")
        cells.append(Cell(int_from_json(c[0]), int_from_json(c[1])))
    return Polyomino(cells)


def reference_target_from_json(obj) -> NamedTarget:
    if not isinstance(obj, dict):
        raise HdjError(f"bad target encoding: expected an object, got {obj!r:.40}")
    try:
        kind = obj["kind"]
        if kind == "polygon":
            data = SimplePolygon([point_from_json(v) for v in obj["data"]])
        elif kind == "polyomino":
            data = reference_cells_from_json(obj["data"])
        else:
            raise HdjError(f"unknown target kind {kind!r:.40}")
        return NamedTarget(_reference_name(obj), data)
    except HdjError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise HdjError(f"bad target encoding: {exc}") from exc


def _reference_json_list(obj: dict, key: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise HdjError(f"{key} must be a list, got {value!r:.40}")
    return value


def reference_hdj_from_json(obj) -> HdjFile:
    if not isinstance(obj, dict) or "figure" not in obj:
        raise HdjError("document has no figure")
    figure = reference_figure_from_json(obj["figure"])
    configurations = [
        reference_configuration_from_json(c) for c in _reference_json_list(obj, "configurations")
    ]
    for nc in configurations:
        if len(nc.configuration.placements) != len(figure.pieces):
            raise HdjError(
                f"configuration {nc.name!r:.40}: {len(nc.configuration.placements)} placements"
                f" for {len(figure.pieces)} pieces"
            )
    targets = [reference_target_from_json(t) for t in _reference_json_list(obj, "targets")]
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


# ---------------------------------------------------------------------------
# comparison


def _typed(v):
    """v with the class of every tuple and number beside it, so that 1
    and True, 1 and Fraction(1), a Hinge and a plain tuple all differ."""
    if isinstance(v, (tuple, list)):
        return type(v), tuple(map(_typed, v))
    return type(v), v


def _shape(doc: HdjFile):
    pieces = doc.figure.pieces
    ids = [id(p) for p in pieces]
    return (
        _typed([p.vertices for p in pieces]),
        [ids.index(i) for i in ids],  # which pieces share one polygon
        _typed(doc.figure.hinges),
        doc.figure.topology_tag,
        [(nc.name, _typed(nc.configuration.placements), nc.configuration.mode,
          nc.configuration.tolerance) for nc in doc.configurations],
        [(nt.name, nt.kind, nt.data) for nt in doc.targets],
        None if doc.cell_map is None else _typed(sorted(doc.cell_map.items())),
    )


def _outcome(read, obj):
    try:
        doc = read(obj)
    except Exception as exc:  # noqa: BLE001 - the two readers must fail alike
        return type(exc), str(exc)
    return doc, _shape(doc)


def _assert_same(obj):
    got, want = _outcome(hdj_from_json, obj), _outcome(reference_hdj_from_json, obj)
    assert got[1] == want[1]
    assert got[0] == want[0]


def _document(p: Polyomino) -> dict:
    result = fold_chain(p)
    doc = HdjFile(
        result.figure,
        [NamedConfiguration("fold", result.config)],
        [NamedTarget("target", p)],
        dict(result.cell_map),
    )
    return json.loads(json.dumps(hdj_to_json(doc)))


TROMINO = _document(parse_grid("##\n#."))
RAND64 = _document(random_polyomino(64, 7))


def _approx(doc: dict) -> dict:
    """doc with its configurations in approx mode, as chainfold writes it:
    every coordinate and motion value a float."""
    out = hdj_from_json(doc)
    for i, (name, c) in enumerate(out.configurations):
        approx = Configuration(c.placements, "approx", 1e-9)
        out.configurations[i] = NamedConfiguration(name, approx)
    return json.loads(json.dumps(hdj_to_json(out)))


def _dissected() -> dict:
    hd = dissect_pair(parse_grid("####"), parse_grid("##\n##"))
    doc = HdjFile(
        hd.figure,
        [NamedConfiguration("fold_a", hd.config_a), NamedConfiguration("fold_b", hd.config_b)],
        [NamedTarget("a", hd.target_a), NamedTarget("b", hd.target_b)],
    )
    return json.loads(json.dumps(hdj_to_json(doc)))


# each column: the paths of its first, a middle and its last scalar
def _column_sites(doc: dict) -> dict:
    k = len(doc["figure"]["pieces"])
    n = len(doc["targets"][0]["data"]["cells"])
    ends = sorted({0, k // 2, k - 1})
    cells = sorted({0, n // 2, n - 1})
    return {
        "piece": [("figure", "pieces", i, v, a) for i in ends for v in (0, 2) for a in (0, 1)],
        "hinge": [("figure", "hinges", i, j) for i in ends for j in (0, 3)],
        "placement": [("configurations", 0, "placements", i, key)
                      for i in ends for key in ("cos", "sin", "tx", "ty")],
        "cell": [("targets", 0, "data", "cells", i, a) for i in cells for a in (0, 1)],
        "cell_map": [("cell_map", i, side, a) for i in cells for side in (0, 1) for a in (0, 1)],
    }


_ODD_VALUES = [True, False, 1.0, 0.0, "1", "2/2", "0", [], None, 0.5, "x"]


def _with(doc: dict, *changes) -> dict:
    out = json.loads(json.dumps(doc))
    for path, value in changes:
        parent = out
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    return out


class TestAgainstReference:
    @pytest.mark.parametrize(
        "doc", [TROMINO, RAND64, _approx(TROMINO), _approx(RAND64), _dissected()],
        ids=["tromino", "rand64", "tromino-approx", "rand64-approx", "dissected"],
    )
    def test_intact_documents(self, doc):
        _assert_same(doc)
        assert hdj_to_json(hdj_from_json(doc)) == doc

    @pytest.mark.parametrize("base", [TROMINO, RAND64], ids=["tromino", "rand64"])
    @pytest.mark.parametrize("column", ["piece", "hinge", "placement", "cell", "cell_map"])
    def test_odd_value_in_each_column(self, base, column):
        for path in _column_sites(base)[column]:
            for value in _ODD_VALUES:
                _assert_same(_with(base, (path, value)))

    @pytest.mark.parametrize("base", [TROMINO, RAND64], ids=["tromino", "rand64"])
    @pytest.mark.parametrize("column", ["piece", "hinge", "placement", "cell", "cell_map"])
    def test_first_bad_value_is_named(self, base, column):
        first, *_, last = _column_sites(base)[column]
        for early, late in [("x", True), (True, "x"), ([], 1.0), (1.0, [])]:
            _assert_same(_with(base, (first, early), (last, late)))

    def test_whole_rows_and_columns_replaced(self):
        rows = [("figure", "pieces", 1), ("figure", "pieces", 1, 0), ("figure", "hinges", 1),
                ("configurations", 0, "placements", 1), ("targets", 0, "data", "cells", 1),
                ("cell_map", 1), ("cell_map", 1, 0)]
        columns = [("figure", "pieces"), ("figure", "hinges"), ("configurations", 0, "placements"),
                   ("targets", 0, "data", "cells"), ("cell_map",)]
        for path in rows + columns:
            for value in _ODD_VALUES + [[1, 2, 3], {"a": 1}, "ab", {}]:
                _assert_same(_with(RAND64, (path, value)))

    def test_repeated_piece_with_a_bool_or_a_float(self):
        for piece in ([[0, 0], [True, 0], [0, True]], [[0, 0], [1.0, 0], [0, 1]],
                      [[0, 0], ["1", 0], [0, "2/2"]]):
            for k in (1, 64, 127):
                _assert_same(_with(RAND64, (("figure", "pieces", k), piece)))

    def test_values_written_as_strings(self):
        doc = json.loads(json.dumps(RAND64))
        for m in doc["configurations"][0]["placements"]:
            m.update({key: f"{m[key]}/1" for key in m})
        _assert_same(doc)
        assert hdj_from_json(doc).configurations == hdj_from_json(RAND64).configurations

    @pytest.mark.parametrize("base", [TROMINO, RAND64], ids=["tromino", "rand64"])
    def test_mutated_documents(self, base):
        @settings(max_examples=300)
        @given(_mutated_documents(base))
        def check(doc):
            _assert_same(doc)

        check()
