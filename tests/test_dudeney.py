import math
from importlib import resources

from chainfold.exact_geom import polygon_area
from chainfold.figures import hdj_to_json, load_hdj, save_hdj, verify_configuration

from dudeney_asset import build_dissection

ANALYTIC_SIDE = math.sqrt(4.0 / math.sqrt(3.0))  # 1.519671371...


class TestConstruction:
    def test_four_pieces_three_hinges(self):
        doc = build_dissection()
        assert len(doc.figure.pieces) == 4
        assert len(doc.figure.hinges) == 3
        assert doc.figure.topology_tag == "general"

    def test_both_configurations_verify_at_1e6(self):
        doc = build_dissection()
        for nc, nt in doc.pairs():
            report = verify_configuration(doc.figure, nc.configuration, nt.data)
            assert report.accepted, (nc.name, report.failures)
            assert abs(float(report.computed_area) - 1.0) < 1e-9

    def test_unit_areas(self):
        doc = build_dissection()
        for nt in doc.targets:
            assert abs(float(polygon_area(nt.data)) - 1.0) < 1e-12

    def test_equilateral_side_matches_analytic_value(self):
        doc = build_dissection()
        tri = doc.targets[0].data
        for i in range(3):
            a = tri.vertices[i]
            b = tri.vertices[(i + 1) % 3]
            side = math.sqrt(float((b - a).norm_sq()))
            assert abs(side - ANALYTIC_SIDE) < 1e-9

    def test_square_target_is_unit_square(self):
        doc = build_dissection()
        sq = doc.targets[1].data
        xs = sorted(float(v.x) for v in sq.vertices)
        ys = sorted(float(v.y) for v in sq.vertices)
        assert xs == [0.0, 0.0, 1.0, 1.0]
        assert ys == [0.0, 0.0, 1.0, 1.0]


class TestShippedAsset:
    def _asset_path(self):
        return resources.files("chainfold") / "assets" / "dudeney.hdj"

    def test_asset_verifies(self):
        doc = load_hdj(str(self._asset_path()))
        assert len(doc.figure.pieces) == 4
        for nc, nt in doc.pairs():
            assert nc.configuration.mode == "approx"
            report = verify_configuration(doc.figure, nc.configuration, nt.data)
            assert report.accepted, (nc.name, report.failures)

    def test_asset_matches_fresh_build(self):
        shipped = load_hdj(str(self._asset_path()))
        fresh = build_dissection()
        assert hdj_to_json(shipped) == hdj_to_json(fresh)

    def test_asset_is_the_bytes_of_a_fresh_save(self, tmp_path):
        save_hdj(tmp_path / "dudeney.hdj", build_dissection())
        assert (tmp_path / "dudeney.hdj").read_bytes() == self._asset_path().read_bytes()
