import re
import xml.etree.ElementTree as ET

import pytest

from chainfold.chain import dissect_pair, fold_chain
from chainfold.equidecompose import overlay_charts, polygon_to_canonical_chart
from chainfold.exact_geom import polygon
from chainfold.figures import CountMismatch
from chainfold.kinematics import TooFewFrames, sample_motion
from chainfold.polyomino import parse_grid
from chainfold.render import render_animation, render_chart, render_config
from conftest import TETROMINO_GRIDS

SVG_NS = "{http://www.w3.org/2000/svg}"


def paths_in(svg_text):
    root = ET.fromstring(svg_text)
    return root.findall(f".//{SVG_NS}path")


class TestRenderConfig:
    def test_monomino_two_paths(self):
        fr = fold_chain(parse_grid("#"))
        svg = render_config(fr.figure, fr.config)
        assert len(paths_in(svg)) == 2

    def test_tetromino_eight_paths(self):
        fr = fold_chain(parse_grid(TETROMINO_GRIDS["T4"]))
        svg = render_config(fr.figure, fr.config)
        assert len(paths_in(svg)) == 8

    def test_hinge_markers(self):
        fr = fold_chain(parse_grid("#"))
        svg = render_config(fr.figure, fr.config)
        root = ET.fromstring(svg)
        assert len(root.findall(f".//{SVG_NS}circle")) == 2

    def test_byte_identical(self):
        fr = fold_chain(parse_grid("#.\n##"))
        assert render_config(fr.figure, fr.config) == render_config(fr.figure, fr.config)

    def test_fixed_decimals(self):
        fr = fold_chain(parse_grid("#"))
        svg = render_config(fr.figure, fr.config)
        for token in re.findall(r"[-0-9.]+", svg.split("viewBox")[1].split(">")[0]):
            assert re.fullmatch(r"-?\d+\.\d{6}", token)

    def test_count_mismatch(self):
        fr = fold_chain(parse_grid("##"))
        from chainfold.figures import Configuration

        short = Configuration(fr.config.placements[:2], "exact")
        with pytest.raises(CountMismatch):
            render_config(fr.figure, short)


class TestRenderAnimation:
    def _samples(self, frames):
        a = parse_grid(TETROMINO_GRIDS["L4"])
        b = parse_grid(TETROMINO_GRIDS["T4"])
        hd = dissect_pair(a, b)
        return hd.figure, sample_motion(hd.figure, hd.config_a, hd.config_b, frames)

    def test_two_samples_two_keyframes(self):
        figure, samples = self._samples(2)
        svg = render_animation(samples, figure=figure)
        root = ET.fromstring(svg)
        animates = root.findall(f".//{SVG_NS}animate")
        assert len(animates) == 8
        for anim in animates:
            distinct = set(anim.get("values").split(";"))
            assert len(distinct) == 2  # two keyframes, looping A->B->A

    def test_sixty_frames_eight_paths(self):
        figure, samples = self._samples(60)
        svg = render_animation(samples, figure=figure)
        assert len(paths_in(svg)) == 8

    def test_too_few(self):
        figure, samples = self._samples(2)
        with pytest.raises(TooFewFrames):
            render_animation(samples[:1], figure=figure)

    def test_samples_that_disagree_on_piece_count(self):
        figure, samples = self._samples(3)
        short = samples[1]._replace(placements=samples[1].placements[:-1])
        with pytest.raises(CountMismatch, match="^samples disagree on piece count$"):
            render_animation([samples[0], short, samples[2]], figure=figure)

    def test_deterministic(self):
        figure, samples = self._samples(5)
        assert render_animation(samples, figure=figure) == render_animation(
            samples, figure=figure
        )


class TestRenderChart:
    def test_identity_chart(self):
        square = polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        chart = polygon_to_canonical_chart(square, 1)
        svg = render_chart(chart)
        root = ET.fromstring(svg)
        groups = [g for g in root.iter(f"{SVG_NS}g") if g.get("id")]
        assert [g.get("id") for g in groups] == ["source", "target"]
        assert all(len(g.findall(f"{SVG_NS}path")) == 1 for g in groups)

    def test_square_triangle_chart_equal_counts(self):
        square = polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        tri = polygon([(0, 0), (4, 0), (0, 2)])
        mutual = overlay_charts(
            polygon_to_canonical_chart(square, 2), polygon_to_canonical_chart(tri, 2)
        )
        svg = render_chart(mutual)
        root = ET.fromstring(svg)
        groups = [g for g in root.iter(f"{SVG_NS}g") if g.get("id")]
        counts = [len(g.findall(f"{SVG_NS}path")) for g in groups]
        assert counts == [len(mutual.pieces), len(mutual.pieces)]

    def test_matching_colors(self):
        square = polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        chart = polygon_to_canonical_chart(square, 1)
        root = ET.fromstring(render_chart(chart))
        groups = [g for g in root.iter(f"{SVG_NS}g") if g.get("id")]
        fills_src = [p.get("fill") for p in groups[0].findall(f"{SVG_NS}path")]
        fills_tgt = [p.get("fill") for p in groups[1].findall(f"{SVG_NS}path")]
        assert fills_src == fills_tgt

