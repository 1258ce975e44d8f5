import io
import json
import math

import pytest

from chainfold.chain import dissect_pair, fold_chain
from chainfold.figures import Configuration, CountMismatch
from chainfold.kinematics import (
    AnglePose,
    CutMismatch,
    NotCycle,
    TooFewFrames,
    extract_pose,
    interpolate,
    motion_frame_json,
    pose_placements,
    sample_motion,
    write_motion_report,
)
from chainfold.numeric import apply_numeric, numeric_from_rigid
from chainfold.polyomino import parse_grid
from conftest import TETROMINO_GRIDS


def placement_deviation(f, placements, config):
    """Max distance between placed vertices and the reference config's."""
    worst = 0.0
    for piece, m, ref in zip(f.pieces, placements, config.placements):
        ref_m = numeric_from_rigid(ref)
        for v in piece.vertices:
            x1, y1 = apply_numeric(m, v)
            x2, y2 = apply_numeric(ref_m, v)
            worst = max(worst, math.hypot(x1 - x2, y1 - y2))
    return worst


def hinge_gaps(f, placements, cut):
    gaps = []
    k = len(f.pieces)
    for idx, h in enumerate(f.hinges):
        if idx == cut:
            continue
        ax, ay = apply_numeric(placements[h.piece_a], f.pieces[h.piece_a].vertices[h.vertex_a])
        bx, by = apply_numeric(placements[h.piece_b], f.pieces[h.piece_b].vertices[h.vertex_b])
        gaps.append(math.hypot(ax - bx, ay - by))
    return gaps


class TestExtractPose:
    def test_monomino_relative_angle_is_pi(self):
        fr = fold_chain(parse_grid("#"))
        pose = extract_pose(fr.figure, fr.config, cut=1)
        assert pose.root_index == 0
        assert len(pose.relative_angles) == 1
        assert pose.relative_angles[0] == pytest.approx(math.pi)

    def test_round_trip_reproduces_placements(self):
        for grid in ("##", "#.\n##", TETROMINO_GRIDS["S4"]):
            fr = fold_chain(parse_grid(grid))
            for cut in (0, len(fr.figure.pieces) - 1):
                pose = extract_pose(fr.figure, fr.config, cut)
                rebuilt = pose_placements(fr.figure, pose)
                assert placement_deviation(fr.figure, rebuilt, fr.config) <= 1e-12

    def test_root_is_the_piece_after_the_cut(self):
        assert AnglePose._fields == ("root_placement", "relative_angles", "cut_hinge")
        fr = fold_chain(parse_grid(TETROMINO_GRIDS["S4"]))
        k = len(fr.figure.pieces)
        for cut in range(k):
            pose = extract_pose(fr.figure, fr.config, cut)
            assert pose.root_index == (cut + 1) % k
            assert pose.root_placement == numeric_from_rigid(fr.config.placements[pose.root_index])

    def test_placement_count_mismatch(self):
        fr = fold_chain(parse_grid("##"))
        short = Configuration(fr.config.placements[:3])
        with pytest.raises(CountMismatch, match="^3 placements for 4 pieces$"):
            extract_pose(fr.figure, short, 0)

    def test_not_cycle(self):
        from dudeney_asset import build_dissection

        doc = build_dissection()
        with pytest.raises(NotCycle):
            extract_pose(doc.figure, doc.configurations[0].configuration, 0)


class TestInterpolate:
    def _poses(self):
        a = parse_grid(TETROMINO_GRIDS["L4"])
        b = parse_grid(TETROMINO_GRIDS["T4"])
        hd = dissect_pair(a, b)
        pa = extract_pose(hd.figure, hd.config_a, 7)
        pb = extract_pose(hd.figure, hd.config_b, 7)
        return pa, pb

    def test_endpoints(self):
        pa, pb = self._poses()
        assert interpolate(pa, pb, 0.0) == pa
        p1 = interpolate(pa, pb, 1.0)
        for got, want in zip(p1.relative_angles, pb.relative_angles):
            # equal up to full turns: angles travel the shortest arc
            assert math.remainder(got - want, math.tau) == pytest.approx(0, abs=1e-12)
        assert p1.root_placement.tx == pytest.approx(pb.root_placement.tx)

    def test_identity_path(self):
        fr = fold_chain(parse_grid("#"))
        pose = extract_pose(fr.figure, fr.config, 1)
        mid = interpolate(pose, pose, 0.37)
        assert mid == pose

    def test_cut_mismatch(self):
        pa, pb = self._poses()
        pb_other = extract_pose(
            dissect_pair(parse_grid(TETROMINO_GRIDS["L4"]), parse_grid(TETROMINO_GRIDS["T4"])).figure,
            dissect_pair(parse_grid(TETROMINO_GRIDS["L4"]), parse_grid(TETROMINO_GRIDS["T4"])).config_b,
            3,
        )
        with pytest.raises(CutMismatch):
            interpolate(pa, pb_other, 0.5)


class TestSampleMotion:
    def test_two_frames_are_the_inputs(self):
        a = parse_grid("##")
        hd = dissect_pair(a, a)
        samples = sample_motion(hd.figure, hd.config_a, hd.config_b, 2)
        assert len(samples) == 2
        assert placement_deviation(hd.figure, samples[0].placements, hd.config_a) <= 1e-9
        assert placement_deviation(hd.figure, samples[1].placements, hd.config_b) <= 1e-9

    def test_identity_motion_has_no_overlaps(self):
        a = parse_grid("##")
        hd = dissect_pair(a, a)
        for s in sample_motion(hd.figure, hd.config_a, hd.config_b, 8):
            assert s.overlaps == ()

    def test_hinge_coincidence_every_frame(self):
        a = parse_grid(TETROMINO_GRIDS["L4"])
        b = parse_grid(TETROMINO_GRIDS["S4"])
        hd = dissect_pair(a, b)
        cut = len(hd.figure.pieces) - 1
        for s in sample_motion(hd.figure, hd.config_a, hd.config_b, 30):
            assert max(hinge_gaps(hd.figure, s.placements, cut)) <= 1e-9

    def test_different_cut_changes_middle_not_endpoints(self):
        a = parse_grid(TETROMINO_GRIDS["I4"])
        b = parse_grid(TETROMINO_GRIDS["O4"])
        hd = dissect_pair(a, b)
        s1 = sample_motion(hd.figure, hd.config_a, hd.config_b, 9, cut=7)
        s2 = sample_motion(hd.figure, hd.config_a, hd.config_b, 9, cut=3)
        for k in (0, 8):
            assert placement_deviation(hd.figure, s1[k].placements, (hd.config_a, hd.config_b)[k > 0]) <= 1e-9
            assert placement_deviation(hd.figure, s2[k].placements, (hd.config_a, hd.config_b)[k > 0]) <= 1e-9
        mid_gap = max(
            abs(m1.tx - m2.tx) + abs(m1.ty - m2.ty)
            for m1, m2 in zip(s1[4].placements, s2[4].placements)
        )
        assert mid_gap > 1e-6

    def test_overlap_report_dedup(self):
        a = parse_grid(TETROMINO_GRIDS["L4"])
        b = parse_grid(TETROMINO_GRIDS["T4"])
        hd = dissect_pair(a, b)
        samples = sample_motion(hd.figure, hd.config_a, hd.config_b, 12)
        for s in samples:
            pairs = [(i, j) for i, j, _ in s.overlaps]
            assert all(i < j for i, j in pairs)
            assert len(pairs) == len(set(pairs))

    def test_too_few_frames(self):
        a = parse_grid("##")
        hd = dissect_pair(a, a)
        with pytest.raises(TooFewFrames):
            sample_motion(hd.figure, hd.config_a, hd.config_b, 1)

    def test_report_json_shape(self):
        a = parse_grid("##")
        hd = dissect_pair(a, a)
        samples = sample_motion(hd.figure, hd.config_a, hd.config_b, 3)
        fh = io.StringIO()
        write_motion_report(samples, fh)
        report = json.loads(fh.getvalue())
        assert report == {"frames": [motion_frame_json(s) for s in samples]}
        assert len(report["frames"]) == 3
        assert len(report["frames"][0]["placements"]) == 4
