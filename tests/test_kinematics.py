import io
import json
import math

import pytest

from chainfold.chain import dissect_pair, fold_chain, load_sample_shape
from chainfold.figures import Configuration, CountMismatch
from chainfold.kinematics import (
    AnglePose,
    CutMismatch,
    NotCycle,
    TooFewFrames,
    _walk,
    extract_pose,
    interpolate,
    motion_frame_json,
    pose_placements,
    sample_motion,
    write_motion_report,
)
from chainfold.numeric import (
    NumericMotion,
    apply_numeric,
    apply_numeric_points,
    float_polygon,
    numeric_from_rigid,
    wrap_angle,
)
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


def reference_placements(pose, local_pts):
    """The chain walk as it was before it placed outlines: each pin by
    apply_numeric_points on the placement the walk just built."""
    k = len(local_pts)
    placements = [None] * k
    current = pose.root_index
    placements[current] = pose.root_placement
    angle = pose.root_placement.angle_rad
    for step in range(k - 1):
        nxt = (current + 1) % k
        (pin_x, pin_y), = apply_numeric_points(placements[current], [local_pts[current][1]])
        angle = angle + pose.relative_angles[step]
        c, s = math.cos(angle), math.sin(angle)
        x, y = local_pts[nxt][2]
        placements[nxt] = NumericMotion(angle, pin_x - (c * x - s * y), pin_y - (s * x + c * y))
        current = nxt
    return placements


def reference_interpolate(pose_a, pose_b, t):
    """interpolate as it was before the sampler computed each hinge's
    turn once per motion."""
    ra, rb = pose_a.root_placement, pose_b.root_placement
    root = NumericMotion(
        ra.angle_rad + t * wrap_angle(rb.angle_rad - ra.angle_rad),
        ra.tx + t * (rb.tx - ra.tx),
        ra.ty + t * (rb.ty - ra.ty),
    )
    angles = tuple(
        a + t * wrap_angle(b - a) for a, b in zip(pose_a.relative_angles, pose_b.relative_angles)
    )
    return AnglePose(root, angles, pose_a.cut_hinge)


def float_bits(values):
    return [v.hex() for v in values]


class TestFusedWalk:
    def test_outlines_are_the_placed_points_bit_for_bit(self):
        # every piece of every frame of the I-T glyph pair: the outline the
        # walk places is apply_numeric_points on its placement, and the
        # placements, pose_placements' and the sampler's alike, are the
        # reference walk's on the reference blend at each t
        hd = dissect_pair(load_sample_shape("I"), load_sample_shape("T"))
        f = hd.figure
        cut = len(f.pieces) - 1
        pose_a, pose_b = extract_pose(f, hd.config_a, cut), extract_pose(f, hd.config_b, cut)
        local = [float_polygon(p) for p in f.pieces]
        frames = 60  # the animate workload's count
        samples = sample_motion(f, hd.config_a, hd.config_b, frames)
        for frame, sample in enumerate(samples):
            pose = reference_interpolate(pose_a, pose_b, frame / (frames - 1))
            got = interpolate(pose_a, pose_b, frame / (frames - 1))
            assert float_bits(got.root_placement) == float_bits(pose.root_placement)
            assert float_bits(got.relative_angles) == float_bits(pose.relative_angles)
            placements, placed = _walk(pose, local)
            want = reference_placements(pose, local)
            assert [float_bits(m) for m in placements] == [float_bits(m) for m in want]
            assert [float_bits(m) for m in pose_placements(f, pose)] == [float_bits(m) for m in want]
            assert [float_bits(m) for m in sample.placements] == [float_bits(m) for m in want]
            for m, pts, outline in zip(placements, local, placed):
                assert [float_bits(p) for p in outline] == [
                    float_bits(p) for p in apply_numeric_points(m, pts)]
