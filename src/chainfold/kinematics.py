"""Hinge-angle kinematics for chain figures.

A cycle configuration is re-expressed as a root placement plus one
relative angle per uncut hinge; interpolating those angles swings the
chain between two foldings.  Closure of the cut hinge is not maintained
mid-motion and pieces are allowed to sweep through each other; overlaps
are measured and reported per frame rather than avoided.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from .figures import Configuration, CountMismatch, HingedFigure
from .numeric import NumericMotion, apply_numeric_points, float_polygon, numeric_from_rigid
from .numeric import wrap_angle
from .numeric import float_overlap_area  # noqa: F401 - looked up by perfbench/tracing.py
from .overlap import overlap_sum2, overlapping_pairs, parts_and_bounds

OVERLAP_THRESHOLD = 1e-9


class KinematicsError(ValueError):
    """Base class for kinematics errors."""


class NotCycle(KinematicsError):
    pass


class CutMismatch(KinematicsError):
    pass


class TooFewFrames(KinematicsError):
    pass


class AnglePose(NamedTuple):
    """Chain state: root placement plus relative hinge angles in cycle order.

    The hinge at cut_hinge is opened; the root is the piece just after
    it, and angle i belongs to hinge (cut_hinge + 1 + i) mod 2n.
    """

    root_placement: NumericMotion
    relative_angles: tuple[float, ...]
    cut_hinge: int

    @property
    def root_index(self) -> int:
        return (self.cut_hinge + 1) % (len(self.relative_angles) + 1)


def _require_cycle(f: HingedFigure):
    if f.topology_tag != "cycle":
        raise NotCycle("figure is not a hinged cycle")


def extract_pose(f: HingedFigure, c: Configuration, cut: int) -> AnglePose:
    """Numeric view of a configuration relative to one cut hinge."""
    _require_cycle(f)
    k = len(f.pieces)
    if len(c.placements) != k:
        raise CountMismatch(f"{len(c.placements)} placements for {k} pieces")
    if not (0 <= cut < k):
        raise KinematicsError(f"cut hinge {cut} out of range")
    angles = [
        math.atan2(float(m.rot_sin), float(m.rot_cos)) for m in c.placements
    ]
    root = (cut + 1) % k
    relative = []
    for step in range(k - 1):
        h = (cut + 1 + step) % k  # hinge h joins piece h to piece h+1
        relative.append(wrap_angle(angles[(h + 1) % k] - angles[h]))
    return AnglePose(numeric_from_rigid(c.placements[root]), tuple(relative), cut)


def pose_placements(f: HingedFigure, pose: AnglePose) -> list[NumericMotion]:
    """Forward kinematics: rebuild one placement per piece from the pose.

    Walks the chain from the root; each uncut hinge pins the successor's
    local vertex 2 onto the predecessor's placed vertex 1.
    """
    _require_cycle(f)
    return _walk(pose, [float_polygon(p) for p in f.pieces])


def _walk(pose: AnglePose, local_pts) -> list[NumericMotion]:
    """pose_placements on float local outlines."""
    k = len(local_pts)
    placements: list[NumericMotion | None] = [None] * k
    current = pose.root_index
    m = pose.root_placement
    angle, tx, ty = m
    c, s = math.cos(angle), math.sin(angle)
    placements[current] = m
    relative = pose.relative_angles
    for step in range(k - 1):
        nxt = (current + 1) % k
        x, y = local_pts[current][1]
        pin_x, pin_y = c * x - s * y + tx, s * x + c * y + ty
        angle = angle + relative[step]
        # translation chosen so the successor's vertex 2 lands on the pin
        c, s = math.cos(angle), math.sin(angle)
        x, y = local_pts[nxt][2]
        tx, ty = pin_x - (c * x - s * y), pin_y - (s * x + c * y)
        placements[nxt] = NumericMotion(angle, tx, ty)
        current = nxt
    return placements


def interpolate(pose_a: AnglePose, pose_b: AnglePose, t: float) -> AnglePose:
    """Blend two poses: linear in translation, shortest arc in every angle."""
    if pose_a.cut_hinge != pose_b.cut_hinge:
        raise CutMismatch("poses cut different hinges")
    if len(pose_a.relative_angles) != len(pose_b.relative_angles):
        raise CutMismatch("poses have different chain lengths")
    ra, rb = pose_a.root_placement, pose_b.root_placement
    root = NumericMotion(
        ra.angle_rad + t * wrap_angle(rb.angle_rad - ra.angle_rad),
        ra.tx + t * (rb.tx - ra.tx),
        ra.ty + t * (rb.ty - ra.ty),
    )
    angles = tuple(
        a + t * wrap_angle(b - a)
        for a, b in zip(pose_a.relative_angles, pose_b.relative_angles)
    )
    return AnglePose(root, angles, pose_a.cut_hinge)


class MotionSample(NamedTuple):
    """One animation frame: parameter, placements, and overlap report."""

    t: float
    placements: tuple[NumericMotion, ...]
    overlaps: tuple[tuple[int, int, float], ...]


def sample_motion(
    f: HingedFigure,
    config_a: Configuration,
    config_b: Configuration,
    frames: int,
    cut: int | None = None,
) -> list[MotionSample]:
    """Equally spaced samples of the hinge motion from config_a to config_b.

    The default cut hinge is the last one, making piece 0 the root.
    Overlap areas above the reporting threshold are listed per frame,
    deduplicated as i < j pairs.
    """
    _require_cycle(f)
    if frames < 2:
        raise TooFewFrames(f"need at least 2 frames, got {frames}")
    k = len(f.pieces)
    if cut is None:
        cut = k - 1
    pose_a = extract_pose(f, config_a, cut)
    pose_b = extract_pose(f, config_b, cut)
    local_pts = [float_polygon(p) for p in f.pieces]
    samples = []
    for frame in range(frames):
        t = frame / (frames - 1)
        placements = _walk(interpolate(pose_a, pose_b, t), local_pts)
        placed = [apply_numeric_points(m, pts) for m, pts in zip(placements, local_pts)]
        parts, bounds = parts_and_bounds(placed)
        overlaps = []
        for i, j in overlapping_pairs(bounds):
            area = overlap_sum2(parts[i], parts[j]) / 2
            if area > OVERLAP_THRESHOLD:
                overlaps.append((i, j, area))
        samples.append(MotionSample(t, tuple(placements), tuple(overlaps)))
    return samples


def motion_frame_json(s: MotionSample) -> dict:
    return {
        "t": s.t,
        "placements": [
            {"angle_rad": m.angle_rad, "tx": m.tx, "ty": m.ty} for m in s.placements
        ],
        "overlaps": [[i, j, area] for i, j, area in s.overlaps],
    }


def write_motion_report(samples: list[MotionSample], fh) -> None:
    """Write {"frames": [motion_frame_json(s), ...]} to fh, one frame per
    line: json.dumps of a frame runs the C encoder, where json.dump with
    an indent runs the pure-Python one."""
    fh.write('{"frames": [')
    sep = "\n"
    for s in samples:
        fh.write(sep + json.dumps(motion_frame_json(s)))
        sep = ",\n"
    fh.write("\n]}\n")
