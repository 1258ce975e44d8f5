"""Float-precision motions and polygon helpers for the tolerance-based paths.

Exact arithmetic is reserved for verification of end states; everything
that is irrational by nature (oblique rectangle alignment, hinge-angle
interpolation, overlay refinement) runs here in doubles.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .exact_geom import RigidMotion

# Kept importable under these names: perfbench/tracing.py counts the
# clips and overlap calls made through them.
from .exact_geom import _convex_clip  # noqa: F401
from .overlap import polygon_overlap as float_overlap_area  # noqa: F401


class NumericMotion(NamedTuple):
    """Rotation by angle_rad about the origin followed by a translation."""

    angle_rad: float
    tx: float
    ty: float


NUMERIC_IDENTITY = NumericMotion(0.0, 0.0, 0.0)


def apply_numeric(m: NumericMotion, p) -> tuple[float, float]:
    c = math.cos(m.angle_rad)
    s = math.sin(m.angle_rad)
    x, y = float(p[0]), float(p[1])
    return (c * x - s * y + m.tx, s * x + c * y + m.ty)


def apply_numeric_points(m: NumericMotion, pts) -> list[tuple[float, float]]:
    angle, tx, ty = m
    c = math.cos(angle)
    s = math.sin(angle)
    out = []
    for p in pts:
        x, y = float(p[0]), float(p[1])
        out.append((c * x - s * y + tx, s * x + c * y + ty))
    return out


def compose_numeric(outer: NumericMotion, inner: NumericMotion) -> NumericMotion:
    tx, ty = apply_numeric(outer, (inner.tx, inner.ty))
    return NumericMotion(outer.angle_rad + inner.angle_rad, tx, ty)


def invert_numeric(m: NumericMotion) -> NumericMotion:
    c = math.cos(m.angle_rad)
    s = math.sin(m.angle_rad)
    return NumericMotion(-m.angle_rad, -(c * m.tx + s * m.ty), -(-s * m.tx + c * m.ty))


def numeric_from_rigid(m: RigidMotion) -> NumericMotion:
    return NumericMotion(
        math.atan2(float(m.rot_sin), float(m.rot_cos)),
        float(m.translate.x),
        float(m.translate.y),
    )


def numeric_between_segments(a1, a2, b1, b2) -> NumericMotion:
    """Float motion mapping segment a1a2 onto b1b2 (lengths assumed equal)."""
    ang_a = math.atan2(a2[1] - a1[1], a2[0] - a1[0])
    ang_b = math.atan2(b2[1] - b1[1], b2[0] - b1[0])
    angle = ang_b - ang_a
    c, s = math.cos(angle), math.sin(angle)
    tx = b1[0] - (c * a1[0] - s * a1[1])
    ty = b1[1] - (s * a1[0] + c * a1[1])
    return NumericMotion(angle, tx, ty)


def wrap_angle(delta: float) -> float:
    """Normalize an angle difference to (-pi, pi]; half turns resolve to +pi."""
    d = math.fmod(delta, math.tau)
    if d > math.pi:
        d -= math.tau
    elif d <= -math.pi:
        d += math.tau
    return d


def float_polygon(pts) -> list[tuple[float, float]]:
    return [(float(p[0]), float(p[1])) for p in pts]
