"""The classic four-piece hinged dissection between a square and an
equilateral triangle (Dudeney's haberdasher puzzle), built at unit area.

Construction, for triangle B, C, A of side s with apex A:

* D and E are the midpoints of AB and AC.
* F lies on BC with |EF| = q, the side of the equal-area square; G is
  half a triangle side to the right of F.
* H and J are the perpendicular feet of D and G on EF.

Cutting along EF, DH and GJ yields four pieces hinged at D, E and G.
|DH| and |GJ| both equal q/2 and |HE| + |EJ| = |HF| + |FJ| = q, so the
images of H and J become the four corners of the square.  At unit area
q = 1 and the square is the unit square.

The package ships only the output, ``assets/dudeney.hdj``; the tests
hold it to a fresh build byte for byte.  Regenerate it from the repo
root with

    PYTHONPATH=src python tests/dudeney_asset.py src/chainfold/assets/dudeney.hdj
"""

from __future__ import annotations

import math

from chainfold.exact_geom import SimplePolygon, point, rat
from chainfold.figures import (
    Configuration,
    HdjFile,
    Hinge,
    HingedFigure,
    NamedConfiguration,
    NamedTarget,
    RigidMotion,
    save_hdj,
)
from chainfold.numeric import NumericMotion

APPROX_TOLERANCE = 1e-6


def numeric_between_segments(a1, a2, b1, b2) -> NumericMotion:
    """Float motion mapping segment a1a2 onto b1b2 (lengths assumed equal)."""
    ang_a = math.atan2(a2[1] - a1[1], a2[0] - a1[0])
    ang_b = math.atan2(b2[1] - b1[1], b2[0] - b1[0])
    angle = ang_b - ang_a
    c, s = math.cos(angle), math.sin(angle)
    tx = b1[0] - (c * a1[0] - s * a1[1])
    ty = b1[1] - (s * a1[0] + c * a1[1])
    return NumericMotion(angle, tx, ty)


def _rigid_from_numeric(m: NumericMotion) -> RigidMotion:
    return RigidMotion(
        rat(math.cos(m.angle_rad)),
        rat(math.sin(m.angle_rad)),
        point(m.tx, m.ty),
    )


def build_dissection() -> HdjFile:
    """Figure, both configurations, and both targets, at unit area."""
    side = 2.0 / 3.0 ** 0.25  # equilateral side for area 1
    q = 1.0  # square side for area 1

    b = (0.0, 0.0)
    c = (side, 0.0)
    a = (side / 2.0, side * math.sqrt(3.0) / 2.0)
    d = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
    e = ((a[0] + c[0]) / 2.0, (a[1] + c[1]) / 2.0)
    f = (3.0 * side / 4.0 - math.sqrt(q * q - 3.0 * side * side / 16.0), 0.0)
    g = (f[0] + side / 2.0, 0.0)

    # unit direction along the cut from E to F
    w = ((f[0] - e[0]) / q, (f[1] - e[1]) / q)

    def foot(p):
        t = (p[0] - e[0]) * w[0] + (p[1] - e[1]) * w[1]
        return (e[0] + t * w[0], e[1] + t * w[1]), t

    h, t_h = foot(d)
    j, t_j = foot(g)

    def poly(pts):
        return SimplePolygon([point(x, y) for x, y in pts])

    pieces = (
        poly([a, d, h, e]),
        poly([d, b, f, h]),
        poly([f, g, j]),
        poly([g, c, e, j]),
    )
    hinges = (
        Hinge(0, 1, 1, 0),  # at D
        Hinge(0, 3, 3, 2),  # at E
        Hinge(2, 1, 3, 0),  # at G
    )
    figure = HingedFigure(pieces, hinges, "general")

    identity = RigidMotion(rat(1), rat(0), point(0, 0))
    triangle_config = Configuration((identity,) * 4, "approx", APPROX_TOLERANCE)

    he = t_h  # |HE|
    hf = q - t_h  # |HF|
    square_motions = (
        numeric_between_segments(h, e, (0.0, 0.0), (he, 0.0)),
        numeric_between_segments(h, d, (0.0, q), (0.0, q / 2.0)),
        numeric_between_segments(f, j, (hf, q), (q, q)),
        numeric_between_segments(j, g, (q, 0.0), (q, q / 2.0)),
    )
    square_config = Configuration(
        tuple(_rigid_from_numeric(m) for m in square_motions), "approx", APPROX_TOLERANCE
    )

    triangle_target = poly([b, c, a])
    square_target = poly([(0.0, 0.0), (q, 0.0), (q, q), (0.0, q)])

    return HdjFile(
        figure,
        [
            NamedConfiguration("triangle", triangle_config),
            NamedConfiguration("square", square_config),
        ],
        [
            NamedTarget("triangle", triangle_target),
            NamedTarget("square", square_target),
        ],
    )


if __name__ == "__main__":
    import sys

    save_hdj(sys.argv[1], build_dissection())
