"""chainfold: hinged dissections of polyominoes via triangle chains,
classical polygon equidecomposition, exact verification, and SVG output."""

from .exact_geom import (
    Point2,
    RigidMotion,
    SimplePolygon,
    apply_motion,
    point,
    polygon,
    polygon_area,
    triangulate_simple,
)
from .polyomino import (
    Cell,
    Polyomino,
    dual_spanning_tree,
    parse_grid,
    random_polyomino,
)
from .figures import (
    Configuration,
    Hinge,
    HingedFigure,
    VerifyReport,
    canonical_chain_figure,
    verify_configuration,
)
from .chain import (
    FoldResult,
    HingedDissection,
    PlacedTriangle,
    dissect_pair,
    fold_chain,
    load_sample_shape,
)
from .equidecompose import (
    DissectionChart,
    RectangleForm,
    overlay_charts,
    polygon_to_canonical_chart,
    rectangle_to_width,
    stack_rectangles,
    triangle_to_rectangle,
    verify_chart,
)
from .kinematics import AnglePose, MotionSample, extract_pose, interpolate, sample_motion
from .render import render_animation, render_chart, render_config

__version__ = "0.1.0"
