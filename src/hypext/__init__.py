"""Poincare ball geometry toolbox.

Constant-curvature ball models, coarse hyperbolic measurements, visual
boundary metrics, boundary-driven extension maps, and the combinatorial
pieces (colorings, nets) used to compare quasiisometries with their
extensions.  See the demos directory for narrative walkthroughs and the
``hypext`` CLI for the verification suite.
"""

from .coarse import (
    Triangle,
    TriangleReport,
    area_defect,
    comparison_report,
    hausdorff_distance,
    orthogonal_project,
    quasicenter,
    quasigeodesic_deviation,
    thinness,
    thinness_batch,
)
from .errors import ConvergenceError, GeometryError
from .extension import (
    ExtensionConfig,
    ProjectionSpan,
    basepoint_sensitivity,
    boundary_bounds_check,
    compare_to_interior,
    continuity_modulus,
    equator,
    extend,
    extension_field,
    projection_span,
    q_of,
)
from .maps import (
    BoundaryMap,
    InteriorMap,
    angle_warp,
    composite,
    identity_map,
    jittered_isometry,
    latitude_warp,
    mobius_boundary,
    mobius_map,
    polar_warp,
    translation_along_first_axis,
)
from .model import (
    BallPoint,
    ClosurePoint,
    CurvatureScale,
    Geodesic,
    IdealPoint,
    K1,
    MobiusIsometry,
    TangentVector,
    angle,
    apply_mobius,
    exp_map,
    geodesic_between,
    hyp_dist,
    log_map,
    normalize_to_diameter,
    ray_limit,
    right_triangle_residual,
)
from .nets import (
    Coloring,
    Graph,
    Net,
    greedy_color,
    greedy_net,
    incidence_graph,
    net_bilipschitz_estimate,
    read_edge_list,
    write_coloring,
    write_edge_list,
)
from .visual import QsCloud, VisualConfig, qs_basepoints, qs_cloud, visual_dist

__version__ = "0.1.0"
