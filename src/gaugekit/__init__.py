"""gaugekit: gauge transforms of autonomous polynomial ODEs.

Apply time-dependent invertible linear changes of frame to autonomous
polynomial systems, and solve the inverse problem: decide whether a given
nonautonomous system is such a transform, reconstruct the autonomous field
and the matrix curve, and certify the verdict with residuals.
"""

from .identify import (
    GaugeCertificate, IdempotentSet, JetData, NonAutoSystem,
    extract_jet, find_idempotents, identify, solve_candidate_B,
    verify_candidate,
)
from .gauge import (
    FlowMap, NonAutoEvaluator, conjugate_map, gauge_transform, hat_transform,
    mixed_bracket_residual, transform_solution,
)
from .matcurve import (
    ClosedFormCurve, ExponentialCurve, FlowCurve, MatrixCurve,
    mat_exp, second_order_lift, solve_gauge_ode,
)
from .odeint import Trajectory, integrate, verify_correspondence
from .polyfield import PolyField, lie_bracket, linear_pushforward
from .timexpr import TimeExpr, diff_expr, eval_expr, format_expr, parse_expr

__version__ = "0.1.0"

__all__ = [
    "PolyField", "lie_bracket", "linear_pushforward",
    "TimeExpr", "parse_expr", "eval_expr", "diff_expr", "format_expr",
    "MatrixCurve", "ClosedFormCurve", "ExponentialCurve", "FlowCurve",
    "mat_exp", "solve_gauge_ode", "second_order_lift",
    "NonAutoEvaluator", "FlowMap", "gauge_transform", "transform_solution",
    "conjugate_map", "hat_transform", "mixed_bracket_residual",
    "NonAutoSystem", "JetData", "GaugeCertificate", "IdempotentSet",
    "extract_jet", "solve_candidate_B", "verify_candidate", "identify",
    "find_idempotents",
    "Trajectory", "integrate", "verify_correspondence",
    "__version__",
]
