"""Exact apolarity, Betti table, and rank-locus computations for cubic forms."""

__version__ = "0.1.0"

from .fields import QQ, GF
from .forms import HomogeneousForm, parse_form
from .linalg import ExactMatrix
from .apolarity import (
    PointSet,
    apolar_action,
    apolar_ideal_component,
    catalecticant,
    cube_span_contains,
    is_apolar_pointset,
    is_apolar_variety,
    min_partial_rank_scan,
    q_f,
)
from .resolutions import (
    BettiTable,
    GradedModule,
    LinearFormMatrix,
    apolar_quotient_module,
    graded_betti,
    linear_syzygies,
    m2_matrix,
    points_quotient_module,
    rank_at_point,
    restrict_linear_matrix,
)
from .rankloci import (
    classify_singularity,
    drop_degree_on_line,
    interpolate_drop_curve,
    plane_drop_points,
    singular_points_plane_curve,
)
from .catalog import (
    cubic_family,
    fermat_cubic,
    m_star,
    plane_substitution,
    random_power_sum,
    reference_betti_tables,
    reference_drop_curve_mod5,
    s_map,
    scroll_apolar_cubic,
    scroll_minors,
    veronese_ideal_quadrics,
    veronese_point,
)

__all__ = [
    "QQ", "GF", "HomogeneousForm", "parse_form", "ExactMatrix",
    "PointSet", "apolar_action", "apolar_ideal_component", "catalecticant",
    "cube_span_contains", "is_apolar_pointset", "is_apolar_variety",
    "min_partial_rank_scan", "q_f", "BettiTable", "GradedModule",
    "LinearFormMatrix", "apolar_quotient_module", "graded_betti",
    "linear_syzygies", "m2_matrix", "points_quotient_module", "rank_at_point",
    "restrict_linear_matrix", "classify_singularity", "drop_degree_on_line",
    "interpolate_drop_curve", "plane_drop_points",
    "singular_points_plane_curve", "cubic_family",
    "fermat_cubic", "m_star", "plane_substitution", "random_power_sum",
    "reference_betti_tables", "reference_drop_curve_mod5", "s_map",
    "scroll_apolar_cubic", "scroll_minors", "veronese_ideal_quadrics",
    "veronese_point", "__version__",
]
