"""Exact-arithmetic workbench for the Schreier space and its dual."""

from .dual import (
    Thm2Report,
    dual_extreme_traces,
    dual_norm,
    is_dual_extreme,
    lambda_pair_dual,
    make_thm2_functional,
    make_thm2_witness,
    thm2_lambda_bound,
    verify_thm2,
)
from .errors import CutoffExceeded, SchreierError, UnitNormRequired, VectorFormatError
from .extreme import (
    EXTREME,
    NOT_EXTREME,
    ExtremenessCertificate,
    SignedConstraint,
    active_constraints,
    certify_extreme,
    enumerate_extreme_in_space,
    enumerate_vertices,
    is_vertex,
    necessary_conditions,
    perturbation_witness,
    positive_extreme_points,
)
from .families import (
    IndexSet,
    enumerate_admissible,
    format_index_set,
    index_set,
    is_admissible,
    is_maximal,
    parse_index_set,
)
from .lambdas import (
    LambdaResult,
    Thm1Report,
    alpha_pattern_vector,
    expected_one_sets,
    gap_bound,
    lambda_lower,
    lambda_pair,
    verify_thm1,
)
from .vectors import (
    NormReport,
    Vector,
    covers_index,
    eps_gap,
    make_thm1_vector,
    norm,
    one_sets,
)

__version__ = "0.1.0"
