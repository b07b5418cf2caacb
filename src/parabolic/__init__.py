"""Exact invariants of parabolic vector bundles on orbifold curves.

Euler characteristics via orbifold Riemann-Roch, endomorphism parabolic
data, flag dimensions, nilpotent-stack dimensions, gerbe indices, and
essential-(p-)dimension bounds, all in exact rational and cyclotomic
arithmetic, each closed form cross-checked against an independent
brute-force oracle.
"""

from .bounds import (
    EdReport,
    GradedPiece,
    ed_p_value,
    ed_upper_bound,
    gerbe_ed_p,
    gerbe_ed_upper,
    gerbe_index,
    nil_dimension,
    trdeg_bound_indecomposable,
    trdeg_bound_nonsimple,
)
from .core import (
    OrbifoldCurve,
    ParabolicBundle,
    ParabolicPoint,
    Weights,
    bundle_on,
    flag_dim,
    flag_total,
    hom_datum,
    jumps,
    root_line_datum,
    validate_weights,
)
from .cyclotomic import (
    CycloElem,
    CycloField,
    cyclo_field,
    cyclotomic_poly,
    geometric_sum,
    inertia_term,
    inertia_total,
    inverse_sum,
    ratio_sum,
    shifted_sum,
)
from .errors import (
    HypothesisViolationError,
    InputError,
    InternalInconsistencyError,
    InvalidArgumentError,
    InvalidWeightsError,
)
from .exact_arith import (
    euler_phi,
    factorize,
    is_prime,
    v_p,
)
from .riemann_roch import (
    ChiReport,
    correction_term,
    end_bundle,
    end_euler_char,
    euler_char,
    global_term,
    inertia_bundle_total,
    stacky_degree,
)

__version__ = "0.1.0"

__all__ = [
    "ChiReport",
    "CycloElem",
    "CycloField",
    "EdReport",
    "GradedPiece",
    "HypothesisViolationError",
    "InputError",
    "InternalInconsistencyError",
    "InvalidArgumentError",
    "InvalidWeightsError",
    "OrbifoldCurve",
    "ParabolicBundle",
    "ParabolicPoint",
    "Weights",
    "bundle_on",
    "correction_term",
    "cyclo_field",
    "cyclotomic_poly",
    "ed_p_value",
    "ed_upper_bound",
    "end_bundle",
    "end_euler_char",
    "euler_char",
    "euler_phi",
    "factorize",
    "flag_dim",
    "flag_total",
    "geometric_sum",
    "gerbe_ed_p",
    "gerbe_ed_upper",
    "gerbe_index",
    "global_term",
    "hom_datum",
    "inertia_bundle_total",
    "inertia_term",
    "inertia_total",
    "inverse_sum",
    "is_prime",
    "jumps",
    "nil_dimension",
    "ratio_sum",
    "root_line_datum",
    "shifted_sum",
    "stacky_degree",
    "trdeg_bound_indecomposable",
    "trdeg_bound_nonsimple",
    "v_p",
    "validate_weights",
]
