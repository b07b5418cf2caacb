"""Exact invariants of parabolic vector bundles on orbifold curves.

Euler characteristics via orbifold Riemann-Roch, endomorphism parabolic
data, flag dimensions, nilpotent-stack dimensions, gerbe indices, and
essential-(p-)dimension bounds, all in exact rational and cyclotomic
arithmetic, each closed form cross-checked against an independent
brute-force oracle.

``cyclotomic`` (the Q(zeta_e) field) and ``oracle`` are lazy modules,
registered here after the eager imports: each is bound on the package and in
``sys.modules`` at once, but its code runs on its first attribute access.
The document commands execute neither, and ``verify`` only ``oracle``.
"""

import importlib.util
import sys

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
from .errors import (
    HypothesisViolationError,
    InputError,
    InternalInconsistencyError,
    InvalidArgumentError,
    InvalidWeightsError,
)
from .exact_arith import (
    factorize,
    is_prime,
    v_p,
)
from .riemann_roch import (
    ChiReport,
    end_bundle,
    end_euler_char,
    euler_char,
    geometric_sum,
    global_term,
    inertia_bundle_total,
    inertia_total,
    inverse_sum,
    ratio_sum,
    shifted_sum,
    stacky_degree,
)


def _lazy(name: str):
    """Register the module ``name``, whose code runs on its first attribute access."""
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# registered after the eager imports, none of which takes either module
cyclotomic = _lazy(__name__ + ".cyclotomic")
oracle = _lazy(__name__ + ".oracle")
_CYCLOTOMIC_NAMES = frozenset({
    "CycloElem", "CycloField", "cyclo_field", "cyclotomic_poly", "inertia_term",
})

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
    "cyclo_field",
    "cyclotomic_poly",
    "ed_p_value",
    "ed_upper_bound",
    "end_bundle",
    "end_euler_char",
    "euler_char",
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


def __getattr__(name: str):
    # PEP 562: the field's names load the cyclotomic module on first use
    if name in _CYCLOTOMIC_NAMES:
        return getattr(cyclotomic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_CYCLOTOMIC_NAMES})
