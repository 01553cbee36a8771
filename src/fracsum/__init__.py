"""Axiomatic fractional sums and products.

Sums with a fractional (or complex) number of terms, pinned down by the
unique axioms-compatible tail limit: exact polynomial machinery
(polycore), special functions for the closed forms (specialfn), the
limit engine (engine), builtin summand families (summands), the
identity catalog with figure emitters (catalog), and a CLI (cli).
"""
from .catalog import (
    Identity,
    IdentityReport,
    PointRecord,
    figure_csv,
    get_identity,
    identity_ids,
    run_all,
    run_identity,
)
from .engine import (
    MirrorCheck,
    SumResult,
    Summand,
    frac_product,
    frac_sum_left,
    frac_sum_right,
    mirror_check,
    richardson_extrapolate,
)
from .errors import (
    BranchCutError,
    DomainError,
    FracsumError,
    PoleError,
    ParameterError,
    SummandSpecError,
    UnknownIdentityError,
)
from .polycore import Polynomial, antidifference, bernoulli, poly_sum
from .specialfn import (
    CONSTANTS,
    digamma,
    hurwitz_zeta,
    hurwitz_zeta_sderiv,
    log_gamma,
    riemann_zeta,
    riemann_zeta_sderiv,
)
from .summands import from_spec, parse_complex

__version__ = "0.1.0"

__all__ = [
    "Identity", "IdentityReport", "PointRecord", "figure_csv",
    "get_identity", "identity_ids", "run_all", "run_identity",
    "MirrorCheck", "SumResult", "Summand", "frac_product", "frac_sum_left",
    "frac_sum_right", "mirror_check", "richardson_extrapolate",
    "BranchCutError", "DomainError", "FracsumError", "PoleError",
    "ParameterError", "SummandSpecError", "UnknownIdentityError",
    "Polynomial", "antidifference", "bernoulli", "poly_sum",
    "CONSTANTS", "digamma", "hurwitz_zeta", "hurwitz_zeta_sderiv",
    "log_gamma", "riemann_zeta", "riemann_zeta_sderiv",
    "from_spec", "parse_complex",
    "__version__",
]
