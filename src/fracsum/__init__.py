"""Axiomatic fractional sums and products.

Sums with a fractional (or complex) number of terms, pinned down by the
unique axioms-compatible tail limit: exact polynomial machinery
(polycore), special functions for the closed forms (specialfn), the
limit engine (engine), builtin summand families (summands), the
identity catalog with figure emitters (catalog), and a CLI (cli).

``import fracsum`` loads the engine, its summands and special functions,
but not the catalog, which a sum never uses: the catalog's eight names
here (``run_all``, ``get_identity``, ...) import it on first use.
"""
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
from .specialfn import CONSTANTS, digamma, hurwitz_zeta, log_gamma
from .summands import from_spec, parse_complex

__version__ = "0.1.0"

# names of the identity catalog, which is imported when one of them is first
# looked up (PEP 562) and not by ``import fracsum``
_CATALOG_NAMES = (
    "Identity", "IdentityReport", "PointRecord", "figure_csv",
    "get_identity", "identity_ids", "run_all", "run_identity",
)

__all__ = [
    *_CATALOG_NAMES,
    "MirrorCheck", "SumResult", "Summand", "frac_product", "frac_sum_left",
    "frac_sum_right", "mirror_check", "richardson_extrapolate",
    "BranchCutError", "DomainError", "FracsumError", "PoleError",
    "ParameterError", "SummandSpecError", "UnknownIdentityError",
    "Polynomial", "antidifference", "bernoulli", "poly_sum",
    "CONSTANTS", "digamma", "hurwitz_zeta", "log_gamma",
    "from_spec", "parse_complex",
    "__version__",
]


def __getattr__(name: str):
    if name not in _CATALOG_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import catalog

    value = globals()[name] = getattr(catalog, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(_CATALOG_NAMES))
