"""Catalog of every closed-form identity the library verifies.

Each identity pairs an engine evaluation route (the lhs) with an
independently computed closed form (the rhs) on a fixed grid of points.
The catalog is one immutable table built at import; a route takes its
point's grid parameters by name, evaluate(**params), and sets nothing in
the engine. Grids are literal constants so reports are reproducible bit for
bit; tolerances are per identity. Theorem-kind identities carry a pass
flag, experiment-kind identities only record their findings.
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import summands as fams
from .engine import (
    frac_product,
    frac_sum_left,
    frac_sum_right,
    mirror_check,
    richardson_extrapolate,
)
from .errors import FracsumError, ParameterError, UnknownIdentityError
from .polycore import Polynomial, poly_sum
from .specialfn import CONSTANTS, digamma, hurwitz_zeta, log_gamma
from .summands import _format_complex as format_complex

__all__ = [
    "Identity",
    "PointRecord",
    "IdentityReport",
    "identity_ids",
    "get_identity",
    "run_identity",
    "run_all",
    "figure_csv",
    "bd_closed_form",
    "bd_finite_product",
    "zpp_closed_sum",
    "zpp_closed_form",
    "zpp_bracket",
    "gosper_series_coeffs",
]

_LN2 = math.log(2.0)

# Evaluation point for each record: a tuple of (name, value) parameter pairs,
# formatted canonically for the report. Singleton identities use ().
Point = tuple[tuple[str, complex], ...]


# The points all come from the fixed grids of the catalog table, so the cache
# is bounded by the table, and every report of a point shares one label.
@functools.cache
def _label(point: Point) -> str:
    if not point:
        return "-"
    return ",".join(f"{k}={format_complex(v)}" for k, v in point)


# a record's text line, over PointRecord.fields(); identity-run's CSV rows
# are the same fields
_RECORD_LINE = ("record id={} point={} lhs_re={} lhs_im={} rhs_re={} rhs_im={} "
                "abs_err={} rel_err={} pass={}")


@dataclass(frozen=True)
class PointRecord:
    """One grid-point comparison inside an identity report."""

    identity: str
    point: str
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    passed: bool
    note: str = ""

    def fields(self) -> tuple[str, ...]:
        """The nine fields of the record's text line and CSV row."""
        return (self.identity, self.point, repr(self.lhs.real), repr(self.lhs.imag),
                repr(self.rhs.real), repr(self.rhs.imag), repr(self.abs_err),
                repr(self.rel_err), "true" if self.passed else "false")


@dataclass(frozen=True)
class IdentityReport:
    """All records for one identity plus the summary block."""

    identity: str
    kind: str
    records: tuple[PointRecord, ...]
    max_rel_err: float
    all_pass: bool | None
    notes: tuple[str, ...] = ()

    def to_text(self) -> str:
        lines = [f"identity {self.identity} kind={self.kind}"]
        for r in self.records:
            lines.append(_RECORD_LINE.format(*r.fields())
                         + (f" note={r.note}" if r.note else ""))
        ap = "n/a" if self.all_pass is None else ("true" if self.all_pass else "false")
        lines.append(
            f"summary id={self.identity} points={len(self.records)} "
            f"max_rel_err={self.max_rel_err!r} all_pass={ap}"
        )
        for n in self.notes:
            lines.append(f"note {n}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "kind": self.kind,
            "records": [
                {
                    "point": r.point,
                    "lhs": [r.lhs.real, r.lhs.imag],
                    "rhs": [r.rhs.real, r.rhs.imag],
                    "abs_err": r.abs_err,
                    "rel_err": r.rel_err,
                    "pass": r.passed,
                    **({"note": r.note} if r.note else {}),
                }
                for r in self.records
            ],
            "summary": {
                "points": len(self.records),
                "max_rel_err": self.max_rel_err,
                "all_pass": self.all_pass,
            },
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class Identity:
    """A catalog identity: grid, tolerance, and both evaluation routes.

    evaluate(**params) returns (lhs, rhs, note), with one keyword per
    grid axis of the point. kind 'theorem' gates each record on
    |lhs-rhs| <= tol * max(1, |rhs|); kind 'experiment' records without
    judging. summarize(points, records), when present, turns the grid and
    its finished records into extra summary notes (used for
    route-agreement findings).
    """

    id: str
    kind: str
    formula: str
    tol: float
    points: tuple[Point, ...]
    evaluate: Callable[..., tuple[complex, complex, str]]
    notes: tuple[str, ...] = ()
    summarize: Callable[
        [tuple[Point, ...], tuple[PointRecord, ...]], tuple[str, ...]
    ] | None = None


def _grid(**axes) -> tuple[Point, ...]:
    return tuple(tuple(zip(axes, vals)) for vals in itertools.product(*axes.values()))


# ---------------------------------------------------------------------------
# closed forms shared with figures and the acceptance suite


def bd_closed_form(x: float) -> float:
    """The alternating-power product P(x) in closed zeta-derivative form."""
    lnp = (
        -_LN2 / 12.0
        + 2.0 * x * (log_gamma(x + 0.5).real - log_gamma(x + 1.0).real)
        - x
        - 2.0 * hurwitz_zeta(-1.0, x + 0.5, 1).real
        + 2.0 * hurwitz_zeta(-1.0, x + 1.0, 1).real
        - 3.0 * CONSTANTS.zeta_prime_minus1
    )
    return math.exp(lnp)


def bd_finite_product(x: float, n: int) -> float:
    """Truncation of the defining product: prod_{k<=2n} (1+2x/k)^{-k(-1)^k}."""
    ks = np.arange(1, 2 * n + 1, dtype=float)
    signs = np.where(np.arange(1, 2 * n + 1) % 2 == 0, 1.0, -1.0)
    return math.exp(-float(np.sum(signs * ks * np.log1p(2.0 * x / ks))))


def zpp_closed_sum(x: float) -> float:
    """Closed form of the 2 nu ln^2(2 nu + x) fractional sum over [1, -1/2]."""
    a = (x + 1.0) / 2.0
    b = x / 2.0 + 1.0
    return (
        4.0 * _LN2 * (hurwitz_zeta(-1.0, a, 1).real - hurwitz_zeta(-1.0, b, 1).real)
        - 2.0 * x * _LN2 * (log_gamma(a).real - log_gamma(b).real)
        + 2.0 * hurwitz_zeta(-1.0, b, 2).real
        - 2.0 * hurwitz_zeta(-1.0, a, 2).real
        + x * hurwitz_zeta(0.0, a, 2).real
        - x * hurwitz_zeta(0.0, b, 2).real
        - _LN2 * _LN2 / 4.0
    )


def zpp_closed_form(x: float) -> float:
    """The limit value of the alternating (k+x)^(+-k ln(k+x)) product."""
    return math.exp(zpp_closed_sum(x))


def zpp_bracket(x: float, n: int) -> float:
    """The finite bracket whose n -> infinity limit is zpp_closed_form(x)."""
    l2n = math.log(2.0 * n)
    ks = np.arange(1, 2 * n + 1, dtype=float)
    signs = np.where(np.arange(1, 2 * n + 1) % 2 == 0, 1.0, -1.0)
    logs = np.log(ks + x)
    s = float(np.sum(signs * ks * logs * logs))
    return math.exp((-0.5 - x - (n + 0.25) * l2n) * l2n + s)


# (2m+1)! as doubles for the m-terms of gosper_series_coeffs (j < 12, m < j + 60)
_ODD_FACTORIALS = tuple(float(math.factorial(2 * m + 1)) for m in range(12 + 60))


def gosper_series_coeffs(b: float) -> list[float]:
    """Odd power-series coefficients of the half-shifted sinc summand.

    Returns [d0, d1, d3, ..., d21] with f(n) = d0/n + d1 n + d3 n^3 + ...;
    d0 = sin(b)/(2b). Coefficients come from expanding sin(sqrt(u))/sqrt(u) =
    sum (-1)^m u^m / (2m+1)! at u = b^2 + 4 pi^2 n^2; the entire function's
    factorial decay makes 60 m-terms ample for doubles.
    """
    out: list[float] = []
    four_pi2 = 4.0 * math.pi**2
    for j in range(12):
        acc = 0.0
        for m in range(j, j + 60):
            acc += (
                (-1.0) ** m
                * math.comb(m, j)
                * b ** (2 * (m - j))
                / _ODD_FACTORIALS[m]
            )
        out.append(acc * four_pi2**j / 2.0)
    return out


# ---------------------------------------------------------------------------
# per-identity evaluation routes


def _geo_eval(q: complex, x: complex):
    lhs = frac_sum_right(fams.geom(q), 0.0, x).value
    rhs = (1.0 - q ** (x + 1.0)) / (1.0 - q)
    return lhs, rhs, ""


def _binom_eval(c: complex, x: complex):
    lhs = frac_sum_right(fams.binom(c, x), 0.0, c).value
    rhs = cmath.exp(c * cmath.log(1.0 + x))
    return lhs, rhs, ""


def _sermul_eval(x: float):
    q1, q2 = 0.5, 0.3
    lhs = frac_sum_right(fams.sermul_combined(q1, q2), 1.0, x).value

    # complex ** keeps the report's bits: float ** would round q^3 apart at
    # x = 2 and give rhs_im +0.0 where it is -0.0 at x = -0.25
    def geo_sum(q: float) -> complex:
        return (q - q ** complex(x + 1.0)) / (1.0 - q)

    return lhs, geo_sum(q1) * geo_sum(q2), ""


def _gamma_eval(z: complex):
    lhs = frac_product(fams.identity_factor(), 1.0, z).value
    return lhs, cmath.exp(log_gamma(z + 1.0)), ""


def _tanh_eval():
    lhs = frac_product(fams.tanh_factor(), 1.0, -0.5).value
    return lhs, complex(math.tanh(math.pi)), ""


def _harm_eval(x: complex):
    lhs = frac_sum_right(fams.recip(), 1.0, x).value
    rhs = CONSTANTS.euler_gamma + digamma(x + 1.0)
    note = "Euler value -2 ln 2" if x == -0.5 else ""
    return lhs, rhs, note


def _refl_eval(x: float):
    lhs = frac_sum_right(fams.recip(), x, -x).value
    return lhs, complex(math.pi / math.tan(math.pi * x)), ""


def _hurw_eval(a: complex, x: complex):
    lhs = frac_sum_right(fams.power(a), 1.0, x).value
    rhs = hurwitz_zeta(-a) - hurwitz_zeta(-a, x + 1.0)
    return lhs, rhs, ""


def _zhalf_eval(a: complex):
    lhs = frac_sum_right(fams.power(a), 1.0, -0.5).value
    rhs = (2.0 - 2.0 ** (-a)) * hurwitz_zeta(-a)
    note = "implies zeta(-1) = -1/12" if a == 1.0 else ""
    return lhs, rhs, note


def _vlnv_eval():
    lhs = frac_sum_right(fams.vlnv(), 1.0, -0.5).value
    rhs = complex(-_LN2 / 24.0 - 1.5 * CONSTANTS.zeta_prime_minus1)
    return lhs, rhs, ""


def _lngam_eval(part: int):
    s = frac_sum_right(fams.log_summand(), 1.0, -0.5).value
    if part == 0:
        return s, complex(0.5 * math.log(math.pi)), "ln Gamma(1/2)"
    # Differentiating the half-terms power sum in the exponent gives
    # sum ln nu = ln 2 * zeta(0) - zeta'(0); solve for zeta'(0).
    lhs = -0.5 * _LN2 - s
    rhs = complex(-0.5 * math.log(2.0 * math.pi))
    return lhs, rhs, "recovered zeta'(0)"


def _leftp_eval(z: int):
    lhs = frac_sum_left(fams.power(float(z)), 1.0, -0.5).value
    rhs = (-1.0) ** (z + 1) * (2.0 - 2.0 ** (-z)) * hurwitz_zeta(-float(z))
    return lhs, rhs, ""


# (key, summand constructor, a, b), indexed by the grid's case number
_MIRROR_CASES: tuple[tuple[str, Callable[[], object], complex, complex], ...] = (
    ("recip[1,-1/2]", fams.recip, 1.0, -0.5),
    ("recip[3/4,-3/4]", fams.recip, 0.75, -0.75),
    ("cube[1,-1/2]", lambda: fams.poly_summand((0.0, 0.0, 0.0, 1.0)), 1.0, -0.5),
    ("linear[1,7]", lambda: fams.poly_summand((0.0, 1.0)), 1.0, 7.0),
)


def _mirror_eval(case: int):
    key, ctor, a, b = _MIRROR_CASES[case]
    mc = mirror_check(ctor(), a, b)
    return mc.right.value, mc.left.value, key


def _oddp_eval(x: complex, n: int):
    lhs = poly_sum(Polynomial.monomial(2 * n + 1), x, -x)
    return lhs, 0j, ""


def _bd_eval(x: float):
    s = frac_sum_right(fams.bd_term(x), 1.0, -0.5).value
    lhs = cmath.exp(-x - s)
    rhs = complex(bd_closed_form(x))
    finite = ", ".join(f"n={n}:{bd_finite_product(x, n)!r}" for n in (1, 10, 50, 500))
    return lhs, rhs, f"finite[{finite}]"


def _zpp_eval(x: float):
    lhs = frac_product(fams.zpp_term(x), 1.0, -0.5).value
    rhs = complex(zpp_closed_form(x))
    finite = ", ".join(f"n={n}:{zpp_bracket(x, n)!r}" for n in (10, 100, 1000))
    return lhs, rhs, f"finite[{finite}]"


def _g2_eval(z: float):
    if z == 0.0:
        # special value G(1/2) through the nu ln nu sum
        s = frac_sum_right(fams.vlnv(), 1.0, -0.5).value
        lhs = cmath.exp(-0.5 * log_gamma(0.5) - s)
        rhs = complex(
            math.pi**-0.25 * 2.0 ** (1.0 / 24.0) * math.exp(1.5 * CONSTANTS.zeta_prime_minus1)
        )
        return lhs, rhs, "G(1/2)"
    # ln G(z) via the double sum; the inner sum in closed log-Gamma form
    lhs = frac_sum_right(fams.ln_gamma_summand(), 1.0, z - 1.0).value
    rhs = complex(
        (z - 1.0) * log_gamma(z).real
        + CONSTANTS.zeta_prime_minus1
        - hurwitz_zeta(-1.0, z, 1).real
    )
    return lhs, rhs, "ln G"


def _xprod_eval(case: int):
    if case == 0:
        lhs = frac_product(fams.ln_gamma_2nu(), 1.0, -0.5).value
        rhs = complex((math.pi / 2.0) ** 0.25)
        return lhs, rhs, "(2n)! product"
    if case == 1:
        lhs = frac_product(fams.lognu_lnfact(), 1.0, -0.5).value
        g = CONSTANTS.euler_gamma
        rhs = complex(
            math.exp(
                g * g / 4.0
                + CONSTANTS.stieltjes_gamma1 / 2.0
                - math.pi**2 / 48.0
                + _LN2 * _LN2 / 2.0
                - math.log(math.pi) ** 2 / 8.0
            )
        )
        return lhs, rhs, "(n!)^(ln n) product"
    lhs = frac_product(fams.nu_lnfact(), 0.25, -0.25).value
    rhs = complex(
        math.exp(
            (3.0 / 32.0) * (log_gamma(0.25).real - log_gamma(0.75).real)
            + hurwitz_zeta(-2.0, 0.25, 1).real
            - 3.0 * hurwitz_zeta(3.0).real / (128.0 * math.pi**2)
            - CONSTANTS.catalan_G / (4.0 * math.pi)
        )
    )
    return lhs, rhs, "(n!)^n product"


def _gosper_series(b: float) -> float:
    # (-1)^n sin(r_n) = cos(r_n - pi (n + 1/2)) is smooth in n, so the
    # partial sums approach the limit in powers of 1/N and Richardson
    # extrapolation over doubling N removes them.
    n = np.arange(8192, dtype=float)
    half = n + 0.5
    root = np.sqrt(b * b + math.pi**2 * half * half)
    partial = np.cumsum(np.where(n % 2 == 0, 1.0, -1.0) / half * np.sin(root) / root)
    levels = [(256 << j, partial[(256 << j) - 1]) for j in range(6)]
    return richardson_extrapolate(levels, order=5, rate_hint=1.0)[0].real


def _gosper_termwise(b: float) -> float:
    coeffs = gosper_series_coeffs(b)
    # first coefficient multiplies nu^{-1}: reflection gives pi cot(3 pi / 4)
    val = coeffs[0] * (math.pi / math.tan(0.75 * math.pi))
    for j, d in enumerate(coeffs[1:], start=1):
        val += d * poly_sum(Polynomial.monomial(2 * j - 1), 0.75, -0.75).real
    return -val


def _gosper_eval(b: float, route: int):
    rhs = complex(math.pi * math.sin(b) / (2.0 * b))
    if route == 0:
        return complex(_gosper_series(b)), rhs, "series"
    if route == 1:
        s = frac_sum_right(fams.gosper_term(b), 0.75, -0.75).value
        return -s, rhs, "engine"
    return complex(_gosper_termwise(b)), rhs, "termwise"


def _gosper_summary(points: tuple[Point, ...],
                    records: tuple[PointRecord, ...]) -> tuple[str, ...]:
    by_b: dict[float, list[complex]] = {}
    for pt, r in zip(points, records):
        by_b.setdefault(dict(pt)["b"], []).append(r.lhs)
    # np.max keeps a failed route's nan, where Python's max would drop it
    worst = {b: float(np.max([abs(u - v) for u in vals for v in vals]))
             for b, vals in by_b.items()}
    notes = [f"b={format_complex(b)}: pairwise max diff {w!r}" for b, w in worst.items()]
    if all(w <= 1e-6 for w in worst.values()):
        notes.append(
            "all three routes agree pairwise within 1e-6; supports termwise "
            "interchange of fractional sum and power series (open question)"
        )
    else:
        notes.append("routes disagree beyond 1e-6 at some b (recorded finding)")
    return tuple(notes)


# The catalog, in report order.
_IDENTITIES: tuple[Identity, ...] = (
    Identity(
        id="GEO", kind="theorem",
        formula="sum_{nu=0}^{x} q^nu = (1 - q^(x+1)) / (1 - q)",
        tol=1e-10,
        points=_grid(q=(0.1, 0.5, 0.9), x=(-0.5, 0.5, 1.7, 1j)),
        evaluate=_geo_eval,
    ),
    Identity(
        id="BINOM", kind="theorem",
        formula="sum_{nu=0}^{c} C(c,nu) x^nu = (1+x)^c",
        tol=1e-8,
        points=_grid(c=(0.5, 2.5, 1 + 1j), x=(0.3, -0.3, 0.5j)),
        evaluate=_binom_eval,
    ),
    Identity(
        id="SERMUL", kind="theorem",
        formula="sum of f g + f (partial g) + g (partial f) factors into "
                "(sum f)(sum g), with f = 0.5^nu, g = 0.3^nu",
        tol=1e-10,
        points=_grid(x=(0.5, -0.25, 2.0)),
        evaluate=_sermul_eval,
    ),
    Identity(
        id="GAMMA", kind="theorem",
        formula="prod_{nu=1}^{z} nu = Gamma(z+1)",
        tol=1e-8,
        points=_grid(z=(0.5, -0.5, 2.5, 1 + 1j)),
        evaluate=_gamma_eval,
    ),
    Identity(
        id="TANH", kind="theorem",
        formula="prod_{nu=1}^{-1/2} (nu^2 + 1) = tanh(pi)",
        tol=1e-8,
        points=((),),
        evaluate=_tanh_eval,
    ),
    Identity(
        id="HARM", kind="theorem",
        formula="sum_{nu=1}^{x} 1/nu = gamma + psi(x+1)",
        tol=1e-8,
        points=_grid(x=(-0.5, 0.25, 1.5, 1j)),
        evaluate=_harm_eval,
    ),
    Identity(
        id="REFL", kind="theorem",
        formula="sum_{nu=x}^{-x} 1/nu = pi cot(pi x)",
        tol=1e-8,
        points=_grid(x=(0.25, 0.3, 0.75)),
        evaluate=_refl_eval,
    ),
    Identity(
        id="HURW", kind="theorem",
        formula="sum_{nu=1}^{x} nu^a = zeta(-a) - zeta(-a, x+1)",
        tol=1e-7,
        points=_grid(a=(-0.5, 0.5, 2.0, 1 + 1j), x=(0.5, 1.7)),
        evaluate=_hurw_eval,
    ),
    Identity(
        id="ZHALF", kind="theorem",
        formula="sum_{nu=1}^{-1/2} nu^a = (2 - 2^(-a)) zeta(-a)",
        tol=1e-8,
        points=_grid(a=(1.0, 2.0, 0.5)),
        evaluate=_zhalf_eval,
    ),
    Identity(
        id="VLNV", kind="theorem",
        formula="sum_{nu=1}^{-1/2} nu ln nu = -ln2/24 - (3/2) zeta'(-1)",
        tol=1e-7,
        points=((),),
        evaluate=_vlnv_eval,
    ),
    Identity(
        id="LNGAM", kind="theorem",
        formula="sum_{nu=1}^{-1/2} ln nu = ln Gamma(1/2); corollary "
                "zeta'(0) = -ln(2 pi)/2",
        tol=1e-8,
        points=_grid(part=(0, 1)),
        evaluate=_lngam_eval,
    ),
    Identity(
        id="LEFTP", kind="theorem",
        formula="left sum_{nu=1}^{-1/2} nu^z = (-1)^(z+1) (2 - 2^(-z)) zeta(-z)",
        tol=1e-8,
        points=_grid(z=(1, 2, 3)),
        evaluate=_leftp_eval,
        notes=(
            "branch: (-1)^(z+1) read as exp(i pi (z+1)), principal; grid kept to "
            "real integer z where that phase is +-1",
            "right/left divergence off polynomials, via the closed forms at z=1/2: "
            "right (2-2^(-1/2)) zeta(-1/2) = -0.2695643226...; the left-sum formula "
            "continues to exp(3 i pi/2)(2-2^(-1/2)) zeta(-1/2), a genuinely "
            "different (imaginary) value",
        ),
    ),
    Identity(
        id="MIRROR", kind="theorem",
        formula="right sum_{nu=a}^{b} f(nu) equals left sum_{nu=-b}^{-a} f(-nu)",
        tol=1e-8,
        points=_grid(case=(0, 1, 2, 3)),
        evaluate=_mirror_eval,
    ),
    Identity(
        id="ODDP", kind="theorem",
        formula="sum_{nu=x}^{-x} nu^(2n+1) = 0",
        tol=1e-10,
        points=_grid(x=(0.3, 1 + 2j), n=(0, 1, 2)),
        evaluate=_oddp_eval,
    ),
    Identity(
        id="BD", kind="theorem",
        formula="prod_{k} (1 + 2x/k)^(-k (-1)^k) = 2^(-1/12) "
                "(Gamma(x+1/2)/Gamma(x+1))^(2x) exp(-x - 2 zeta'(-1, x+1/2) "
                "+ 2 zeta'(-1, x+1) - 3 zeta'(-1))",
        tol=1e-6,
        points=_grid(x=(0.25, 0.5, 1.0, 1.5, 2.0)),
        evaluate=_bd_eval,
        notes=(
            "lhs is the engine route exp(-x - sum 2 nu ln(1 + x/nu)); each record "
            "also carries the defining finite products at n in {1, 10, 50, 500}, "
            "judged only for monotone approach by the acceptance suite",
        ),
    ),
    Identity(
        id="ZPP", kind="theorem",
        formula="lim (2n)^(-1/2 - x - (n + 1/4) ln(2n)) prod_{k<=2n} "
                "(k+x)^((-1)^k k ln(k+x)) equals the zeta''/zeta' closed form",
        tol=1e-6,
        points=_grid(x=(0.5, 1.0)),
        evaluate=_zpp_eval,
        notes=(
            "lhs is the engine route exp(sum 2 nu ln^2(2 nu + x)); records carry "
            "the finite brackets at n in {10, 100, 1000}",
            "closed form reads zeta'(-1, x/2 + 1) where the source text's "
            "zeta'(+1, ...) would be a pole; the corrected form is what the "
            "numerics confirm",
        ),
    ),
    Identity(
        id="G2", kind="theorem",
        formula="ln G(z) = (z-1) ln Gamma(z) + zeta'(-1) - zeta'(-1, z); "
                "G(1/2) = pi^(-1/4) 2^(1/24) exp((3/2) zeta'(-1))",
        tol=1e-7,
        points=_grid(z=(0.5, 1.5, 3.0, 0.0)),
        evaluate=_g2_eval,
        notes=(
            "z=0 encodes the G(1/2) special-value record",
            "lhs = sum_{nu=1}^{z-1} ln Gamma(nu): the double fractional sum with "
            "the inner sum in closed form",
        ),
    ),
    Identity(
        id="XPROD", kind="theorem",
        formula="prod_{n=1}^{-1/2} (2n)! = (pi/2)^(1/4); prod_{n=1}^{-1/2} "
                "(n!)^(ln n) and prod_{n=1/4}^{-1/4} (n!)^n in "
                "zeta-derivative closed form",
        tol=1e-6,
        points=_grid(case=(0, 1, 2)),
        evaluate=_xprod_eval,
        notes=(
            "Stieltjes gamma_1 enters as -0.0728158454836767...; the source "
            "quotes the magnitude without a sign, and only the negative value "
            "matches the product",
        ),
    ),
    Identity(
        id="GOSPER", kind="experiment",
        formula="sum_{n>=0} (-1)^n/(n+1/2) sin(sqrt(b^2 + pi^2 (n+1/2)^2)) / "
                "sqrt(b^2 + pi^2 (n+1/2)^2) = pi sin(b) / (2b)",
        tol=1e-6,
        points=_grid(b=(0.5, 1.0, 2.0, 5.0), route=(0, 1, 2)),
        evaluate=_gosper_eval,
        notes=(
            "series route: partial sums to N = 256 * 2^j, j < 6, Richardson "
            "extrapolated in 1/N; termwise route: "
            "odd power series truncated at degree 21, odd powers summed by "
            "exact polynomial algebra",
        ),
        summarize=_gosper_summary,
    ),
)

_REGISTRY: dict[str, Identity] = {i.id: i for i in _IDENTITIES}


def identity_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def get_identity(identity_id: str) -> Identity:
    try:
        return _REGISTRY[identity_id]
    except KeyError:
        raise UnknownIdentityError(
            f"unknown identity {identity_id!r}; known: {', '.join(_REGISTRY)}"
        ) from None


def run_identity(identity_id: str) -> IdentityReport:
    """Sweep one identity's grid and assemble its report.

    Engine errors at a grid point are recorded on that point's record and do
    not abort the sweep. Experiment-kind identities never carry an all_pass
    verdict; their findings land in the summary notes.

    Raises:
        UnknownIdentityError: id not registered.
    """
    ident = get_identity(identity_id)
    records: list[PointRecord] = []
    for pt in ident.points:
        try:
            lhs, rhs, note = ident.evaluate(**dict(pt))
            lhs, rhs = complex(lhs), complex(rhs)
            abs_err = abs(lhs - rhs)
            rel_err = abs_err / abs(rhs) if abs(rhs) >= 1e-12 else abs_err
            passed = ident.kind == "experiment" or bool(abs_err <= ident.tol * max(1.0, abs(rhs)))
        except FracsumError as exc:
            lhs = rhs = complex(math.nan, math.nan)
            abs_err = rel_err = math.inf
            passed, note = False, f"error: {exc}"
        records.append(PointRecord(
            identity=ident.id, point=_label(pt), lhs=lhs, rhs=rhs,
            abs_err=abs_err, rel_err=rel_err, passed=passed, note=note,
        ))
    max_rel = max((r.rel_err for r in records if math.isfinite(r.rel_err)), default=math.inf)
    all_pass = None if ident.kind == "experiment" else all(r.passed for r in records)
    notes = ident.notes
    if ident.summarize is not None:
        notes = notes + ident.summarize(ident.points, tuple(records))
    return IdentityReport(
        identity=ident.id, kind=ident.kind, records=tuple(records),
        max_rel_err=max_rel, all_pass=all_pass, notes=notes,
    )


def run_all() -> tuple[IdentityReport, ...]:
    """Run every registered identity in registration order."""
    return tuple(run_identity(i) for i in identity_ids())


_FIGURES = {
    "bd": ((1, 10, 50), bd_closed_form, bd_finite_product),
    "zeta2": ((10, 100, 1000), zpp_closed_form, zpp_bracket),
}


def figure_csv(which: str) -> str:
    """Build the truncation-vs-closed-form CSV for one of the two figures.

    41 uniform x samples over [0.1, 2.0]; columns are x, the closed form,
    and one truncation column per level. The monotone approach of the
    truncation columns is asserted by the acceptance suite, not here.

    Raises:
        ParameterError: unknown figure name.
    """
    try:
        ns, closed, finite = _FIGURES[which]
    except KeyError:
        raise ParameterError(
            f"unknown figure {which!r}; known: {', '.join(_FIGURES)}"
        ) from None
    xs = np.linspace(0.1, 2.0, 41)
    lines = ["x,closed_form," + ",".join(f"n={n}" for n in ns)]
    for x in xs:
        x = float(x)
        row = [repr(x), repr(closed(x))] + [repr(finite(x, n)) for n in ns]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"

