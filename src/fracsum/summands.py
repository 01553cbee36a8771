"""Builtin summand families with their asymptotic metadata.

Each constructor returns a Summand whose sigma and Richardson rate hint
match the family's actual tail behavior; getting these right is what makes
the engine converge at the advertised rates. The approximating polynomial is
the engine's, interpolated from eval at orbit points, so a family states its
values, its domain and this metadata, and no derivatives. The
closed set here (rather than a generic expression parser) exists precisely
so this metadata is always correct.
"""
from __future__ import annotations

import cmath
import math
import re
from dataclasses import replace
from typing import Callable

import numpy as np

from .engine import Summand
from .errors import ParameterError, SummandSpecError
from .polycore import MAX_DEGREE, Polynomial
from .specialfn import log_gamma

__all__ = [
    "recip",
    "power",
    "log_summand",
    "geom",
    "binom",
    "vlnv",
    "lnfact",
    "identity_factor",
    "tanh_factor",
    "poly_summand",
    "ln_gamma_summand",
    "ln_gamma_2nu",
    "lognu_lnfact",
    "nu_lnfact",
    "bd_term",
    "zpp_term",
    "sermul_combined",
    "gosper_term",
]

def _real(z: complex) -> float | complex:
    """z as a float when it is real: numpy then keeps a real orbit's values
    float64, and promotes them to complex only where z is complex."""
    return z.real if z.imag == 0.0 else z


def _off_cut(pts: np.ndarray) -> np.ndarray:
    """True where the principal log is defined and continuous."""
    ok = pts.real > 0.0
    if not ok.all():  # the right half plane holds most orbits whole
        ok |= np.abs(pts.imag) > 1e-12 * (1.0 + np.abs(pts))
    return ok


def _nonzero(pts: np.ndarray) -> np.ndarray:
    return np.abs(pts) > 1e-300


def _near_nonpos_int(z: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """True where z, computed from the orbit points pts, is within their
    rounding distance of 0, -1, -2, ..."""
    tol = 1e-12 * (1.0 + np.abs(pts))
    return (np.abs(z.imag) <= tol) & (z.real <= 0.5) & (np.abs(z.real - np.round(z.real)) <= tol)


def _binom_guard(pts: np.ndarray) -> np.ndarray:
    """False at the poles of Gamma(w + 1), w = -1, -2, ..."""
    ok = pts.real > -0.5
    if not ok.all():  # a sum over [0, c] has its whole orbit right of -1/2
        ok = ~_near_nonpos_int(pts + 1.0, pts)
    return ok


def recip() -> Summand:
    """f(nu) = 1/nu: power(-1), sigma -1, evaluated as 1.0 / pts (np.power's bits, faster)."""
    return replace(power(-1), eval=lambda pts: 1.0 / pts)


def power(a: complex) -> Summand:
    """f(nu) = nu^a, principal branch.

    An integer a >= 0 is a polynomial, which is its own p_n and is summed
    exactly. Every other a takes one rule: the degree of p_n is sigma = -1
    (no polynomial) where the terms decay, Re a < 0, and otherwise
    sigma = floor(Re a) + 1, plus 2 for a complex a. The level values then
    approach the sum like n^{-p} with p = sigma + 1 - a, which Richardson
    removes for any p with Re p > 0; a complex a passes its complex p, whose
    n^{-i Im p} factor a real rate would leave in the tableau. The two extra
    degrees of a complex a are measured, not derived: with sigma =
    floor(Re a) + 1 and the complex rate, 18 of the 40 complex-a operations
    of perfbench's elementary seeds 1-40 understate their error, against 4
    with them.

    Raises:
        ParameterError: a polynomial degree, or the degree sigma of p_n,
            above MAX_DEGREE.
    """
    a = complex(a)
    is_real = a.imag == 0.0
    is_int = is_real and a.real == round(a.real)
    name = f"pow:a={a.real:g}" + ("" if is_real else f"{a.imag:+g}i")
    if is_int and a.real >= 0:
        if a.real > MAX_DEGREE:
            raise ParameterError(f"{name}: polynomial degree exceeds cap {MAX_DEGREE}")
        return poly_summand(Polynomial.monomial(int(a.real)).coeffs)
    sig = -1 if a.real < 0 else math.floor(a.real) + (1 if is_real else 3)
    if sig > MAX_DEGREE:
        raise ParameterError(f"{name}: degree of p_n {sig} exceeds cap {MAX_DEGREE}")
    ra = _real(a)
    return Summand(
        eval=lambda pts: np.power(pts, ra),
        sigma=sig,
        domain_guard=_nonzero if is_int else _off_cut,
        rate_hint=_real(sig + 1 - a),
    )


def log_summand() -> Summand:
    """f(nu) = ln nu (principal); constant approximating polynomial suffices."""
    return Summand(eval=np.log, sigma=0, domain_guard=_off_cut)


def geom(q: complex) -> Summand:
    """f(nu) = q^nu = exp(nu ln q), principal log of q.

    For |q| < 1 the right tail vanishes geometrically; for |q| > 1 the same
    summand serves left sums, whose tail runs toward -infinity. q = 1 is the
    constant summand.
    """
    q = complex(q)
    if q.real <= 0.0 and abs(q.imag) <= 1e-12 * (1.0 + abs(q)):
        raise SummandSpecError(f"geom ratio {q} lies on the closed negative real axis")
    if q == 1.0:
        return poly_summand((1.0,))
    lq = _real(cmath.log(q))
    return Summand(eval=lambda pts: np.exp(pts * lq))


def binom(c: complex, x: complex) -> Summand:
    """f(w) = C(c, w) x^w with the binomial coefficient through log-Gamma.

    C(c, w) = Gamma(c+1) / (Gamma(w+1) Gamma(c-w+1)); when Re(c-w+1) drops
    below 1/2 the reciprocal is computed by reflection, and arguments within
    rounding distance of a nonpositive integer give an exact zero (the
    coefficient vanishes there; sin(pi a) in doubles would leave a rounding
    residue). A pole of Gamma(w+1) anywhere in the orbit fails the domain
    guard.
    """
    c = _real(complex(c))
    x = complex(x)
    if x == 0:
        raise SummandSpecError("binom requires x != 0")
    lx = _real(cmath.log(x))
    lgc1 = _real(log_gamma(c + 1.0))

    def ev(pts: np.ndarray) -> np.ndarray:
        a = c - pts + 1.0
        # only the nonzero coefficients are evaluated: on a sum over [0, c]
        # every point of the upper orbit w = nu + c is a zero
        live = ~_near_nonpos_int(a, pts)
        if not live.any():
            return np.zeros_like(pts)
        w, a = pts[live], a[live]
        refl = a.real < 0.5
        # 1/Gamma(a) = Gamma(1-a) sin(pi a) / pi on the reflection branch
        lg_a = log_gamma(np.where(refl, 1.0 - a, a))
        lc = lgc1 - log_gamma(w + 1.0) + np.where(refl, lg_a, -lg_a)
        v = np.exp(lc + w * lx)
        v[refl] *= np.sin(math.pi * a[refl]) / math.pi
        out = np.zeros(pts.shape, dtype=v.dtype)
        out[live] = v
        return out

    return Summand(eval=ev, domain_guard=_binom_guard)


def vlnv() -> Summand:
    """f(nu) = nu ln nu; sigma = 1 (the ln-slope term must be subtracted)."""
    return Summand(
        eval=lambda pts: pts * np.log(pts),
        sigma=1,
        domain_guard=_off_cut,
    )


def _ln_gamma_of(a: float, b: float) -> Summand:
    """f(nu) = ln Gamma(a nu + b); it grows like nu ln nu, and sigma = 3 leaves
    a remainder decaying like n^{-3}."""
    return Summand(
        eval=lambda pts: log_gamma(a * pts + b),
        sigma=3,
        domain_guard=lambda pts: _off_cut(a * pts + b),
        rate_hint=3.0,
    )


def lnfact() -> Summand:
    """f(nu) = ln Gamma(nu + 1) = ln(nu!)."""
    return _ln_gamma_of(1.0, 1.0)


def ln_gamma_summand() -> Summand:
    """f(nu) = ln Gamma(nu) itself (the inner closed form of double sums)."""
    return _ln_gamma_of(1.0, 0.0)


def ln_gamma_2nu() -> Summand:
    """f(nu) = ln Gamma(2 nu + 1)."""
    return _ln_gamma_of(2.0, 1.0)


def lognu_lnfact() -> Summand:
    """f(nu) = ln nu * ln Gamma(nu + 1)."""
    return Summand(
        eval=lambda pts: np.log(pts) * log_gamma(pts + 1.0),
        sigma=3,
        domain_guard=_off_cut,
        rate_hint=3.0,
    )


def nu_lnfact() -> Summand:
    """f(nu) = nu * ln Gamma(nu + 1); needs sigma = 4 for an n^{-3} remainder."""
    return Summand(
        eval=lambda pts: pts * log_gamma(pts + 1.0),
        sigma=4,
        domain_guard=lambda pts: _off_cut(pts + 1.0),
        rate_hint=3.0,
    )


def bd_term(x: complex) -> Summand:
    """f(nu) = 2 nu ln(1 + x/nu); bounded (-> 2x), sigma = 0, error ~ n^{-2}."""
    x = _real(complex(x))

    def ev(pts: np.ndarray) -> np.ndarray:
        # numpy's complex log1p is log(1 + z), which loses the digits of a small
        # z; Goldberg's form log(w) z / (w - 1), w = 1 + z, keeps them (z if w == 1)
        z = x / pts
        w = 1.0 + z
        return 2.0 * pts * np.divide(np.log(w) * z, w - 1.0, out=z.copy(), where=w != 1.0)

    def guard(pts: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):  # nu = 0 fails _nonzero
            return _nonzero(pts) & _off_cut(1.0 + x / pts)

    return Summand(
        eval=ev,
        sigma=0,
        domain_guard=guard,
        rate_hint=2.0,
    )


def zpp_term(x: complex) -> Summand:
    """f(nu) = 2 nu ln^2(2 nu + x), the alternating-power-product summand.

    Grows like n ln^2 n; sigma = 3 leaves an O(ln n / n^4)-scale remainder
    over the catalog's [1, -1/2] window (the quadratic window weight
    vanishes there), so the raw levels are already at ~1e-14 by n ~ 1000.
    """
    x = _real(complex(x))

    def ev(pts: np.ndarray) -> np.ndarray:
        u = np.log(2.0 * pts + x)
        return 2.0 * pts * u * u

    return Summand(
        eval=ev,
        sigma=3,
        domain_guard=lambda pts: _off_cut(2.0 * pts + x),
        rate_hint=4.0,
    )


def identity_factor() -> Summand:
    """The product summand of the factor nu: ln nu, the summand log_summand.
    frac_product reports a point where nu meets the cut as a BranchCutError."""
    return log_summand()


def tanh_factor() -> Summand:
    """The product summand of the factor nu^2 + 1: ln(nu^2 + 1) ~ 2 ln nu, sigma = 0.
    Its guard rejects the points where nu^2 + 1 lies on the cut of the log."""
    return Summand(
        eval=lambda pts: np.log(pts * pts + 1.0),
        sigma=0,
        domain_guard=lambda pts: _off_cut(pts * pts + 1.0),
    )


def poly_summand(coeffs: tuple[complex, ...]) -> Summand:
    """Custom polynomial summand from ascending coefficients; summed exactly."""
    p = Polynomial.of(*coeffs)
    if p.degree == -math.inf:
        return Summand(eval=lambda pts: np.zeros_like(pts), exact_poly=p)
    # a Polynomial evaluates elementwise on arrays
    return Summand(eval=p, sigma=int(p.degree), exact_poly=p)


def sermul_combined(q1: complex, q2: complex) -> Summand:
    """The series-multiplication summand for two geometric series.

    h(nu) = f g + f * (partial sum of g up to nu-1) + g * (partial sum of f),
    with f = q1^nu, g = q2^nu and the partial sums in closed geometric form;
    its fractional sum factors into the product of the two geometric closed
    forms.
    """
    q1, q2 = _real(complex(q1)), _real(complex(q2))
    for q in (q1, q2):
        if q == 1.0 or q == 0.0:
            raise SummandSpecError(f"sermul ratio {complex(q)} degenerate")
    l1, l2 = _real(cmath.log(q1)), _real(cmath.log(q2))

    def ev(pts: np.ndarray) -> np.ndarray:
        f = np.exp(pts * l1)
        g = np.exp(pts * l2)
        tail_g = q2 * (1.0 - np.exp((pts - 1.0) * l2)) / (1.0 - q2)
        tail_f = q1 * (1.0 - np.exp((pts - 1.0) * l1)) / (1.0 - q1)
        return f * g + f * tail_g + g * tail_f

    return Summand(eval=ev)


def gosper_term(b: float) -> Summand:
    """f(nu) = sin(sqrt(b^2 + 4 pi^2 nu^2)) / (2 nu sqrt(b^2 + 4 pi^2 nu^2)).

    The summand of the half-shifted sinc identity; decays like 1/nu^2 along
    the real axis.
    """
    b = float(b)

    def ev(pts: np.ndarray) -> np.ndarray:
        root = np.sqrt(b * b + 4.0 * math.pi**2 * pts * pts)
        return np.sin(root) / (2.0 * pts * root)

    return Summand(eval=ev, domain_guard=_nonzero)


# ---------------------------------------------------------------------------
# spec-string front end (used by the CLI)

# family -> constructor; families missing from _SPEC_KEYS take no parameters
_SPEC_FAMILIES: dict[str, Callable[..., Summand]] = {
    "recip": recip,
    "log": log_summand,
    "vlnv": vlnv,
    "lnfact": lnfact,
    # as a summand the identity map is the linear polynomial
    "id": lambda: poly_summand((0.0, 1.0)),
    "pow": power,
    "geom": geom,
    "binom": binom,
    "poly": poly_summand,
}
# the constructor's arguments, in order, as spec keys (poly takes a list)
_SPEC_KEYS = {"pow": ("a",), "geom": ("q",), "binom": ("c", "x")}


# an unsigned decimal; a literal is A, [A]+[B]i, [A]-[B]i or Bi
_NUM = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_LITERAL = re.compile(rf"[+-]?{_NUM}|(?:[+-]?{_NUM})?[+-](?:{_NUM})?i|{_NUM}i")


def parse_complex(text: str) -> complex:
    """Parse the literal grammar A, A+Bi, A-Bi, Bi, +i and -i, where A and
    B are finite decimals with ASCII digits; spaces are ignored."""
    s = text.strip().replace(" ", "")
    if not s:
        raise SummandSpecError("empty complex literal")
    # complex() alone would also read 1_0, non-ASCII digits, nan and (1+2j)
    if not _LITERAL.fullmatch(s):
        raise SummandSpecError(f"bad complex literal {text!r}")
    z = complex(s.replace("i", "j"))
    # a decimal exponent can still overflow, as in 1e400
    if not cmath.isfinite(z):
        raise SummandSpecError(f"complex literal {text!r} is not finite")
    return z


def _fmt_num(v: float) -> str:
    if v.is_integer() and abs(v) < 1e15:  # inf and nan are not integers
        return str(int(v))
    return repr(v)


# private: perfbench's tracer takes every public function of this module for
# a summand constructor
def _format_complex(z: complex) -> str:
    """Canonical text for grid values and results: A, A+Bi, or A-Bi, the
    grammar parse_complex reads."""
    z = complex(z)
    if z.imag == 0.0:
        return _fmt_num(z.real)
    sign = "+" if z.imag >= 0 else "-"
    if z.real == 0.0:
        return f"{_fmt_num(z.imag)}i"
    return f"{_fmt_num(z.real)}{sign}{_fmt_num(abs(z.imag))}i"


def _parse_spec(spec: str) -> tuple[str, tuple]:
    """Split ``family:key=value:...`` into the family and its constructor
    arguments; for ``poly:c0,c1,...`` the one argument is the coefficients.

    Raises:
        SummandSpecError: unknown family or malformed parameters.
    """
    parts = spec.strip().split(":")
    fam = parts[0]
    if fam == "poly":
        if len(parts) != 2 or not parts[1]:
            raise SummandSpecError("poly needs a coefficient list: poly:c0,c1,...")
        return fam, (tuple(parse_complex(t) for t in parts[1].split(",")),)
    if fam in _SPEC_FAMILIES and fam not in _SPEC_KEYS:
        if len(parts) > 1:
            raise SummandSpecError(f"family {fam!r} takes no parameters")
        return fam, ()
    kv: dict[str, complex] = {}
    for p in parts[1:]:
        if "=" not in p:
            raise SummandSpecError(f"expected key=value in {spec!r}, got {p!r}")
        key, val = p.split("=", 1)
        if key in kv:
            raise SummandSpecError(f"duplicate parameter {key!r} in {spec!r}")
        kv[key] = parse_complex(val)
    if fam not in _SPEC_KEYS:
        raise SummandSpecError(f"unknown summand family {fam!r}")
    keys = _SPEC_KEYS[fam]
    if set(kv) != set(keys):
        raise SummandSpecError(
            f"{fam} takes exactly " + ":".join(f"{k}=<complex>" for k in keys)
        )
    return fam, tuple(kv[k] for k in keys)


def from_spec(spec: str) -> Summand:
    """Build a summand from a CLI family spec.

    Grammar: ``family[:key=value]...`` for parameterized families
    (``pow:a=0.5``, ``geom:q=0.5``, ``binom:c=2.5:x=0.3``) and bare names
    for the rest (``recip``, ``log``, ``vlnv``, ``lnfact``, ``id``).
    ``poly:c0,c1,...`` takes ascending coefficients as complex literals.
    ``id`` is the identity map nu -> nu, the linear polynomial.

    Raises:
        SummandSpecError: unknown family or malformed parameters.
    """
    fam, args = _parse_spec(spec)
    return _SPEC_FAMILIES[fam](*args)


def factor_from_spec(spec: str) -> Summand:
    """Build the product summand ln g of a factor g from a CLI family spec
    (see frac_product).

    Only ``id``, ``pow:a=...`` and ``geom:q=...`` have a factor form: ln nu,
    a ln nu (cut only where nu is) and the exact polynomial nu ln q.

    Raises:
        SummandSpecError: malformed spec, or a family without factor form.
    """
    fam, args = _parse_spec(spec)
    if fam == "pow":
        # ln(nu^a) read as a ln nu, which does not wrap where nu^a crosses the
        # cut; nu^a itself is never built, so any finite a is a factor
        a = _real(args[0])
        lf = identity_factor()
        return replace(lf, eval=lambda pts: a * lf.eval(pts))
    _SPEC_FAMILIES[fam](*args)  # the family's own parameter checks first
    if fam == "id":
        return identity_factor()
    if fam == "geom":
        # ln(q^nu) read as nu ln q, an exact polynomial in nu
        (q,) = args
        return poly_summand((0.0, cmath.log(q)))
    raise SummandSpecError(
        f"family {fam!r} carries sum metadata; the product command supports "
        "'id', 'pow:a=...', 'geom:q=...'"
    )
