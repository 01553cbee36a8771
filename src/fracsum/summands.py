"""Builtin summand families with their asymptotic metadata.

Each constructor returns a Summand whose sigma, analytic derivatives, and
Richardson rate hint match the family's actual tail behavior; getting these
right is what makes the engine converge at the advertised rates. The closed
set here (rather than a generic expression parser) exists precisely so this
metadata is always correct.
"""
from __future__ import annotations

import cmath
import math
import re
from dataclasses import replace
from typing import Callable

import numpy as np

from .engine import SIGMA_NEG_INF, Summand
from .errors import DomainError, SummandSpecError
from .polycore import Polynomial
from .specialfn import log_gamma, polygamma

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

def _off_cut(pts: np.ndarray) -> np.ndarray:
    """True where the principal log is defined and continuous."""
    return (pts.real > 0.0) | (np.abs(pts.imag) > 1e-12 * (1.0 + np.abs(pts)))


def _nonzero(pts: np.ndarray) -> np.ndarray:
    return np.abs(pts) > 1e-300


def recip() -> Summand:
    """f(nu) = 1/nu; decays, so sigma is the -infinity sentinel."""
    return Summand(
        eval=lambda pts: 1.0 / pts,
        sigma=SIGMA_NEG_INF,
        domain_guard=_nonzero,
        label="recip",
    )


def power(a: complex) -> Summand:
    """f(nu) = nu^a, principal branch.

    sigma and the extrapolation rate depend on a:

    * integer a >= 0: a polynomial; Taylor of degree a is exact.
    * Re a < 0: terms decay, sigma = -infinity, error ~ n^{Re a}.
    * real non-integer a > 0: sigma = floor(a)+1, leading error
      ~ n^{a - sigma - 1}.
    * other complex a: the error carries an n^{i Im a} oscillation that
      extrapolation cannot eliminate, so sigma is raised until the raw
      remainder is negligible.
    """
    a = complex(a)
    is_real = a.imag == 0.0
    is_int = is_real and a.real == round(a.real)

    def ev(pts: np.ndarray) -> np.ndarray:
        return np.power(pts.astype(complex), a)

    def dv(k: int, t: np.ndarray) -> np.ndarray | complex:
        # the falling factorial a (a-1) ... (a-k+1)
        fall = math.prod((a - i for i in range(k)), start=1.0 + 0j)
        return fall * np.exp((a - k) * np.log(t)) if fall else 0j

    if is_int and a.real >= 0:
        d = int(a.real)
        return Summand(eval=ev, sigma=d, deriv=dv, exact_poly=Polynomial.monomial(d), label=f"pow:{a}")
    if a.real < 0:
        return Summand(
            eval=ev,
            sigma=SIGMA_NEG_INF,
            domain_guard=_off_cut if not is_int else _nonzero,
            rate_hint=-a.real,
            label=f"pow:{a}",
        )
    sig = math.floor(a.real) + (1 if is_real else 3)
    return Summand(
        eval=ev,
        sigma=sig,
        deriv=dv,
        domain_guard=_off_cut,
        rate_hint=sig + 1 - a.real,
        label=f"pow:{a}",
    )


# ---------------------------------------------------------------------------
# The derivative calculus. A family's Taylor data is its deriv(k, t) = d^k f
# at t for every order k, elementwise over a complex array t, built from a
# few base ladders by the rules below.
Deriv = Callable[[int, np.ndarray], np.ndarray]


def _d_log(k: int, t: np.ndarray) -> np.ndarray:
    """d^k ln t (principal branch)."""
    return np.log(t) if k == 0 else (-1.0) ** (k - 1) * math.factorial(k - 1) * t ** (-k)


def _d_ln_gamma(k: int, t: np.ndarray) -> np.ndarray:
    """d^k ln Gamma(t) = psi^(k-1)(t)."""
    return log_gamma(t) if k == 0 else polygamma(k - 1, t)


def _affine(g: Deriv, a: float, b: complex) -> Deriv:
    """The derivatives of g(a t + b): d^k = a^k g^(k)(a t + b)."""
    return lambda k, t: a**k * g(k, a * t + b)


def _times_t(g: Deriv) -> Deriv:
    """The derivatives of t g(t) from those of g: d^k (t g) = k g^(k-1) + t g^(k)."""
    return lambda k, t: t * g(0, t) if k == 0 else k * g(k - 1, t) + t * g(k, t)


def _leibniz(f: Deriv, g: Deriv) -> Deriv:
    """The derivatives of f g: d^k (f g) = sum_j C(k, j) f^(j) g^(k-j)."""
    return lambda k, t: sum(math.comb(k, j) * f(j, t) * g(k - j, t) for j in range(k + 1))


def log_summand() -> Summand:
    """f(nu) = ln nu (principal); constant approximating polynomial suffices."""
    return Summand(
        eval=np.log,
        sigma=0,
        deriv=_d_log,
        domain_guard=_off_cut,
        label="log",
    )


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
        return replace(poly_summand((1.0,)), label="geom:1")
    lq = cmath.log(q)
    return Summand(
        eval=lambda pts: np.exp(pts * lq),
        sigma=SIGMA_NEG_INF,
        label=f"geom:{q}",
    )


def binom(c: complex, x: complex) -> Summand:
    """f(w) = C(c, w) x^w with the binomial coefficient through log-Gamma.

    C(c, w) = Gamma(c+1) / (Gamma(w+1) Gamma(c-w+1)); when Re(c-w+1) drops
    below 1/2 the reciprocal is computed by reflection, and arguments within
    rounding distance of a nonpositive integer give an exact zero (the
    coefficient vanishes there; sin(pi a) in doubles would leave a rounding
    residue). A pole of Gamma(w+1) anywhere in the orbit is a DomainError.
    """
    c = complex(c)
    x = complex(x)
    if x == 0:
        raise SummandSpecError("binom requires x != 0")
    lx = cmath.log(x)
    lgc1 = log_gamma(c + 1.0)

    def ev(pts: np.ndarray) -> np.ndarray:
        tol = 1e-12 * (1.0 + np.abs(pts))

        def near_nonpos_int(z: np.ndarray) -> np.ndarray:
            return (
                (np.abs(z.imag) <= tol)
                & (z.real <= 0.5)
                & (np.abs(z.real - np.round(z.real)) <= tol)
            )

        top_pole = near_nonpos_int(pts + 1.0)
        if top_pole.any():
            bad = complex(pts[top_pole][0])
            raise DomainError(f"binomial coefficient pole at w={bad}", bad)
        a = c - pts + 1.0
        # only the nonzero coefficients are evaluated: on a sum over [0, c]
        # every point of the upper orbit w = nu + c is a zero
        live = ~near_nonpos_int(a)
        out = np.zeros(pts.shape, dtype=complex)
        if not live.any():
            return out
        w, a = pts[live], a[live]
        refl = a.real < 0.5
        # 1/Gamma(a) = Gamma(1-a) sin(pi a) / pi on the reflection branch
        lg_a = log_gamma(np.where(refl, 1.0 - a, a))
        lc = lgc1 - log_gamma(w + 1.0) + np.where(refl, lg_a, -lg_a)
        v = np.exp(lc + w * lx)
        v[refl] *= np.sin(math.pi * a[refl]) / math.pi
        out[live] = v
        return out

    return Summand(eval=ev, sigma=SIGMA_NEG_INF, label=f"binom:{c}:{x}")


def vlnv() -> Summand:
    """f(nu) = nu ln nu; sigma = 1 (the ln-slope term must be subtracted)."""
    return Summand(
        eval=lambda pts: pts * np.log(pts),
        sigma=1,
        deriv=_times_t(_d_log),
        domain_guard=_off_cut,
        label="vlnv",
    )


def _ln_gamma_of(a: float, b: float, label: str) -> Summand:
    """f(nu) = ln Gamma(a nu + b), with d^k f = a^k psi^(k-1)(a nu + b); it
    grows like nu ln nu, and sigma = 3 leaves a remainder decaying like n^{-3}."""
    return Summand(
        eval=lambda pts: log_gamma(a * pts + b),
        sigma=3,
        deriv=_affine(_d_ln_gamma, a, b),
        domain_guard=lambda pts: _off_cut(a * pts + b),
        rate_hint=3.0,
        label=label,
    )


def lnfact(shift: float = 1.0) -> Summand:
    """f(nu) = ln Gamma(nu + shift); shift=1 gives ln(nu!), derivatives
    psi^(k-1)(nu + shift) at every order k."""
    return _ln_gamma_of(1.0, shift, "lnfact" if shift == 1.0 else f"lngamma+{shift}")


def ln_gamma_summand() -> Summand:
    """f(nu) = ln Gamma(nu) itself (the inner closed form of double sums)."""
    return lnfact(shift=0.0)


def ln_gamma_2nu() -> Summand:
    """f(nu) = ln Gamma(2 nu + 1), derivatives 2^k psi^(k-1)(2 nu + 1) at
    every order k."""
    return _ln_gamma_of(2.0, 1.0, "lngamma(2nu+1)")


def lognu_lnfact() -> Summand:
    """f(nu) = ln nu * ln Gamma(nu + 1)."""
    return Summand(
        eval=lambda pts: np.log(pts) * log_gamma(pts + 1.0),
        sigma=3,
        deriv=_leibniz(_d_log, lnfact().deriv),
        domain_guard=_off_cut,
        rate_hint=3.0,
        label="lognu*lnfact",
    )


def nu_lnfact() -> Summand:
    """f(nu) = nu * ln Gamma(nu + 1); needs sigma = 4 for an n^{-3} remainder."""
    return Summand(
        eval=lambda pts: pts * log_gamma(pts + 1.0),
        sigma=4,
        deriv=_times_t(lnfact().deriv),
        domain_guard=lambda pts: _off_cut(pts + 1.0),
        rate_hint=3.0,
        label="nu*lnfact",
    )


def bd_term(x: complex) -> Summand:
    """f(nu) = 2 nu ln(1 + x/nu); bounded (-> 2x), sigma = 0, error ~ n^{-2}."""
    x = complex(x)

    def ev(pts: np.ndarray) -> np.ndarray:
        # numpy's complex log1p is log(1 + z), which loses the digits of a small
        # z; Goldberg's form log(w) z / (w - 1), w = 1 + z, keeps them (z if w == 1)
        z = x / pts
        w = 1.0 + z
        return 2.0 * pts * np.divide(np.log(w) * z, w - 1.0, out=z.copy(), where=w != 1.0)

    return Summand(
        eval=ev,
        sigma=0,
        domain_guard=lambda pts: _off_cut(1.0 + x / pts),
        rate_hint=2.0,
        label=f"bd:{x}",
    )


def zpp_term(x: complex) -> Summand:
    """f(nu) = 2 nu ln^2(2 nu + x), the alternating-power-product summand.

    Grows like n ln^2 n; sigma = 3 leaves an O(ln n / n^4)-scale remainder
    over the catalog's [1, -1/2] window (the quadratic window weight
    vanishes there), so the raw levels are already at ~1e-14 by n ~ 1000.
    Its derivatives, at every order, are those of t * 2 L(t)^2, L = ln(2t + x).
    """
    x = complex(x)

    def ev(pts: np.ndarray) -> np.ndarray:
        u = np.log(2.0 * pts + x)
        return 2.0 * pts * u * u

    L = _affine(_d_log, 2.0, x)
    LL = _leibniz(L, L)
    return Summand(
        eval=ev,
        sigma=3,
        deriv=_times_t(lambda k, t: 2.0 * LL(k, t)),
        domain_guard=lambda pts: _off_cut(2.0 * pts + x),
        rate_hint=4.0,
        label=f"zpp:{x}",
    )


def identity_factor() -> Summand:
    """Factor f(nu) = nu for products; sigma/deriv/rate are those of ln nu."""
    return replace(log_summand(), eval=lambda pts: pts, domain_guard=_nonzero, label="id")


def tanh_factor() -> Summand:
    """Factor f(nu) = nu^2 + 1 for products; ln f ~ 2 ln nu, sigma = 0."""
    return Summand(
        eval=lambda pts: pts * pts + 1.0,
        sigma=0,
        label="nu^2+1",
    )


def poly_summand(coeffs: tuple[complex, ...]) -> Summand:
    """Custom polynomial summand from ascending coefficients; Taylor is exact."""
    p = Polynomial.of(*coeffs)
    if p.degree == -math.inf:
        return Summand(eval=lambda pts: np.zeros_like(pts), sigma=-1,
                       exact_poly=p, label="poly:0")

    def dv(k: int, t: np.ndarray) -> np.ndarray | complex:
        # p^(k)(t) = k! sum_{i>=k} C(i, k) c_i t^(i-k)
        dk = Polynomial.of(*(math.comb(i, k) * c for i, c in enumerate(p.coeffs[k:], k)))
        return math.factorial(k) * dk(t)

    # a Polynomial evaluates elementwise on arrays
    return Summand(eval=p, sigma=int(p.degree), deriv=dv,
                   exact_poly=p, label="poly:" + ",".join(str(c) for c in p.coeffs))


def sermul_combined(q1: complex, q2: complex) -> Summand:
    """The series-multiplication summand for two geometric series.

    h(nu) = f g + f * (partial sum of g up to nu-1) + g * (partial sum of f),
    with f = q1^nu, g = q2^nu and the partial sums in closed geometric form;
    its fractional sum factors into the product of the two geometric closed
    forms.
    """
    q1, q2 = complex(q1), complex(q2)
    for q in (q1, q2):
        if q == 1.0 or q == 0.0:
            raise SummandSpecError(f"sermul ratio {q} degenerate")
    l1, l2 = cmath.log(q1), cmath.log(q2)

    def ev(pts: np.ndarray) -> np.ndarray:
        f = np.exp(pts * l1)
        g = np.exp(pts * l2)
        tail_g = q2 * (1.0 - np.exp((pts - 1.0) * l2)) / (1.0 - q2)
        tail_f = q1 * (1.0 - np.exp((pts - 1.0) * l1)) / (1.0 - q1)
        return f * g + f * tail_g + g * tail_f

    return Summand(eval=ev, sigma=SIGMA_NEG_INF, label=f"sermul:{q1}:{q2}")


def gosper_term(b: float) -> Summand:
    """f(nu) = sin(sqrt(b^2 + 4 pi^2 nu^2)) / (2 nu sqrt(b^2 + 4 pi^2 nu^2)).

    The summand of the half-shifted sinc identity; decays like 1/nu^2 along
    the real axis.
    """
    b = float(b)

    def ev(pts: np.ndarray) -> np.ndarray:
        root = np.sqrt(b * b + 4.0 * math.pi**2 * pts * pts)
        return np.sin(root) / (2.0 * pts * root)

    return Summand(
        eval=ev,
        sigma=SIGMA_NEG_INF,
        domain_guard=_nonzero,
        label=f"gosper:{b}",
    )


# ---------------------------------------------------------------------------
# spec-string front end (used by the CLI)

# family -> constructor; families missing from _SPEC_KEYS take no parameters
_SPEC_FAMILIES: dict[str, Callable[..., Summand]] = {
    "recip": recip,
    "log": log_summand,
    "vlnv": vlnv,
    "lnfact": lnfact,
    # as a summand the identity map is the linear polynomial
    "id": lambda: replace(poly_summand((0.0, 1.0)), label="id"),
    "pow": power,
    "geom": geom,
    "binom": binom,
    "poly": poly_summand,
}
# the constructor's arguments, in order, as spec keys (poly takes a list)
_SPEC_KEYS = {"pow": ("a",), "geom": ("q",), "binom": ("c", "x")}


_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def parse_complex(text: str) -> complex:
    """Parse the literal grammar A, A+Bi, A-Bi (finite decimal A, B)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise SummandSpecError("empty complex literal")
    re_part, im_part = s, "0"
    if s.endswith("i"):
        body = s[:-1]
        # split at the last +/- that is not a leading sign or exponent sign
        for i in range(len(body) - 1, 0, -1):
            if body[i] in "+-" and body[i - 1].lower() not in "e":
                re_part, im_part = body[:i], body[i:]
                break
        else:
            re_part, im_part = "0", body
        if im_part in ("+", "-"):
            im_part += "1"
    # float() alone would also read 1_0 and non-ASCII digits
    if not (_DECIMAL.fullmatch(re_part) and _DECIMAL.fullmatch(im_part)):
        raise SummandSpecError(f"bad complex literal {text!r}")
    z = complex(float(re_part), float(im_part))
    # a decimal exponent can still overflow, as in 1e400
    if not cmath.isfinite(z):
        raise SummandSpecError(f"complex literal {text!r} is not finite")
    return z


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
    """Build a product factor from a CLI family spec (see frac_product).

    Only ``id``, ``pow:a=...`` and ``geom:q=...`` carry the metadata of the
    factor's logarithm; eval returns the factor itself.

    Raises:
        SummandSpecError: malformed spec, or a family without factor form.
    """
    fam, args = _parse_spec(spec)
    f = _SPEC_FAMILIES[fam](*args)  # the family's own parameter checks first
    if fam == "id":
        return identity_factor()
    if fam == "pow":
        # ln(nu^a) = a ln nu: the log summand's metadata, scaled
        (a,) = args
        lf = log_summand()
        return replace(lf, eval=f.eval, deriv=lambda k, t: a * lf.deriv(k, t),
                       label=f"factor:{spec}")
    if fam == "geom":
        # ln(q^nu) = nu ln q is an exact polynomial in nu
        (q,) = args
        return replace(poly_summand((0.0, cmath.log(q))),
                       eval=lambda pts: np.power(q, pts), label=f"factor:{spec}")
    raise SummandSpecError(
        f"family {fam!r} carries sum metadata; the product command supports "
        "'id', 'pow:a=...', 'geom:q=...'"
    )
