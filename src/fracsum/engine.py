"""Fractional sums and products with complex bounds.

The defining construction: pick an approximating polynomial sequence p_n
(degree-sigma Taylor polynomials of the summand f, centered at the tail
offset n), then

    sum_{nu=x}^{y} f(nu)
        = lim_n [ sum_{nu=n+x}^{n+y} p_n(nu)          (exact, via poly_sum)
                  + sum_{nu=1}^{n} (f(nu+x-1) - f(nu+y)) ]   (classical)

for right sums; left sums replace n -> -n with tails running downward. The
limit is discretized on doubling levels n_j = n0 * 2^j and accelerated by
Richardson extrapolation. Fractional products are exp of the fractional sum
of the principal log of the factor.

Numerical notes that matter here:

* The polynomial part is evaluated in centered form,
  sum_k f^(k)(n)/k! * W_k with W_k = poly_sum(z^k, x, y), which equals
  poly_sum(p_n, n+x, n+y) exactly (translation identity for polynomials)
  while avoiding the catastrophic cancellation of expanded coefficients.
* Classical tails are reused incrementally across levels: each level adds
  the correctly rounded sum (math.fsum) of its new terms as one partial,
  and the tail is the math.fsum of the partials.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import BranchCutError, DomainError, ParameterError
from .polycore import Polynomial, poly_sum

__all__ = [
    "SIGMA_NEG_INF",
    "Summand",
    "EngineConfig",
    "DEFAULT_CONFIG",
    "SumResult",
    "MirrorCheck",
    "approx_poly",
    "frac_sum_right",
    "frac_sum_left",
    "frac_product",
    "mirror_check",
    "reflected",
    "richardson_extrapolate",
]

# Sentinel for summands with f(n+z) -> 0: the approximating polynomial is
# identically zero and no Taylor data is needed.
SIGMA_NEG_INF = float("-inf")


@dataclass(frozen=True)
class Summand:
    """A summand f with the asymptotic metadata the engine needs.

    eval must accept a complex numpy array and return the values elementwise.
    sigma is the asymptotic degree: the Taylor polynomial of f of this degree
    at the tail center makes f - p_n vanish along the tail; SIGMA_NEG_INF (or
    any sigma <= -1) means p_n = 0. deriv(order, point) returns d^order f at
    a point; it is required for sigma >= 1, and without it a sigma = 0
    summand takes its value from eval. domain_guard(points) -> bool array
    marks points where f is defined. rate_hint is the expected leading error
    decay exponent p in n^{-p}, used by Richardson extrapolation.

    exact_poly declares that f IS this polynomial. Then p_n reproduces f
    identically and every level value equals poly_sum(f, x, y) by continued
    summation, so the engine evaluates that closed value instead of pushing
    an exactly-cancelling tail through floats (which only injects rounding
    noise the mathematics does not have).

    For products, eval returns the factor f itself while sigma/deriv
    describe nu -> ln f(nu); see frac_product.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    sigma: float = SIGMA_NEG_INF
    deriv: Callable[[int, complex], complex] | None = None
    domain_guard: Callable[[np.ndarray], np.ndarray] | None = None
    rate_hint: float | None = None
    exact_poly: Polynomial | None = None
    label: str = ""

    def __post_init__(self):
        s = self.sigma
        if s != SIGMA_NEG_INF and (not float(s).is_integer() or s < -1):
            raise ParameterError(f"sigma must be an integer >= -1 or SIGMA_NEG_INF, got {s}")
        if s >= 1 and self.deriv is None:
            raise ParameterError(f"sigma = {s} needs deriv for the Taylor coefficients")
        if self.rate_hint is not None and self.rate_hint <= 0:
            raise ParameterError(f"rate_hint must be positive, got {self.rate_hint}")


@dataclass(frozen=True)
class EngineConfig:
    """Discretization of the defining limit.

    Levels are n_j = n_start * 2^j for j < n_levels; extrap_order Richardson
    eliminations are applied to the level values; tol is the target
    absolute-or-relative error for the converged flag.
    """

    n_start: int = 64
    n_levels: int = 8
    extrap_order: int = 4
    tol: float = 1e-8

    def __post_init__(self):
        if self.n_start < 1:
            raise ParameterError(f"n_start must be >= 1, got {self.n_start}")
        if self.n_levels < 2:
            raise ParameterError(f"n_levels must be >= 2, got {self.n_levels}")
        if not 0 <= self.extrap_order < self.n_levels:
            raise ParameterError(
                f"extrap_order must be in [0, n_levels), got {self.extrap_order}"
            )
        if self.tol <= 0:
            raise ParameterError(f"tol must be positive, got {self.tol}")


DEFAULT_CONFIG = EngineConfig()


@dataclass(frozen=True)
class SumResult:
    """Outcome of one engine evaluation.

    levels holds the raw per-level values (n_j, S(n_j)) before extrapolation
    for diagnostics; converged means err_estimate <= tol.
    """

    value: complex
    err_estimate: float
    n_used: int
    converged: bool
    levels: tuple[tuple[int, complex], ...] = field(repr=False, default=())


@dataclass(frozen=True)
class MirrorCheck:
    """Right sum vs the reflected left sum, with their difference."""

    right: SumResult
    left: SumResult
    abs_diff: float


def richardson_extrapolate(
    levels: Sequence[tuple[int, complex]], order: int, rate_hint: float = 1.0
) -> tuple[complex, float]:
    """Accelerate a doubling-level sequence assuming error ~ c * n^{-p}.

    Each elimination removes the current leading power (starting at
    p = rate_hint, incrementing by one), using the doubling identity
    T[j][k] = T[j][k-1] + (T[j][k-1] - T[j-1][k-1]) / (2^{p+k-1} - 1).

    Args:
        levels: (n, value) pairs with n strictly doubling.
        order: number of eliminations; needs at least order+1 levels.
        rate_hint: leading decay exponent p, may be non-integer.

    Returns:
        (final diagonal extrapolant, |difference of last two diagonal entries|).

    Raises:
        ParameterError: too few levels or n not doubling.
    """
    if order < 0:
        raise ParameterError(f"order must be >= 0, got {order}")
    if len(levels) < order + 1:
        raise ParameterError(f"need at least {order + 1} levels, got {len(levels)}")
    ns = [n for n, _ in levels]
    for a, b in zip(ns, ns[1:]):
        if b != 2 * a:
            raise ParameterError(f"levels must double: {a} -> {b}")
    diag: list[complex] = []
    prev_row: list[complex] = []
    for j, (_, v) in enumerate(levels):
        row = [complex(v)]
        for k in range(1, min(j, order) + 1):
            denom = 2.0 ** (rate_hint + k - 1) - 1.0
            row.append(row[k - 1] + (row[k - 1] - prev_row[k - 1]) / denom)
        diag.append(row[-1])
        prev_row = row
    err = abs(diag[-1] - diag[-2]) if len(diag) >= 2 else math.inf
    return diag[-1], err


def _taylor_coeffs(f: Summand, center: complex) -> list[complex]:
    """[f^(k)(center)/k! for k <= sigma]; without deriv sigma is 0 and the
    one coefficient is f(center)."""
    if f.deriv is None:
        return [complex(f.eval(np.array([center], dtype=complex))[0])]
    return [complex(f.deriv(k, center)) / math.factorial(k) for k in range(int(f.sigma) + 1)]


def approx_poly(f: Summand, n: complex) -> Polynomial:
    """The approximating polynomial p_n: degree-sigma Taylor of f at n, in nu.

    p_n(nu) = sum_{k<=sigma} f^(k)(n) (nu-n)^k / k!. Requires sigma >= 0;
    for the SIGMA_NEG_INF sentinel the engine uses the zero polynomial
    without calling this.

    Raises:
        ParameterError: sigma < 0.
    """
    if f.sigma < 0:
        raise ParameterError("approx_poly needs sigma >= 0")
    centered = Polynomial.of(*_taylor_coeffs(f, n))
    return centered.shift(-n)


def _guard_check(f: Summand, pts: np.ndarray) -> None:
    if f.domain_guard is None:
        return
    ok = np.asarray(f.domain_guard(pts), dtype=bool)
    if not ok.all():
        bad = pts[~ok][0]
        raise DomainError(f"summand undefined at orbit point {bad}", complex(bad))


def _fsum(vals) -> complex:
    """Correctly rounded sum of complex values, real and imaginary parts apart."""
    vals = np.asarray(vals, dtype=complex)
    return complex(math.fsum(vals.real.tolist()), math.fsum(vals.imag.tolist()))


def _run_levels(f: Summand, x: complex, y: complex, cfg: EngineConfig, left: bool) -> SumResult:
    x, y = complex(x), complex(y)
    if f.exact_poly is not None:
        # p_n == f at every center, so S(n_j) = poly_sum(f, x, y) identically
        # for every level (and for both tail directions).
        value = poly_sum(f.exact_poly, x, y)
        levels = tuple((cfg.n_start << j, value) for j in range(cfg.n_levels))
        return SumResult(
            value=value,
            err_estimate=0.0,
            n_used=levels[-1][0],
            converged=True,
            levels=levels,
        )
    delta = y - x
    if abs(delta.real) <= 2_000_000 and abs(delta - round(delta.real)) <= (
        4.0 * float(np.finfo(float).eps) * max(1.0, abs(x), abs(y))
    ):
        # Integer-length interval: continued summation, translation and the
        # single-term axiom reduce the sum to the classical loop (negative
        # lengths to minus the reversed loop, length -1 to the empty sum).
        # Evaluating that directly is exact where the limit route would
        # push a huge poly-part/tail cancellation through doubles. A length
        # a few ulp off an integer is that integer: y - x rounds.
        m = int(round(delta.real)) + 1
        if m >= 0:
            pts = (x + np.arange(m, dtype=float)).astype(complex)
            sign = 1.0
        else:
            pts = (y + np.arange(1, 1 - m, dtype=float)).astype(complex)
            sign = -1.0
        value = 0j
        err = 0.0
        if pts.size:
            _guard_check(f, pts)
            vals = np.asarray(f.eval(pts))
            value = sign * _fsum(vals)
            err = 4.0 * float(np.finfo(float).eps) * float(np.abs(vals).sum())
        levels = tuple((cfg.n_start << j, value) for j in range(cfg.n_levels))
        return SumResult(
            value=value,
            err_estimate=err,
            n_used=levels[-1][0],
            converged=bool(err <= cfg.tol * max(1.0, abs(value))),
            levels=levels,
        )
    use_poly = f.sigma >= 0
    weights: list[complex] = []
    if use_poly:
        weights = [poly_sum(Polynomial.monomial(k), x, y) for k in range(int(f.sigma) + 1)]
    partials: list[complex] = []
    levels: list[tuple[int, complex]] = []
    done = 0
    cancel_mag = 0.0
    for j in range(cfg.n_levels):
        n = cfg.n_start << j
        if left:
            ks = np.arange(done, n, dtype=float)
            pts_pos = y - ks
            pts_neg = (x - 1.0) - ks
        else:
            nus = np.arange(done + 1, n + 1, dtype=float)
            pts_pos = nus + (x - 1.0)
            pts_neg = nus + y
        pts_pos = pts_pos.astype(complex)
        pts_neg = pts_neg.astype(complex)
        _guard_check(f, pts_pos)
        _guard_check(f, pts_neg)
        partials.append(_fsum(np.asarray(f.eval(pts_pos)) - np.asarray(f.eval(pts_neg))))
        done = n
        tail = _fsum(partials)
        p_term = 0j
        if use_poly:
            center = -float(n) if left else float(n)
            p_term = sum(c * w for c, w in zip(_taylor_coeffs(f, center), weights))
        cancel_mag = max(cancel_mag, abs(tail) + abs(p_term))
        levels.append((n, tail + p_term))
    order = min(cfg.extrap_order, cfg.n_levels - 1)
    rate = f.rate_hint or 1.0
    # Extrapolate every level prefix and keep the one with the smallest
    # self-reported error. For cleanly converging families the full tableau
    # wins and this is a no-op; for fast-growing summands (nu * lnGamma and
    # friends) the deepest levels are dominated by rounding noise in the
    # huge poly-part/tail cancellation, and the extrapolation must stop at
    # the noise floor instead of folding that noise into the value.
    value, err, n_used = None, math.inf, done
    for m in range(order + 1, len(levels) + 1):
        v, e = richardson_extrapolate(levels[:m], order, rate)
        if math.isfinite(e) and e < err:
            value, err, n_used = v, e, levels[m - 1][0]
    if value is None:
        value, err = richardson_extrapolate(levels, order, rate)
        n_used = done
    if math.isfinite(err):
        # Level agreement cannot certify below the rounding floor of the
        # tail/poly-part cancellation; an estimate under that floor would
        # overstate the precision actually delivered. The absolute term, a
        # subnormal ulp per term evaluated, keeps that floor above zero for
        # summands scaled into the subnormal range, where eps * cancel_mag
        # underflows.
        floor = 8.0 * float(np.finfo(float).eps) * cancel_mag + 2 * done * math.ulp(0.0)
        err = max(err, floor)
    scale = max(1.0, abs(value))
    converged = bool(math.isfinite(err) and err <= cfg.tol * scale)
    return SumResult(
        value=value,
        err_estimate=err,
        n_used=n_used,
        converged=converged,
        levels=tuple(levels),
    )


def frac_sum_right(
    f: Summand, x: complex, y: complex, cfg: EngineConfig = DEFAULT_CONFIG
) -> SumResult:
    """Right fractional sum of f over [x, y], tail limit toward +infinity.

    Per level: S(n) = poly_sum(p_n, n+x, n+y) + sum_{nu=1}^{n}
    (f(nu+x-1) - f(nu+y)), then Richardson extrapolation over the levels.
    Non-convergence is reported through converged=False, never by fabricating
    a value.

    Raises:
        DomainError: an orbit point fails the summand's domain guard.
    """
    return _run_levels(f, x, y, cfg, left=False)


def frac_sum_left(
    f: Summand, x: complex, y: complex, cfg: EngineConfig = DEFAULT_CONFIG
) -> SumResult:
    """Left fractional sum: the tail limit runs toward -infinity.

    Per level: S(m) = poly_sum(p_{-m}, x-m, y-m) + sum_{k=0}^{m-1}
    (f(y-k) - f(x-1-k)). The summand's sigma/deriv must describe f toward
    -infinity.
    """
    return _run_levels(f, x, y, cfg, left=True)


def _checked_log(vals: np.ndarray, pts: np.ndarray) -> np.ndarray:
    mag = np.abs(vals)
    on_cut = (vals.real <= 0.0) & (np.abs(vals.imag) <= 1e-12 * (1.0 + mag))
    if on_cut.any():
        i = int(np.argmax(on_cut))
        raise BranchCutError(
            f"factor value {complex(vals[i])} at point {complex(pts[i])} lies on the "
            "closed negative real axis; principal log undefined",
            complex(pts[i]),
        )
    return np.log(vals)


def frac_product(
    f: Summand, x: complex, y: complex, cfg: EngineConfig = DEFAULT_CONFIG,
    *, left: bool = False,
) -> SumResult:
    """Fractional product over [x, y]: exp of the fractional sum of ln f.

    f.eval returns the factor values; f.sigma/deriv describe the logarithm
    nu -> ln f(nu) (that is what the approximating polynomials act on). Any
    factor value on the closed negative real axis is a hard branch error.
    left selects the left-tail sum of the logarithm.

    Raises:
        BranchCutError: some factor value lies on (-inf, 0].
        DomainError: as frac_sum_right.
    """

    def log_eval(pts: np.ndarray) -> np.ndarray:
        return _checked_log(np.asarray(f.eval(pts)), pts)

    logf = replace(f, eval=log_eval)
    res = (frac_sum_left if left else frac_sum_right)(logf, x, y, cfg)
    value = complex(np.exp(res.value))
    return SumResult(
        value=value,
        err_estimate=float(abs(value) * res.err_estimate),
        n_used=res.n_used,
        converged=res.converged,
        levels=tuple((n, complex(np.exp(v))) for n, v in res.levels),
    )


def reflected(f: Summand) -> Summand:
    """The summand nu -> f(-nu), with derivatives and guard carried along."""
    d = None
    if f.deriv is not None:
        d = lambda k, t: (-1.0) ** k * f.deriv(k, -t)
    g = None
    if f.domain_guard is not None:
        g = lambda pts: f.domain_guard(-pts)
    ep = None
    if f.exact_poly is not None:
        ep = Polynomial.of(
            *((-1.0) ** k * c for k, c in enumerate(f.exact_poly.coeffs))
        )
    return Summand(
        eval=lambda pts: np.asarray(f.eval(-pts)),
        sigma=f.sigma,
        deriv=d,
        domain_guard=g,
        rate_hint=f.rate_hint,
        exact_poly=ep,
        label=f"{f.label}(-nu)" if f.label else "",
    )


def mirror_check(f: Summand, a: complex, b: complex, cfg: EngineConfig = DEFAULT_CONFIG) -> MirrorCheck:
    """Compare the right sum over [a, b] with the left sum of f(-nu) over [-b, -a].

    The two agree identically for the Taylor realization (the reflected
    Taylor data is the mirror image), so the difference measures only
    round-off and is a sharp internal consistency check.
    """
    right = frac_sum_right(f, a, b, cfg)
    left = frac_sum_left(reflected(f), -b, -a, cfg)
    return MirrorCheck(right=right, left=left, abs_diff=abs(right.value - left.value))
