"""Fractional sums and products with complex bounds.

The defining construction: pick an approximating polynomial sequence p_n
(degree-sigma Taylor polynomials of the summand f, centered at the tail
offset n), then

    sum_{nu=x}^{y} f(nu)
        = lim_n [ sum_{nu=n+x}^{n+y} p_n(nu)          (exact, via poly_sum)
                  + sum_{nu=1}^{n} (f(nu+x-1) - f(nu+y)) ]   (classical)

for right sums; left sums replace n -> -n with tails running downward. The
limit is discretized on at most n_levels doubling levels n_j = n0 * 2^j and
accelerated by Richardson extrapolation, in one pass over that schedule: the
orbit of the whole schedule is checked against the summand's domain before
any term is evaluated, the polynomial part of every level is computed once,
and each level run adds one row to a single Richardson tableau. The loop
stops at the first level after which no deeper level prefix could be the
one kept. Fractional products are exp of the fractional sum of the
principal log of the factor.

Numerical notes that matter here:

* The polynomial part is evaluated in centered form,
  sum_k f^(k)(n)/k! * W_k with W_k = poly_sum(z^k, x, y), which equals
  poly_sum(p_n, n+x, n+y) exactly (translation identity for polynomials)
  while avoiding the catastrophic cancellation of expanded coefficients.
* Classical tails are reused incrementally across levels: each level adds
  the correctly rounded sum (math.fsum) of its new terms as one partial,
  and the tail is the math.fsum of the partials. Long levels reach the same
  double through an exact split in numpy first (_exact_sum), so a deep
  level costs little more than evaluating its terms. A tail that is not
  finite (a summand growing past the float range) is a DomainError.
* A tableau row depends only on the row before it, so the diagonal entry of
  a level prefix is, bit for bit, the extrapolant of that prefix alone.
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
    any sigma <= -1) means p_n = 0. deriv(order, points) returns d^order f
    elementwise over a complex numpy array (all tail centers in one call), or
    a constant; it is required for sigma >= 1, and without it a sigma = 0
    summand takes its value from eval. domain_guard(points) -> bool array
    marks points where f is defined. rate_hint is the expected leading error
    decay exponent p in n^{-p} (1 unless stated), used by Richardson
    extrapolation.

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
    deriv: Callable[[int, np.ndarray], np.ndarray | complex] | None = None
    domain_guard: Callable[[np.ndarray], np.ndarray] | None = None
    rate_hint: float = 1.0
    exact_poly: Polynomial | None = None
    label: str = ""

    def __post_init__(self):
        s = self.sigma
        if s != SIGMA_NEG_INF and (not float(s).is_integer() or s < -1):
            raise ParameterError(f"sigma must be an integer >= -1 or SIGMA_NEG_INF, got {s}")
        if s >= 1 and self.deriv is None:
            raise ParameterError(f"sigma = {s} needs deriv for the Taylor coefficients")
        if not self.rate_hint > 0:  # also rejects nan
            raise ParameterError(f"rate_hint must be positive, got {self.rate_hint}")


@dataclass(frozen=True)
class EngineConfig:
    """Discretization of the defining limit.

    Levels are n_j = n_start * 2^j for j < n_levels, at most; extrap_order
    Richardson eliminations are applied to the level values; tol is the
    target absolute-or-relative error for the converged flag, positive and
    finite.
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
        if not 0 < self.tol < math.inf:  # also rejects nan
            raise ParameterError(f"tol must be positive and finite, got {self.tol}")


DEFAULT_CONFIG = EngineConfig()


@dataclass(frozen=True)
class SumResult:
    """Outcome of one engine evaluation.

    levels holds the raw values (n_j, S(n_j)) of the levels run, before
    extrapolation, for diagnostics (the exact routes list every level of the
    schedule, each with the exact value); converged means err_estimate <= tol.
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
    row: list[complex] = []
    for _, v in levels:
        row = _richardson_row(row, v, order, rate_hint)
        diag.append(row[-1])
    err = abs(diag[-1] - diag[-2]) if len(diag) >= 2 else math.inf
    return diag[-1], err


def _richardson_row(prev: list[complex], v: complex, order: int, rate: float) -> list[complex]:
    """The tableau row of a new level value v, given the row of the level
    before it (empty for the first level): up to order eliminations."""
    row = [complex(v)]
    for k in range(1, min(len(prev), order) + 1):
        denom = 2.0 ** (rate + k - 1) - 1.0
        row.append(row[k - 1] + (row[k - 1] - prev[k - 1]) / denom)
    return row


def _taylor_table(f: Summand, centres: np.ndarray) -> np.ndarray:
    """Rows k <= sigma of f^(k)(c)/k!, a column per centre c, from one deriv
    call per order; without deriv sigma is 0 and the row is f(centres)."""
    if f.deriv is None:
        return np.asarray(f.eval(centres), dtype=complex)[None]
    return np.array([np.full(centres.shape, f.deriv(k, centres), dtype=complex) / math.factorial(k)
                     for k in range(int(f.sigma) + 1)])


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
    centered = Polynomial.of(*_taylor_table(f, np.array([n], dtype=complex))[:, 0])
    return centered.shift(-n)


def _guard_check(f: Summand, pts: np.ndarray) -> None:
    if f.domain_guard is None:
        return
    ok = np.asarray(f.domain_guard(pts), dtype=bool)
    if not ok.all():
        bad = pts[~ok][0]
        raise DomainError(f"summand undefined at orbit point {bad}", complex(bad))


# From this many values on, _exact_sum beats math.fsum over a Python list.
_SPLIT_MIN = 1024


def _exact_sum(a: np.ndarray) -> float:
    """math.fsum(a), most of it done in numpy.

    Two passes of Rump, Ogita and Oishi's ExtractVector: with sigma = 2^k
    above 2 len(a) max|a|, (a + sigma) - sigma is the high part of each
    value on a grid of spacing 2^(k-53), and the rest is exact. Every
    partial sum of the high parts is a multiple of that spacing below
    sigma, so numpy adds them exactly in any order; the rests are at most
    the spacing, and the second pass splits them the same way. fsum of the
    two exact sums and the nonzero rests has the same exact total as a, so
    it rounds to the same double.
    """
    m = float(np.max(np.abs(a)))
    if not 2.0**-900 < m < 2.0**900:  # zeros, inf, nan, or near the exponent limits
        if m == 0.0 and not np.signbit(a).any():
            return 0.0
        return math.fsum(a.tolist())
    grow = (2 * a.size).bit_length()  # 2^grow > 2 len(a)
    k = math.frexp(m)[1] + grow
    highs, rest = [], a
    for _ in range(2):
        sigma = math.ldexp(1.0, k)
        high = (rest + sigma) - sigma
        rest = rest - high
        highs.append(float(high.sum()))
        k += grow - 53  # the rests are at most 2^(k-53)
    return math.fsum([*highs, *rest[rest != 0.0].tolist()])


def _fsum(vals) -> complex:
    """Correctly rounded sum of complex values, real and imaginary parts apart."""
    vals = np.asarray(vals, dtype=complex)
    if vals.size < _SPLIT_MIN:
        return complex(math.fsum(vals.real.tolist()), math.fsum(vals.imag.tolist()))
    return complex(_exact_sum(vals.real), _exact_sum(vals.imag))


def _exact(value: complex, err: float, cfg: EngineConfig) -> SumResult:
    """Result of a closed route: every level of the schedule has the value."""
    levels = tuple((cfg.n_start << j, value) for j in range(cfg.n_levels))
    converged = bool(err <= cfg.tol * max(1.0, abs(value)))
    return SumResult(value=value, err_estimate=err, n_used=levels[-1][0],
                     converged=converged, levels=levels)


# Overflow and inf - inf in the terms end as a DomainError or an inf value
# below; numpy's warnings would only repeat them on stderr.
@np.errstate(over="ignore", invalid="ignore")
def _run_levels(f: Summand, x: complex, y: complex, cfg: EngineConfig, left: bool) -> SumResult:
    x, y = complex(x), complex(y)
    if f.exact_poly is not None:
        # p_n == f at every center, so S(n_j) = poly_sum(f, x, y) identically
        # for every level (and for both tail directions).
        return _exact(poly_sum(f.exact_poly, x, y), 0.0, cfg)
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
        if not pts.size:
            return _exact(0j, 0.0, cfg)
        _guard_check(f, pts)
        vals = np.asarray(f.eval(pts))
        err = 4.0 * float(np.finfo(float).eps) * float(np.abs(vals).sum())
        return _exact(sign * _fsum(vals), err, cfg)
    # One pass over the schedule n_j = n_start * 2^j. The orbit of the whole
    # schedule is checked against the domain before any evaluation: the stop
    # below saves evaluations, not the domain, and an orbit that meets a pole
    # or a cut past the stop still has no limit. Level j evaluates the orbit
    # points past n_{j-1}: f is added at pos and subtracted at neg.
    ns = [cfg.n_start << j for j in range(cfg.n_levels)]
    last = ns[-1]
    if left:
        ks = np.arange(0, last, dtype=float)
        pos, neg = y - ks, (x - 1.0) - ks
    else:
        nus = np.arange(1, last + 1, dtype=float)
        pos, neg = nus + (x - 1.0), nus + y
    _guard_check(f, pos)
    _guard_check(f, neg)
    # The Taylor table: the polynomial part at every center of the schedule,
    # for the levels run and for the floor's share of the skipped ones.
    poly = [0j] * len(ns)
    if f.sigma >= 0:
        weights = [poly_sum(Polynomial.monomial(k), x, y) for k in range(int(f.sigma) + 1)]
        centres = np.array(ns, dtype=float)  # -n as a real: its imaginary part is +0
        table = _taylor_table(f, (-centres if left else centres).astype(complex))
        poly = [sum(c * w for c, w in zip(col, weights)) for col in table.T.tolist()]
    order, rate = cfg.extrap_order, f.rate_hint
    eps = float(np.finfo(float).eps)
    partials: list[complex] = []
    levels: list[tuple[int, complex]] = []
    row: list[complex] = []  # the newest row of the Richardson tableau
    diag: list[complex] = []
    cancel_mag = 0.0
    term_sq = 0.0  # sum of |f|^2 over the points evaluated so far
    value, err, m_used, kept_walk = None, math.inf, cfg.n_levels, math.inf
    for j, (lo, n) in enumerate(zip([0, *ns], ns)):
        vals_pos = np.asarray(f.eval(pos[lo:n]))
        vals_neg = np.asarray(f.eval(neg[lo:n]))
        try:
            partials.append(_fsum(vals_pos - vals_neg))
            tail = _fsum(partials)
        except (ValueError, OverflowError):  # math.fsum met inf - inf, or overflowed
            tail = complex(math.nan)
        if not np.isfinite(tail):
            raise DomainError(f"the classical tail is not finite at level n = {n}")
        term_sq += float(np.vdot(vals_pos, vals_pos).real + np.vdot(vals_neg, vals_neg).real)
        # Every evaluated term carries about 2 eps * |f| of rounding, and a
        # level's terms add it up like a random walk. Neighbouring deep levels
        # carry alike amounts of that noise, so the tableau's last difference
        # need not see it.
        walk = 2.0 * eps * math.sqrt(term_sq)
        cancel_mag = max(cancel_mag, abs(tail) + abs(poly[j]))
        levels.append((n, tail + poly[j]))
        # diag[j] extrapolates the first j + 1 levels (see the module notes)
        row = _richardson_row(row, levels[-1][1], order, rate)
        diag.append(row[-1])
        if j < order:
            continue
        # Keep the first prefix with the smallest claim, a claim being no
        # smaller than the rounding its levels carry. For cleanly converging
        # families the full tableau wins; for growing summands (nu * lnGamma
        # and friends) the deepest levels are dominated by rounding noise,
        # and the extrapolation must stop at the noise floor instead of
        # folding that noise in.
        e = abs(diag[-1] - diag[-2]) if j else math.inf
        claim = max(e, walk)
        if math.isfinite(claim) and claim < err:
            value, err, m_used, kept_walk = diag[-1], claim, j + 1, walk
        # Stop once no deeper prefix can be kept: a deeper prefix claims at
        # least its own walk, the walk never decreases as points are added,
        # and this walk already reaches the best claim, so no deeper claim is
        # strictly smaller. A NaN walk never stops the loop, nor does any
        # walk before a finite claim: then the whole tableau is the result.
        if value is not None and walk >= err:
            break
    if value is None:
        value, err, kept_walk = diag[-1], e, walk
    if math.isfinite(err):
        # Level agreement cannot certify below the rounding floor of the
        # tail/poly-part cancellation plus the terms' own rounding; an
        # estimate under that floor would overstate the precision actually
        # delivered. The absolute term, a subnormal ulp per term of the
        # schedule, keeps that floor above zero for summands scaled into the
        # subnormal range, where the relative parts underflow. A level the
        # stop skipped counts too: its S(n) = tail + p(n) has reached the
        # value, so its tail is value - p(n).
        for p_term in poly[len(levels):]:
            cancel_mag = max(cancel_mag, abs(value - p_term) + abs(p_term))
        floor = 8.0 * eps * cancel_mag + kept_walk + 2 * last * math.ulp(0.0)
        err = max(err, floor)
    converged = bool(math.isfinite(err) and err <= cfg.tol * max(1.0, abs(value)))
    return SumResult(value=value, err_estimate=err, n_used=ns[m_used - 1],
                     converged=converged, levels=tuple(levels))


def frac_sum_right(
    f: Summand, x: complex, y: complex, cfg: EngineConfig = DEFAULT_CONFIG
) -> SumResult:
    """Right fractional sum of f over [x, y], tail limit toward +infinity.

    Per level: S(n) = poly_sum(p_n, n+x, n+y) + sum_{nu=1}^{n}
    (f(nu+x-1) - f(nu+y)), then Richardson extrapolation over the levels.
    Non-convergence is reported through converged=False, never by fabricating
    a value.

    Raises:
        DomainError: an orbit point fails the summand's domain guard, or the
            classical tail of a level is not finite.
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


@np.errstate(over="ignore")  # an overflowing product is inf, not converged
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
