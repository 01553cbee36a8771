"""Fractional sums and products with complex bounds.

The defining construction: pick an approximating polynomial sequence p_n
(here the degree-sigma polynomial that interpolates the summand f at the
sigma + 1 orbit points where the window [n+x, n+y] starts), then

    sum_{nu=x}^{y} f(nu)
        = lim_n [ sum_{nu=n+x}^{n+y} p_n(nu)    (weights on f's sigma + 1 nodes)
                  + sum_{nu=1}^{n} (f(nu+x-1) - f(nu+y)) ]   (classical)

for right sums; left sums replace n -> -n with tails running downward. The
limit is discretized on the doubling levels of SCHEDULE, n_j = 64 * 2^j for
j < 8, and accelerated by RICHARDSON_ORDER (4) Richardson eliminations, in
one pass over that schedule: the orbit of the whole schedule is checked
against the summand's domain before any term is evaluated, the polynomial
part of every level is computed once, and each level run adds one row to a
single Richardson tableau. The loop stops at whichever comes first:
* a level whose value S(n) equals the value of the level before it bit for
  bit, as a geometric tail soon gives. That level is kept, and its claim is
  the rounding floor alone. The stop assumes that once a level's terms add
  less than half an ulp to S(n), the terms further out add less again. That
  holds for every built-in family: where a family's terms fall that low,
  they decay along the rest of the tail;
* a level after which no deeper level prefix could be the one kept.
The schedule is how the engine approximates the value the axioms fix, not a
setting; the caller's one setting is tol, the target of converged. A
fractional product is exp of the fractional sum of ln g, the logarithm of
its factor g; its summand is that logarithm.

Numerical notes that matter here:

* The polynomial part is in Newton's form, one weight per node n + x + i
  (right) or y - n - i (left): the window sum of p_n is
  sum_m C(L, m + 1) D^m f(first node), L = y - x + 1. The differences D^m
  pass a node's rounding on with a gain up to 2^sigma: sigma <= 4 on every
  perfbench workload, and a power(a) of larger sigma does not converge.
* Between real bounds the orbit is float64, so a real-analytic summand is
  evaluated in real arithmetic, its terms are summed as one part and its
  polynomial part is real; complex bounds and poly_sum stay complex.
* The closed routes, an exact polynomial's poly_sum and an integer length's
  classical loop, run no level: they report levels = () and n_used the
  classical terms they evaluated (0 for a polynomial).
* Classical tails are reused incrementally across levels: each level's new
  terms are summed by numpy's pairwise sum into one partial, and the tail
  is the running sum of the partials. Both err by a few ulp of what they
  sum, inside the rounding floor below (8 eps of the cancelling magnitude
  plus the terms' random walk). A tail that is not finite (a summand
  growing past the float range) is a DomainError.
* Rounding k + x to its binade's grid shifts a binade's points alike, by d,
  and a level's terms by about d (f(last) - f(first)), which the random
  walk misses; that error of S(n), extrapolated like S(n), joins the floor.
* A tableau row depends only on the row before it, so the diagonal entry of
  a level prefix is, bit for bit, the extrapolant of that prefix alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar, Sequence

import numpy as np

from .errors import BranchCutError, DomainError, ParameterError
from .polycore import Polynomial, poly_sum

__all__ = [
    "SCHEDULE",
    "RICHARDSON_ORDER",
    "DEFAULT_TOL",
    "Summand",
    "SumResult",
    "MirrorCheck",
    "frac_sum_right",
    "frac_sum_left",
    "frac_product",
    "mirror_check",
    "reflected",
    "richardson_extrapolate",
]

# The doubling levels n_j of the defining limit, the Richardson eliminations
# applied over them, and the default target of converged.
SCHEDULE = tuple(64 << j for j in range(8))
RICHARDSON_ORDER = 4
DEFAULT_TOL = 1e-8
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Summand:
    """A summand f with the asymptotic metadata the engine needs.

    eval returns the values elementwise over a numpy array of orbit points,
    the only points it is given: float64 between real bounds, on every route,
    complex128 otherwise. A summand that is complex on the real axis must
    promote real points itself (as summands.binom does); a real evaluation
    of it gives NaN, which ends in a DomainError, never in a silently real
    value. sigma is the asymptotic degree, an integer: the polynomial of
    this degree that interpolates f at sigma + 1 orbit points past n makes
    f - p_n vanish along the tail; -1, the default, means p_n = 0, for a
    summand with f(n+z) -> 0. domain_guard(points) -> bool array marks points
    where f is defined; the engine raises the DomainError that names the
    orbit point it rejects.
    rate_hint is the expected leading error decay exponent p in n^{-p} (1
    unless stated), used by Richardson extrapolation; it may be complex, as
    a complex power's is, with Re p > 0.

    exact_poly declares that f IS this polynomial. Then p_n reproduces f
    identically and every level value equals poly_sum(f, x, y) by continued
    summation, so the engine evaluates that closed value instead of pushing
    an exactly-cancelling tail through floats (which only injects rounding
    noise the mathematics does not have).

    A product's summand is the logarithm of its factor; see frac_product.
    The product's converged follows SumResult's rule, with the product's own
    value and err_estimate.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    sigma: int = -1
    domain_guard: Callable[[np.ndarray], np.ndarray] | None = None
    rate_hint: float | complex = 1.0
    exact_poly: Polynomial | None = None
    # not a field: kept for callers that still look for derivatives on a summand
    deriv: ClassVar[None] = None

    def __post_init__(self):
        s = self.sigma
        if not isinstance(s, int) or s < -1:
            raise ParameterError(f"sigma must be an integer >= -1, got {s}")
        if not self.rate_hint.real > 0:  # also rejects nan
            raise ParameterError(f"rate_hint must have Re > 0, got {self.rate_hint}")


@dataclass(frozen=True)
class SumResult:
    """Outcome of one engine evaluation.

    levels holds the raw values (n_j, S(n_j)) of the levels run, a prefix of
    SCHEDULE, before extrapolation, for diagnostics. n_used is the n of the
    kept level (for an equal-level stop, the first level equal to the one
    before it: over [1, 1/2], geom(0.5) runs 2 levels, geom(0.9) 5), the count
    of classical terms a closed route evaluated, or 0 for an exact polynomial.
    converged means err_estimate <= tol * max(1, |value|), for the tol the
    sum was asked for. The rule holds for products too, with err_estimate
    the product's error (see frac_product).
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
    levels: Sequence[tuple[int, complex]], order: int, rate_hint: float | complex = 1.0
) -> tuple[complex, float]:
    """Accelerate a doubling-level sequence assuming error ~ c * n^{-p}.

    Each elimination removes the current leading power (starting at
    p = rate_hint, incrementing by one), using the doubling identity
    T[j][k] = T[j][k-1] + (T[j][k-1] - T[j-1][k-1]) / (2^{p+k-1} - 1).

    Args:
        levels: (n, value) pairs with n >= 1 strictly doubling.
        order: number of eliminations; needs at least order+1 levels.
        rate_hint: leading decay exponent p, Re p > 0; may be non-integer
            or complex.

    Returns:
        (final diagonal extrapolant, |difference of last two diagonal entries|).

    Raises:
        ParameterError: too few levels, n below 1 or not doubling, or
            Re rate_hint not positive.
    """
    if not rate_hint.real > 0:  # also rejects nan, as Summand does
        raise ParameterError(f"rate_hint must have Re > 0, got {rate_hint}")
    if order < 0:
        raise ParameterError(f"order must be >= 0, got {order}")
    if len(levels) < order + 1:
        raise ParameterError(f"need at least {order + 1} levels, got {len(levels)}")
    ns = [n for n, _ in levels]
    if ns[0] < 1:  # doubling carries n >= 1 to every later level
        raise ParameterError(f"levels need n >= 1, got {ns[0]}")
    for a, b in zip(ns, ns[1:]):
        if b != 2 * a:
            raise ParameterError(f"levels must double: {a} -> {b}")
    diag: list[complex] = []
    row: list[complex] = []
    for _, v in levels:
        row = _richardson_row(row, v, order, rate_hint)
        diag.append(row[-1])
    err = _modulus(diag[-1] - diag[-2]) if len(diag) >= 2 else math.inf
    return diag[-1], err


def _richardson_row(prev: list[complex], v: complex, order: int, rate: complex) -> list[complex]:
    """The tableau row of a new level value v, given the row of the level
    before it (empty for the first level): up to order eliminations."""
    row = [complex(v)]
    for k in range(1, min(len(prev), order) + 1):
        denom = 2.0 ** (rate + k - 1) - 1.0
        row.append(row[k - 1] + (row[k - 1] - prev[k - 1]) / denom)
    return row


def _guard_check(f: Summand, pts: np.ndarray) -> None:
    if f.domain_guard is None:
        return
    ok = np.asarray(f.domain_guard(pts), dtype=bool)
    if not ok.all():
        bad = complex(pts[~ok][0])
        raise DomainError(f"summand undefined at orbit point {bad}", bad)


def _newton_weights(length: float | complex, degree: int) -> np.ndarray:
    """K_i, i = 0..degree: sum_i K_i f(a + i) is the sum over [a, a + length - 1]
    of the polynomial through the f(a + i). Newton's p(a + t) = sum_m C(t, m) D^m f(a)
    sums to sum_m C(length, m + 1) D^m f(a) (hockey stick), with D^m f(a) =
    sum_i (-1)^(m-i) C(m, i) f(a + i). A real length gives float64 weights."""
    c = [1.0]  # c[m] = C(length, m)
    for m in range(degree + 1):
        c.append(c[-1] * (length - m) / (m + 1))
    k = range(degree + 1)
    return np.array([sum((-1) ** (m - i) * math.comb(m, i) * c[m + 1] for m in k[i:]) for i in k])


def _modulus(z: complex) -> float:
    """|z|, inf where it passes the float range: abs() of a complex raises
    OverflowError there even when both parts are finite."""
    return math.hypot(z.real, z.imag)


def _converged(value: complex, err: float, tol: float) -> bool:
    """The SumResult contract: the error bar is finite and within tol."""
    return bool(math.isfinite(err) and err <= tol * max(1.0, _modulus(value)))


def _result(value: complex, err: float, n_used: int, levels: Sequence, tol: float) -> SumResult:
    """The one exit of every sum route: a value that is not finite is a
    DomainError, and converged is decided by _converged."""
    if not np.isfinite(value):
        raise DomainError(f"the sum is not finite: {value}")
    return SumResult(value, err, n_used, _converged(value, err, tol), tuple(levels))


# Overflow and inf - inf in the terms end as a DomainError below; numpy's
# warnings would only repeat them on stderr.
@np.errstate(over="ignore", invalid="ignore")
def _frac_sum(f: Summand, x: complex, y: complex, tol: float, left: bool) -> SumResult:
    if not 0 < tol < math.inf:  # also rejects nan
        raise ParameterError(f"tol must be positive and finite, got {tol}")
    x, y = complex(x), complex(y)
    if f.exact_poly is not None:
        # p_n == f, so S(n_j) = poly_sum(f, x, y) identically
        # for every level (and for both tail directions).
        return _result(poly_sum(f.exact_poly, x, y), 0.0, 0, (), tol)
    # Between real bounds the orbit is real, and its points are float64.
    xo, yo = (x.real, y.real) if x.imag == y.imag == 0.0 else (x, y)
    delta = y - x
    if abs(delta.real) <= 2_000_000 and abs(delta - round(delta.real)) <= (
        4.0 * _EPS * max(1.0, _modulus(x), _modulus(y))
    ):
        # Integer-length interval: continued summation, translation and the
        # single-term axiom reduce the sum to the classical loop (negative
        # lengths to minus the reversed loop, length -1 to the empty sum).
        # Evaluating that directly is exact where the limit route would
        # push a huge poly-part/tail cancellation through doubles. A length
        # a few ulp off an integer is that integer: y - x rounds.
        m = int(round(delta.real)) + 1
        if m >= 0:
            pts, sign = xo + np.arange(m, dtype=float), 1.0
        else:
            pts, sign = yo + np.arange(1, 1 - m, dtype=float), -1.0
        if not pts.size:
            return _result(0j, 0.0, 0, (), tol)
        _guard_check(f, pts)
        vals = np.asarray(f.eval(pts))
        err = 4.0 * _EPS * float(np.abs(vals).sum())
        return _result(sign * complex(vals.sum()), err, pts.size, (), tol)
    # One pass over the schedule. Its whole orbit is checked against the
    # domain before any evaluation: the stop below saves evaluations, not the
    # domain, and an orbit that meets a pole or a cut past the stop still has
    # no limit. Level j evaluates the orbit points past n_{j-1}: f is added at
    # pos and subtracted at neg. pos runs on to the last level's nodes.
    ns, last, sig = SCHEDULE, SCHEDULE[-1], f.sigma
    ks = np.arange(0, last + sig + 1, dtype=float)
    # Right, nu + x - 1 is ks + x: x - 1 would drop the digits of a small x.
    # Left, x - 1 - k is x - (k + 1): the right orbit of [-y, -x], negated.
    if left:
        pos, neg = yo - ks, xo - (ks[:last] + 1.0)
    else:
        pos, neg = ks + xo, (ks[:last] + 1.0) + yo
    step = -1.0 if left else 1.0
    _guard_check(f, pos)
    _guard_check(f, neg)
    # The polynomial part of every level from one eval call, for the levels
    # run and for the floor's share of the skipped ones: p_n interpolates f
    # at the nodes pos[n], ..., pos[n + sigma], where the window starts.
    poly = [0j] * len(ns)
    if sig >= 0:
        nodes = pos[np.add.outer(ns, np.arange(sig + 1))]
        vals = np.asarray(f.eval(nodes.ravel())).reshape(nodes.shape)
        poly = (vals @ _newton_weights(yo - xo + 1.0, sig)).tolist()
    order, rate = RICHARDSON_ORDER, f.rate_hint
    levels: list[tuple[int, complex]] = []
    row: list[complex] = []  # the newest row of the Richardson tableau
    diag: list[complex] = []
    tail, cancel_mag = 0j, 0.0
    term_sq = 0.0  # sum of |f|^2 over the points evaluated so far
    shift, shift_row = 0j, []  # the orbit's rounding in S(n) (module notes), its row
    value, err, m_used, kept_round = None, math.inf, len(ns), math.inf
    for j, (lo, n) in enumerate(zip([0, *ns], ns)):
        vals_pos = np.asarray(f.eval(pos[lo:n]))
        vals_neg = np.asarray(f.eval(neg[lo:n]))
        tail = tail + complex((vals_pos - vals_neg).sum())
        if not np.isfinite(tail):
            raise DomainError(f"the classical tail is not finite at level n = {n}")
        term_sq += float(np.vdot(vals_pos, vals_pos).real + np.vdot(vals_neg, vals_neg).real)
        for o, v, s in ((pos, vals_pos, 1.0), (neg, vals_neg, -1.0)):
            shift += s * complex((o[lo] - step * ks[lo]) - o[0]) * complex(v[-1] - v[0])
        # Every evaluated term carries about 2 eps * |f| of rounding, and a
        # level's terms add it up like a random walk. Neighbouring deep levels
        # carry alike amounts of that noise, so the tableau's last difference
        # need not see it.
        walk = 2.0 * _EPS * math.sqrt(term_sq)
        cancel_mag = max(cancel_mag, _modulus(tail) + _modulus(poly[j]))
        levels.append((n, tail + poly[j]))
        # A level whose terms leave S(n) unchanged has reached the limit: the
        # terms further out add less again (see the module notes).
        if j and levels[-1][1] == levels[-2][1]:
            value, err, m_used, kept_round = levels[-1][1], 0.0, j + 1, walk + _modulus(shift)
            break
        # diag[j] extrapolates the first j + 1 levels (see the module notes)
        row = _richardson_row(row, levels[-1][1], order, rate)
        shift_row = _richardson_row(shift_row, shift, order, rate)
        diag.append(row[-1])
        if j < order:
            continue
        # Keep the first prefix with the smallest claim, a claim being no
        # smaller than the rounding its levels carry. For cleanly converging
        # families the full tableau wins; for growing summands (nu * lnGamma
        # and friends) the deepest levels are dominated by rounding noise,
        # and the extrapolation must stop at the noise floor instead of
        # folding that noise in.
        e = _modulus(diag[-1] - diag[-2])
        claim = max(e, walk)
        if math.isfinite(claim) and claim < err:
            value, err, m_used, kept_round = diag[-1], claim, j + 1, walk + _modulus(shift_row[-1])
        # Stop once no deeper prefix can be kept: a deeper prefix claims at
        # least its own walk, the walk never decreases as points are added,
        # and this walk already reaches the best claim, so no deeper claim is
        # strictly smaller. A NaN walk never stops the loop, nor does any
        # walk before a finite claim: then the whole tableau is the result.
        if value is not None and walk >= err:
            break
    if value is None:
        value, err, kept_round = diag[-1], e, walk + _modulus(shift_row[-1])
    if math.isfinite(err):
        # Level agreement cannot certify below the rounding floor of the
        # tail/poly-part cancellation plus the terms' and the orbit's own
        # rounding (kept_round); an estimate under that floor would overstate
        # the precision delivered. The absolute term, a subnormal ulp per term
        # of the schedule, keeps that floor above zero for summands scaled
        # into the subnormal range, where the relative parts underflow. A
        # level the stop skipped counts too: its S(n) = tail + p(n) has
        # reached the value, so its tail is value - p(n).
        for p_term in poly[len(levels):]:
            cancel_mag = max(cancel_mag, _modulus(value - p_term) + _modulus(p_term))
        floor = 8.0 * _EPS * cancel_mag + kept_round + 2 * last * math.ulp(0.0)
        err = max(err, floor)
    return _result(value, err, ns[m_used - 1], levels, tol)


def frac_sum_right(f: Summand, x: complex, y: complex, *, tol: float = DEFAULT_TOL) -> SumResult:
    """Right fractional sum of f over [x, y], tail limit toward +infinity.

    Per level: S(n) = sum_{nu=n+x}^{n+y} p_n(nu) + sum_{nu=1}^{n}
    (f(nu+x-1) - f(nu+y)), the first sum _newton_weights on f(n+x), ...,
    f(n+x+sigma); then Richardson extrapolation over the levels.
    tol is the target of converged, positive and finite. Non-convergence is
    reported through converged=False, never by fabricating a value.

    Raises:
        ParameterError: tol is not positive and finite.
        DomainError: an orbit point fails the summand's domain guard, or the
            classical tail of a level, or the sum, is not finite.
    """
    return _frac_sum(f, x, y, tol, left=False)


def frac_sum_left(f: Summand, x: complex, y: complex, *, tol: float = DEFAULT_TOL) -> SumResult:
    """Left fractional sum: the tail limit runs toward -infinity.

    Per level: S(m) = sum_{nu=x-m}^{y-m} p_{-m}(nu) + sum_{k=0}^{m-1}
    (f(y-k) - f(x-1-k)), the first sum _newton_weights on f(y-m), ...,
    f(y-m-sigma); sigma must describe f toward -infinity. f is asked for on
    the orbit only, so bounds off the real axis keep it on one side of a cut
    along the negative real axis (ln nu, nu^a), and the sum is that branch's.
    An orbit point on the cut is a DomainError; bounds on opposite sides of
    it do not converge.
    """
    return _frac_sum(f, x, y, tol, left=True)


@np.errstate(over="ignore")  # an overflowing product is inf, not converged
def frac_product(
    f: Summand, x: complex, y: complex, *, tol: float = DEFAULT_TOL, left: bool = False,
) -> SumResult:
    """Fractional product over [x, y] of a factor g: exp of the fractional
    sum of ln g.

    f is the summand of ln g: its eval, sigma and domain_guard all
    describe nu -> ln g(nu). left selects the left-tail sum, and tol is as in
    frac_sum_right. err_estimate is the product's error, |value| times the
    sum's, and converged holds the SumResult rule for it. |value| is
    math.hypot of the parts, so a product is past the float range when its
    modulus is, even with both parts finite: err_estimate is then inf, and
    the product is not converged.

    Raises:
        ParameterError: tol is not positive and finite.
        BranchCutError: ln g is undefined at an orbit point, where g meets
            the cut of the principal log; the message names the point.
        DomainError: the classical tail of a level, or the sum, is not finite.
    """
    try:
        res = (frac_sum_left if left else frac_sum_right)(f, x, y, tol=tol)
    except DomainError as exc:
        if exc.value is None:  # a non-finite tail or sum names no point
            raise
        raise BranchCutError(f"{exc}: the factor's logarithm meets its branch cut there",
                             exc.value) from exc
    value = complex(np.exp(res.value))
    mod = _modulus(value)
    err = mod * res.err_estimate if math.isfinite(mod) else math.inf
    return SumResult(value, err, res.n_used, _converged(value, err, tol),
                     tuple((n, complex(np.exp(v))) for n, v in res.levels))


def reflected(f: Summand) -> Summand:
    """The summand nu -> f(-nu), with guard and exact polynomial carried
    along; its polynomial part comes from its eval like any summand's."""
    g = None
    if f.domain_guard is not None:
        g = lambda pts: f.domain_guard(-pts)
    ep = None
    if f.exact_poly is not None:
        ep = Polynomial.of(
            *((-1.0) ** k * c for k, c in enumerate(f.exact_poly.coeffs))
        )
    return replace(
        f,
        eval=lambda pts: np.asarray(f.eval(-pts)),
        domain_guard=g,
        exact_poly=ep,
    )


def mirror_check(f: Summand, a: complex, b: complex) -> MirrorCheck:
    """Compare the right sum over [a, b] with the left sum of f(-nu) over [-b, -a].

    The reflected summand's orbit is f's own, and so are the nodes of its
    polynomial parts, met in the same order with the same weights: both sums
    evaluate f at the same points and round alike, so the difference is 0
    unless the engine treats the two directions differently.
    """
    right = frac_sum_right(f, a, b)
    left = frac_sum_left(reflected(f), -b, -a)
    return MirrorCheck(right=right, left=left, abs_diff=_modulus(right.value - left.value))
