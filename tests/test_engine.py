"""Engine behavior: the defining limit, its extrapolation, and the axioms.

Expected values marked with closed forms were checked by hand; the harmonic
interval value was cross-checked against an un-extrapolated run at n=1e7
during development.
"""

import cmath
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracsum.engine import (
    RICHARDSON_ORDER,
    SCHEDULE,
    Summand,
    frac_product,
    frac_sum_left,
    frac_sum_right,
    mirror_check,
    richardson_extrapolate,
)
from fracsum.errors import BranchCutError, DomainError, ParameterError
from fracsum.polycore import Polynomial, poly_sum
from fracsum.summands import (
    binom,
    bd_term,
    factor_from_spec,
    geom,
    gosper_term,
    identity_factor,
    lnfact,
    ln_gamma_2nu,
    log_summand,
    lognu_lnfact,
    nu_lnfact,
    poly_summand,
    power,
    recip,
    sermul_combined,
    tanh_factor,
    vlnv,
    zpp_term,
)

# families that exercise the genuine limit route (no exact polynomial)
FLOAT_FAMILIES = (recip(), geom(0.5), geom(0.85), log_summand(), power(0.5))

inner_bounds = st.builds(
    complex,
    st.floats(min_value=0.3, max_value=2.0, allow_nan=False),
    st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
)


def shifted(f: Summand, s: complex) -> Summand:
    g = None
    if f.domain_guard is not None:
        g = lambda pts: f.domain_guard(pts + s)
    return Summand(
        eval=lambda pts: np.asarray(f.eval(pts + s)),
        sigma=f.sigma,
        domain_guard=g,
        rate_hint=f.rate_hint,
    )


def lincomb(a: complex, f: Summand, b: complex, g: Summand) -> Summand:
    guards = [h.domain_guard for h in (f, g) if h.domain_guard is not None]
    gd = None
    if guards:
        gd = lambda pts: np.logical_and.reduce(
            [np.asarray(h(pts), dtype=bool) for h in guards]
        )
    return Summand(
        eval=lambda pts: a * np.asarray(f.eval(pts)) + b * np.asarray(g.eval(pts)),
        sigma=max(f.sigma, g.sigma),
        domain_guard=gd,
        rate_hint=f.rate_hint,
    )


# ---------------------------------------------------------------- extrapolation


def test_richardson_constant_sequence_is_exact():
    v = 3.25 - 0.75j
    levels = [(64 << j, v) for j in range(5)]
    got, err = richardson_extrapolate(levels, 2)
    assert got == v
    assert err == 0.0
    # the rate must have Re > 0, as Summand.rate_hint must: 0 and -1 would
    # divide by 2^0 - 1 = 0 or flip the elimination, nan would give nan; a
    # complex rate is compared by its real part
    for rate in (0.0, -1.0, math.nan, 1j, -1 + 1j):
        with pytest.raises(ParameterError, match="rate_hint"):
            richardson_extrapolate(levels, 2, rate)


def test_richardson_eliminates_leading_inverse_power():
    v, c = 2.5, 0.7
    levels = [(2**j, v + c / 2**j) for j in range(6, 11)]
    got, err = richardson_extrapolate(levels, 1)
    assert abs(got - v) < 1e-12
    assert err < 1e-10


def test_richardson_needs_order_plus_one_levels():
    levels = [(64, 1.0), (128, 1.0), (256, 1.0)]
    with pytest.raises(ParameterError):
        richardson_extrapolate(levels, 3)
    # n = 0 doubles to itself, and a negative n doubles downward
    for bad in ([(0, 1.0), (0, 1.0)], [(-1, 1.0), (-2, 1.0)], [(0, 1.0)]):
        with pytest.raises(ParameterError, match="n >= 1"):
            richardson_extrapolate(bad, 0)


def test_harmonic_interval_at_default_levels():
    # 1/nu over [1, -1/2]: the default ladder (n0=64, 8 levels, order 4)
    # must land within 1e-10 of -2 ln 2
    res = frac_sum_right(recip(), 1.0, -0.5)
    assert res.converged
    assert abs(res.value - (-2.0 * math.log(2.0))) < 1e-10


@pytest.mark.parametrize("f,x,ref", [
    (recip(), 1e-10, lambda mp, x: mp.digamma(1.5) - mp.digamma(x)),
    (recip(), 1e-12, lambda mp, x: mp.digamma(1.5) - mp.digamma(x)),
    (recip(), 3e-16, lambda mp, x: mp.digamma(1.5) - mp.digamma(x)),
    (log_summand(), 1e-320, lambda mp, x: mp.loggamma(1.5) - mp.loggamma(x)),
], ids=["recip-1e-10", "recip-1e-12", "recip-3e-16", "log-1e-320"])
def test_small_lower_bound_keeps_its_digits(f, x, ref):
    # the right orbit's first point is x itself, not (x - 1) + 1, which would
    # round the digits of a small x away (to the pole 0 below 1.1e-16)
    res = frac_sum_right(f, x, 0.5)
    with mpmath.workdps(40):
        want = complex(ref(mpmath, mpmath.mpf(x)))
    assert res.converged
    assert abs(res.value - want) <= res.err_estimate


# ------------------------------------------------------------------- right sums


def test_geometric_half_interval():
    # (1 - q^(y+1))/(1 - q) at q=1/2, [0, 1/2]
    res = frac_sum_right(geom(0.5), 0.0, 0.5)
    want = 2.0 - 2.0 ** (-0.5)
    assert res.converged
    assert abs(res.value - want) < 1e-10


def test_linear_summand_agrees_with_poly_sum():
    res = frac_sum_right(poly_summand((0.0, 1.0)), 1.0, 7.0)
    assert res.value == poly_sum(Polynomial.of(0.0, 1.0), 1.0, 7.0)
    assert res.value == 28.0 + 0j
    assert res.err_estimate == 0.0


def test_exact_polynomial_route_structure():
    # the closed routes run no level: n_used counts the classical terms they
    # evaluated, none for an exact polynomial
    res = frac_sum_right(poly_summand((0.0, 1.0)), 1.0, 7.0)
    assert res.converged
    assert (res.n_used, res.levels) == (0, ())
    res = frac_sum_right(recip(), 1.0, 3.0)
    assert res.converged
    assert (res.n_used, res.levels) == (3, ())
    res = frac_sum_right(recip(), 1.0, 0.0)
    assert (res.n_used, res.levels) == (0, ())


@pytest.mark.parametrize("f, x, y", [(power(60), 1.0, 1e10), (geom(0.5), -2000.0, -900.0)])
def test_closed_sum_past_the_float_range_is_a_domain_error(f, x, y):
    # the Bernoulli-polynomial sum meets inf - inf; the classical loop overflows
    with pytest.raises(DomainError, match="not finite"):
        frac_sum_right(f, x, y)


@pytest.mark.parametrize("f", [recip(), power(-1)], ids=["recip", "pow:-1"])
@pytest.mark.parametrize("sum_", [frac_sum_right, frac_sum_left], ids=["right", "left"])
def test_one_term_past_the_float_range_is_a_domain_error(f, sum_):
    # 1/z is 3.3e-309 - 3.3e-309i, but numpy's complex division overflows in
    # its intermediate and returns 0: an overflow inside eval is not a term
    z = 1.5e308 + 1.5e308j
    with pytest.raises(DomainError, match="not finite"):
        sum_(f, z, z)


@pytest.mark.parametrize("y", [3.5, 3.25])
def test_every_route_evaluates_real_bounds_in_float64(y):
    # y = 3.5 takes the integer-length route, y = 3.25 the limit route
    dtypes = set()

    def ev(pts):
        dtypes.add(pts.dtype)
        return 1.0 / pts

    res = frac_sum_right(replace(recip(), eval=ev), 1.5, y)
    assert dtypes == {np.dtype(np.float64)}
    assert res.value == frac_sum_right(recip(), 1.5, y).value


def test_integer_length_interval_is_classical():
    res = frac_sum_right(recip(), 1.0, 3.0)
    assert abs(res.value - (1.0 + 0.5 + 1.0 / 3.0)) < 1e-14
    assert res.err_estimate < 1e-13
    assert res.converged


def test_long_integer_length_sums_stay_inside_the_claim():
    # 2,000,000 terms, the longest integer length the closed route takes:
    # the rounding of summing them must stay inside err_estimate
    with mpmath.workdps(30):
        cases = [
            (recip(), 0.3, mpmath.digamma(mpmath.mpf(0.3) + 2000000) - mpmath.digamma(0.3)),
            (power(-0.5), 1.5, mpmath.zeta(0.5, 1.5) - mpmath.zeta(0.5, 2000001.5)),
        ]
        for f, x, want in cases:
            res = frac_sum_right(f, x, x + 1999999.0)
            assert res.n_used == 2_000_000
            assert abs(res.value - complex(want)) <= res.err_estimate, x


def test_empty_and_reversed_intervals():
    assert frac_sum_right(recip(), 1.0, 0.0).value == 0j
    # splitting forces sum over [x, y] = -(sum over [y+1, x-1]):
    # [4, 2] -> -f(3), [4, 1] -> -(f(2) + f(3))
    res = frac_sum_right(recip(), 4.0, 2.0)
    assert abs(res.value - (-1.0 / 3.0)) < 1e-14
    res = frac_sum_right(recip(), 4.0, 1.0)
    assert abs(res.value - (-(0.5 + 1.0 / 3.0))) < 1e-14


def test_near_integer_length_is_an_integer_length():
    # x + 1 - x rounds to 0.9999999999999998 here; [x + 1, x] is still the
    # empty interval, whose sum is exactly 0
    x = 1.2787953995102799
    res = frac_sum_right(log_summand(), x + 1.0, x)
    assert res.value == 0j
    assert res.err_estimate == 0.0


def test_levels_are_doubling_diagnostics():
    assert SCHEDULE == tuple(64 << j for j in range(8))
    res = frac_sum_right(recip(), 1.0, -0.5)
    ns = [n for n, _ in res.levels]
    # an algebraic tail changes S(n) at every level: no equal-level stop
    assert len(ns) > RICHARDSON_ORDER
    assert tuple(ns) == SCHEDULE[:len(ns)]


# (summand, x, y, left, value, n_used, converged, stops): running every
# level of the schedule gave these value and converged bits; stopping once no
# deeper level prefix can be kept, or at two equal levels, must give them too,
# and the cases marked stops run fewer levels. The geometric tails of binom
# and the left geom(2) stop on equal levels, at n_used 128.
EARLY_STOP_CASES = [
    (lnfact(), 1.0, 0.5, False, complex(-0.05385034920380171, 0.0), 1024, True, True),
    (ln_gamma_2nu(), 0.7, 1.45, False, complex(1.6896409339338432, 0.0), 1024, True, True),
    (nu_lnfact(), 1.0, 0.5, False, complex(-0.04895383933817729, 0.0), 1024, False, True),
    (binom(2.5, 0.3), 0.0, 2.5, False, complex(1.9268964684175443, 0.0), 128, True, True),
    (vlnv(), 1.0, 0.5, False, complex(-0.1273230072480499, 0.0), 1024, True, True),
    (power(0.5), 0.3, 1.45, False, complex(1.893872256010231, 0.0), 2048, True, True),
    (recip(), 1.0, -0.5, False, complex(-1.3862943611198904, 0.0), 2048, True, False),
    (geom(2.0), 0.3, 1.45, True, complex(4.233016613672666, 0.0), 128, True, True),
]


@pytest.mark.parametrize("f, x, y, left, value, n_used, converged, stops", EARLY_STOP_CASES)
def test_early_stop_keeps_value_and_prefix(f, x, y, left, value, n_used, converged, stops):
    res = (frac_sum_left if left else frac_sum_right)(f, x, y)
    assert (res.value, res.n_used, res.converged) == (value, n_used, converged)
    if stops:
        assert len(res.levels) < len(SCHEDULE)


# err_estimate of each EARLY_STOP_CASES entry, in order. Running every level
# gives these to the last digits only: the floor then reads a skipped level's
# tail from the run instead of taking it as value - p(n).
EARLY_STOP_ERRS = [
    1.833804945614007e-10,
    1.0400832664103495e-09,
    1.0094427190595442e-06,
    3.9830153966137055e-15,
    2.097309072303104e-10,
    4.562859298167845e-12,
    3.601602023422802e-15,
    8.95545251106078e-15,
]


@pytest.mark.parametrize("case, err", enumerate(EARLY_STOP_ERRS))
def test_early_stop_keeps_err_and_kept_extrapolant(case, err):
    f, x, y, left = EARLY_STOP_CASES[case][:4]
    res = (frac_sum_left if left else frac_sum_right)(f, x, y)
    assert res.err_estimate == err
    if len(res.levels) <= RICHARDSON_ORDER:
        # too few levels for the tableau: the loop stopped on two equal levels
        assert res.value == res.levels[-1][1] == res.levels[-2][1]
        return
    # the engine grows one tableau a row per level; its diagonal entry for the
    # kept prefix must be what extrapolating that prefix alone gives (for
    # power(0.5) the kept prefix is 6 of the 7 levels run)
    m = [n for n, _ in res.levels].index(res.n_used) + 1
    assert res.value == richardson_extrapolate(res.levels[:m], RICHARDSON_ORDER, f.rate_hint)[0]


def test_no_finite_claim_is_not_converged():
    # a degree of p_n of 64 cancels from magnitudes past the float range at
    # every level, so no prefix of the tableau gives a finite claim: the
    # whole tableau is the result, with an infinite error bar
    res = frac_sum_right(power(63.5), 1.0, 2.5)
    assert res.err_estimate == math.inf
    assert res.converged is False


# (a, x, y): complex exponents, whose remainder carries n^(-i Im p); the first
# is `fracsum sum --f pow:a=-1.5+0.7i --from 1 --to 0.5`
COMPLEX_RATE_CASES = [
    (-1.5 + 0.7j, 1.0, 0.5),
    (0.29995489428987304 + 0.68235209676493j, 1.5534370049480164, 2.830693394171463),
    (0.5501750142037902 + 0.5887667032162415j, 1.288664690974761, 2.13157225860859),
]


@pytest.mark.parametrize("a, x, y", COMPLEX_RATE_CASES,
                         ids=["decaying", "growing-1", "growing-2"])
def test_complex_power_extrapolates_with_its_complex_rate(a, x, y):
    # sum_{nu=x}^{y} nu^a = zeta(-a, x) - zeta(-a, y + 1)
    with mpmath.workdps(30):
        want = complex(mpmath.zeta(-a, x) - mpmath.zeta(-a, y + 1))
    res = frac_sum_right(power(a), x, y)
    assert res.converged
    assert abs(res.value - want) <= res.err_estimate


def test_early_stop_saves_orbit_points():
    f = lnfact()
    points = []

    def counted(pts):
        points.append(len(pts))
        return f.eval(pts)

    frac_sum_right(replace(f, eval=counted), 1.0, 0.5)
    # all 8 levels would be 2 * 8192 = 16384 points
    assert sum(points) <= 2 * 4096


# (summand, x, y, value): geometric tails whose second level leaves S(n)
# unchanged; running every level of the schedule gave these value bits
AGREEMENT_STOP_CASES = [
    (geom(0.5), 1.0, 0.5, complex(0.2928932188134525, 0.0)),
    (binom(2.5, 0.3), 0.0, 2.5, complex(1.9268964684175443, 0.0)),
    (sermul_combined(0.5, 0.3), 1.0, 0.5, complex(0.05677242682672631, 0.0)),
]


@pytest.mark.parametrize("f, x, y, value", AGREEMENT_STOP_CASES)
def test_agreement_stop_keeps_the_value_after_two_levels(f, x, y, value):
    points = []

    def counted(pts):
        points.append(len(pts))
        return f.eval(pts)

    res = frac_sum_right(replace(f, eval=counted), x, y)
    assert res.value == value
    assert res.converged
    assert (len(res.levels), res.n_used) == (2, SCHEDULE[1])
    assert res.levels[0][1] == res.levels[1][1] == value
    assert sum(points) <= 2 * SCHEDULE[1]


def test_slow_geometric_tail_converges():
    # q^nu decays so slowly that extrapolating all 8 levels folded their
    # rounding in (6.4e-10 off, claiming 1.8e-6, not converged); the levels
    # agree by n = 4096
    q, x, y = 0.9693293708638758, 1.3, 2.1
    res = frac_sum_right(geom(q), x, y)
    assert res.converged
    assert abs(res.value - (q**x - q ** (y + 1)) / (1 - q)) < 1e-13


def test_domain_error_past_the_stop_is_still_raised():
    # the left geom(2) sum over [0.3, 1.45] stops after the level n = 128,
    # and the guard fails only at n > 1500; the whole schedule's orbit is
    # checked before any term is evaluated
    calls = []

    def counted(pts):
        calls.append(len(pts))
        return geom(2.0).eval(pts)

    f = replace(geom(2.0), eval=counted, domain_guard=lambda pts: pts.real > -1500.0)
    assert len(frac_sum_left(geom(2.0), 0.3, 1.45).levels) < len(SCHEDULE)
    with pytest.raises(DomainError):
        frac_sum_left(f, 0.3, 1.45)
    assert calls == []


@pytest.mark.parametrize(
    "f, x, y",
    [
        (geom(0.5), 1.0, 0.5),
        (binom(2.5, 0.3), 0.3 + 0.2j, 1.7),
        (geom(0.5), 0.3 + 0.2j, 1.7),
    ],
)
def test_overflowing_left_sum_is_a_domain_error(f, x, y):
    # these tails grow toward -infinity until a level partial overflows: to
    # inf, or to inf - inf inside it
    with pytest.raises(DomainError, match="level n = "):
        frac_sum_left(f, x, y)


def test_non_convergence_is_flagged_not_fabricated():
    # the default schedule claims 3.6e-15 here, so it cannot meet 1e-16
    tol = 1e-16
    res = frac_sum_right(recip(), 1.0, -0.5, tol=tol)
    assert not res.converged
    assert math.isfinite(res.value.real)
    assert res.err_estimate > tol


@pytest.mark.parametrize("run, error", [(frac_sum_right, DomainError),
                                        (frac_product, BranchCutError)], ids=["sum", "prod"])
def test_domain_error_names_the_point_as_a_complex(run, error):
    # between real bounds the orbit is float64; the error still names a
    # complex. The factor nu's summand ln nu sums like log_summand, and its
    # product reports the cut as a BranchCutError
    with pytest.raises(error, match=r"orbit point \(-2\.5\+0j\)") as info:
        run(identity_factor(), -2.5, 1.25)
    assert type(info.value) is error
    assert type(info.value.value) is complex


def test_summand_complex_on_the_real_axis_must_promote_itself():
    # a real orbit is float64: the real power of a negative point is NaN, and
    # the engine reports it instead of returning a silently real value
    def ev(promote):
        return lambda pts: np.power((pts.astype(complex) if promote else pts) - 2.0, -2.5)

    for y in (1.25, 2.5):  # the limit route, and an integer length
        with pytest.raises(DomainError, match="not finite"):
            frac_sum_right(Summand(eval=ev(False), rate_hint=1.5), 0.5, y)
        res = frac_sum_right(Summand(eval=ev(True), rate_hint=1.5), 0.5, y)
        assert res.converged and abs(res.value.imag) > 0.1


def test_orbit_through_pole_is_domain_error():
    with pytest.raises(DomainError):
        frac_sum_right(recip(), -1.0, 1.0)
    with pytest.raises(DomainError):
        frac_sum_right(log_summand(), -5.0, -4.25)


# -------------------------------------------------------------------- left sums


def test_left_sum_of_polynomial_matches_right():
    f = poly_summand((0.0, 1.0))
    left = frac_sum_left(f, 1.0, -0.5)
    right = frac_sum_right(f, 1.0, -0.5)
    assert abs(left.value - (-0.125)) < 1e-12
    assert abs(left.value - right.value) < 1e-12


def test_left_sum_continues_growing_geometric():
    # 2^nu decays toward -infinity, so the left sum converges where the
    # right sum cannot: (1 - 2^(y+1))/(1 - 2)
    res = frac_sum_left(geom(2.0), 0.0, 1.0)
    assert abs(res.value - 3.0) < 1e-10
    res = frac_sum_left(geom(2.0), 0.0, 0.3)
    want = (1.0 - 2.0**1.3) / (1.0 - 2.0)
    assert res.converged
    assert abs(res.value - want) < 1e-9
    res = frac_sum_left(geom(2.0), 0.25, -0.6)
    want = (2.0**0.25 - 2.0**0.4) / (1.0 - 2.0)
    assert abs(res.value - want) < 1e-9


def _left_sum_reference(mp, name, x, y):
    """The left sum of f over [x, y] as the right sum of f(-nu) over
    [a, b] = [-y, -x], where ln(-nu) = ln nu + c, c = i pi sgn(Im y), on the
    reflected orbit."""
    a, b = -mp.mpc(y), -mp.mpc(x)
    c = 1j * mp.pi * mp.sign(mp.mpc(y).imag)
    if name == "log":
        return mp.loggamma(b + 1) - mp.loggamma(a) + c * (b - a + 1)
    if name == "vlnv":  # -nu (ln nu + c); sum nu ln nu = zeta'(-1, b + 1) - zeta'(-1, a)
        return mp.zeta(-1, a, 1) - mp.zeta(-1, b + 1, 1) - c * (b * (b + 1) - (a - 1) * a) / 2
    return mp.exp(c / 2) * (mp.zeta(-0.5, a) - mp.zeta(-0.5, b + 1))  # nu^(1/2) e^(c/2)


@pytest.mark.parametrize("name, f", [("log", log_summand()), ("vlnv", vlnv()),
                                     ("pow:0.5", power(0.5))], ids=["log", "vlnv", "pow:0.5"])
@pytest.mark.parametrize("x, y", [(1 - 0.5j, 2.3 - 0.5j), (1 + 0.5j, 2.3 + 0.5j)])
def test_left_sum_off_the_cut_matches_mpmath(name, f, x, y):
    # the orbit y - k, x - 1 - k runs beside the cut of ln nu and nu^a, on
    # one branch, and eval sees no other point: the sum is that branch's,
    # not 2 pi i (y - x + 1) off as a read on the other branch would be
    with mpmath.workdps(30):
        want = complex(_left_sum_reference(mpmath, name, x, y))
    res = frac_sum_left(f, x, y)
    assert res.converged
    assert abs(res.value - want) <= 10.0 * res.err_estimate


def test_left_product_off_the_cut_matches_mpmath():
    with mpmath.workdps(30):
        want = complex(mpmath.exp(_left_sum_reference(mpmath, "log", 1 - 0.5j, 2.3 - 0.5j)))
    res = frac_product(identity_factor(), 1 - 0.5j, 2.3 - 0.5j, left=True)
    assert res.converged
    assert abs(res.value - want) <= 10.0 * res.err_estimate


def test_left_sum_across_the_cut_does_not_converge():
    # bounds on opposite sides of the cut: the two tails run on different
    # branches, 2 pi i apart per term, and no level value settles
    res = frac_sum_left(log_summand(), 1 - 0.5j, 2.3 + 0.5j)
    assert not res.converged
    assert res.err_estimate > 1.0


def test_left_sum_on_the_cut_names_the_orbit_point():
    # between real bounds the left orbit 2.5, 1.5, 0.5, -0.5, ... meets the cut
    with pytest.raises(DomainError, match=r"orbit point \(-0\.5\+0j\)"):
        frac_sum_left(log_summand(), 1.0, 2.5)
    with pytest.raises(BranchCutError, match=r"orbit point \(-0\.5\+0j\)"):
        frac_product(identity_factor(), 1.0, 2.5, left=True)


def test_rejected_orbit_names_its_first_point_in_level_order():
    # the added points 100.5 - k reach the cut at k = 101, in level 1; the
    # subtracted points 0.3 - (k + 1) are on it from k = 0, in level 0
    with pytest.raises(DomainError, match=r"orbit point \(-0\.7\+0j\)"):
        frac_sum_left(log_summand(), 0.3, 100.5)


# --------------------------------------------------------------------- products


def test_product_of_integers_is_factorial():
    res = frac_product(identity_factor(), 1.0, 4.0)
    assert res.converged
    assert abs(res.value - 24.0) < 1e-10 * 24.0


def test_product_interpolates_factorial():
    res = frac_product(identity_factor(), 1.0, 0.5)
    want = math.sqrt(math.pi) / 2.0
    assert res.converged
    assert abs(res.value - want) < 1e-8 * want


def test_product_of_nu_squared_plus_one():
    res = frac_product(tanh_factor(), 1.0, -0.5)
    want = math.tanh(math.pi)
    assert res.converged
    assert abs(res.value - want) < 1e-8 * want


def test_left_product_routes_through_left_sum():
    res = frac_product(poly_summand((0.0, math.log(2.0))), 1.0, 3.0, left=True)
    assert abs(res.value - 64.0) < 1e-10 * 64.0


def test_product_branch_cut_is_a_hard_error():
    # orbit passes through negative reals without touching zero
    with pytest.raises(BranchCutError):
        frac_product(identity_factor(), -2.5, 1.25)


def test_product_of_nu_squared_plus_one_names_the_orbit_point_on_the_cut():
    # (2i)^2 + 1 = -3 lies on the cut of ln
    with pytest.raises(BranchCutError, match=r"summand undefined at orbit point 2j\b") as info:
        frac_product(tanh_factor(), 2j, 3.5 + 2j)
    assert info.value.value == 2j


def test_product_types_only_the_faults_that_name_a_point():
    # ln g undefined at a point that eval names is the cut, as a guard's point is
    def ev(pts):
        raise DomainError("ln g undefined at 3", 3 + 0j)

    with pytest.raises(BranchCutError, match="ln g undefined at 3") as info:
        frac_product(Summand(eval=ev), 1.0, 0.5)
    assert info.value.value == 3
    # a tail that overflows names no point, and keeps its type
    with pytest.raises(DomainError, match="tail is not finite") as info:
        frac_product(Summand(eval=np.exp), 1.0, 0.5)
    assert type(info.value) is DomainError


def test_product_orbit_through_zero_is_domain_error():
    with pytest.raises(DomainError):
        frac_product(identity_factor(), -2.0, 1.5)


def test_product_branch_cut_is_caught_before_any_evaluation():
    # the factor's guard checks the whole orbit before any term is evaluated
    calls = []

    def counted(pts):
        calls.append(len(pts))
        return np.log(pts)

    with pytest.raises(BranchCutError):
        frac_product(replace(identity_factor(), eval=counted), -2.5, 1.25)
    assert calls == []


@pytest.mark.parametrize("a", [0.3 + 0.5j, 1 + 1j, 0.5 + 2j, -0.5 + 1.5j])
def test_power_factor_with_complex_exponent(a):
    # the summand is a ln nu, so no level value jumps by 2 pi i where the
    # principal log of nu^a would wrap
    f = factor_from_spec(f"pow:a={a.real}{a.imag:+}i")
    for x, y in ((1.0, 0.5), (1.0, 2.7), (0.5, 3.25), (2.5 + 0.5j, 1.25)):
        res = frac_product(f, x, y)
        want = complex(mpmath.exp(a * (mpmath.loggamma(y + 1) - mpmath.loggamma(x))))
        assert res.converged, (a, x, y)
        assert abs(res.value - want) <= 1e-10 * max(1.0, abs(want)), (a, x, y)


def _product_past_the_log_sum_rule():
    # ln of 1 * 2 * ... over [1, 5.5] is about 5.66, so at half the log sum's
    # error bar the log sum converges while the product's own error bar,
    # |value| times the sum's, misses tol * |value|
    f = identity_factor()
    tol = frac_sum_right(f, 1.0, 5.5).err_estimate / 2
    assert frac_sum_right(f, 1.0, 5.5, tol=tol).converged
    return frac_product(f, 1.0, 5.5, tol=tol), tol


# route -> () -> (result, the tol it was asked for)
CONVERGED_ROUTES = {
    "right": lambda: (frac_sum_right(recip(), 1.0, -0.5, tol=1e-8), 1e-8),
    "right-not-converged": lambda: (frac_sum_right(recip(), 1.0, -0.5, tol=1e-16), 1e-16),
    "left": lambda: (frac_sum_left(geom(2.0), 0.3, 1.45, tol=1e-8), 1e-8),
    "exact-polynomial": lambda: (frac_sum_right(power(2), 1.0, -0.5, tol=1e-8), 1e-8),
    "integer-length": lambda: (frac_sum_right(recip(), 1.0, 4.0, tol=1e-8), 1e-8),
    "integer-length-not-converged": lambda: (frac_sum_right(recip(), 1.0, 4.0, tol=1e-17), 1e-17),
    "product": lambda: (frac_product(identity_factor(), 1.0, 0.5, tol=1e-8), 1e-8),
    "product-past-the-log-sum-rule": _product_past_the_log_sum_rule,
    "product-overflow": lambda: (frac_product(identity_factor(), 1.0, 200.5, tol=1e-8), 1e-8),
}


@pytest.mark.parametrize("route", CONVERGED_ROUTES)
def test_converged_is_one_rule_on_every_route(route):
    res, tol = CONVERGED_ROUTES[route]()
    err = res.err_estimate
    assert res.converged == (math.isfinite(err) and err <= tol * max(1.0, abs(res.value)))


# ----------------------------------------------------------------- mirror check


def test_mirror_cube_interval():
    mc = mirror_check(poly_summand((0.0, 0.0, 0.0, 1.0)), 1.0, -0.5)
    assert abs(mc.right.value - 0.015625) < 1e-12
    assert abs(mc.left.value - 0.015625) < 1e-12
    assert mc.abs_diff < 1e-12


def test_mirror_reciprocal_reflection_interval():
    mc = mirror_check(recip(), 0.75, -0.75)
    assert abs(mc.right.value - (-math.pi)) < 1e-8
    assert abs(mc.left.value - (-math.pi)) < 1e-8
    assert mc.abs_diff < 1e-8


def test_mirror_polynomial_integer_bounds_exact():
    mc = mirror_check(poly_summand((1.0, 2.0)), 1.0, 7.0)
    assert abs(mc.right.value - 63.0) < 1e-12
    assert mc.abs_diff < 1e-12


# ----------------------------------------------------------------------- axioms


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=len(FLOAT_FAMILIES) - 1),
    inner_bounds,
    inner_bounds,
    inner_bounds,
)
@example(idx=4, x=2 + 0j, y=1.5 + 0.0171498009189065j, z=1.6531124483255994 + 0.21992781188994648j)
def test_continued_summation_axiom(idx, x, y, z):
    # splitting at an intermediate point adds the pieces, within the
    # engine's own error claims
    f = FLOAT_FAMILIES[idx]
    r1 = frac_sum_right(f, x, y)
    r2 = frac_sum_right(f, y + 1.0, z)
    r3 = frac_sum_right(f, x, z)
    lhs = abs(r1.value + r2.value - r3.value)
    assert lhs <= 10.0 * (r1.err_estimate + r2.err_estimate + r3.err_estimate)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=len(FLOAT_FAMILIES) - 1),
    inner_bounds,
    inner_bounds,
    st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
)
def test_translation_axiom(idx, x, y, s):
    f = FLOAT_FAMILIES[idx]
    r1 = frac_sum_right(f, x + s, y + s)
    r2 = frac_sum_right(shifted(f, s), x, y)
    assert abs(r1.value - r2.value) <= 10.0 * (r1.err_estimate + r2.err_estimate)


LINCOMB_PAIRS = (
    (recip(), log_summand()),
    (recip(), power(0.5)),
    (geom(0.5), geom(0.85)),
    (power(0.5), log_summand()),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=len(LINCOMB_PAIRS) - 1),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    inner_bounds,
    inner_bounds,
)
# summands scaled into the subnormal range: the error bar must not underflow to 0
@example(idx=2, a=0.0, b=2.225073858507203e-309, x=1.5, y=1.0)
def test_linearity_axiom(idx, a, b, x, y):
    f, g = LINCOMB_PAIRS[idx]
    r0 = frac_sum_right(lincomb(a, f, b, g), x, y)
    r1 = frac_sum_right(f, x, y)
    r2 = frac_sum_right(g, x, y)
    lhs = abs(r0.value - (a * r1.value + b * r2.value))
    bound = r0.err_estimate + abs(a) * r1.err_estimate + abs(b) * r2.err_estimate
    assert lhs <= 10.0 * bound


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2),
    st.floats(min_value=0.2, max_value=0.9, allow_nan=False),
)
def test_single_term_axiom(kind, q):
    if kind == 0:
        f = geom(q)
    elif kind == 1:
        f = power(-2.0 + q)
    else:
        f = log_summand()
    res = frac_sum_right(f, 1.0, 1.0)
    want = complex(np.asarray(f.eval(np.array([1.0 + 0j])))[0])
    assert abs(res.value - want) <= max(res.err_estimate, 1e-15)


# --------------------------------------------------------- classical agreement

# pytest id -> summand, the id naming the family and its parameters
CATALOG_SUMMANDS = {
    "recip": recip(),
    "pow:(0.5+0j)": power(0.5),
    "pow:(2+0j)": power(2),
    "pow:(1+1j)": power(1 + 1j),
    "log": log_summand(),
    "geom:(0.5+0j)": geom(0.5),
    "geom:(0.9+0j)": geom(0.9),
    "binom:(2.5+0j):(0.3+0j)": binom(2.5, 0.3),
    "vlnv": vlnv(),
    "lnfact": lnfact(),
    "lngamma(2nu+1)": ln_gamma_2nu(),
    "lognu*lnfact": lognu_lnfact(),
    "nu*lnfact": nu_lnfact(),
    "zpp:(0.5+0j)": zpp_term(0.5),
    "bd:(1+0j)": bd_term(1.0),
    "sermul:(0.5+0j):(0.3+0j)": sermul_combined(0.5, 0.3),
    "gosper:1.0": gosper_term(1.0),
    "poly:(2+0j),0j,(1+0j)": poly_summand((2.0, 0.0, 1.0)),
}


@pytest.mark.parametrize("f", CATALOG_SUMMANDS.values(), ids=list(CATALOG_SUMMANDS))
def test_classical_consistency(f):
    for n in range(1, 21):
        loop = complex(np.sum(np.asarray(f.eval(np.arange(1, n + 1, dtype=complex)))))
        got = frac_sum_right(f, 1.0, float(n)).value
        assert abs(got - loop) <= 1e-10 * max(1.0, abs(loop))


def test_classical_consistency_of_products():
    for n in range(1, 9):
        pts = np.arange(1, n + 1, dtype=complex)
        for f, factor in ((identity_factor(), pts), (tanh_factor(), pts * pts + 1.0)):
            loop = complex(np.prod(factor))
            got = frac_product(f, 1.0, float(n)).value
            assert abs(got - loop) <= 1e-10 * max(1.0, abs(loop))


# ------------------------------------------------------- polynomial agreement

coeff_box = st.lists(
    st.builds(
        complex,
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    ),
    min_size=1,
    max_size=6,
)
wide_bounds = st.builds(
    complex,
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(coeff_box, wide_bounds, wide_bounds)
def test_polynomial_agreement(coeffs, x, y):
    want = poly_sum(Polynomial.of(*coeffs), x, y)
    got = frac_sum_right(poly_summand(tuple(coeffs)), x, y)
    assert abs(got.value - want) <= 1e-10 * max(1.0, abs(want))


@settings(max_examples=100, deadline=None)
@given(coeff_box, wide_bounds, wide_bounds)
def test_left_right_coincide_on_polynomials(coeffs, x, y):
    f = poly_summand(tuple(coeffs))
    left = frac_sum_left(f, x, y)
    right = frac_sum_right(f, x, y)
    assert abs(left.value - right.value) <= 1e-10 * max(1.0, abs(right.value))


@settings(max_examples=100, deadline=None)
@given(
    st.builds(
        complex,
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    ),
    st.builds(
        complex,
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    ),
    inner_bounds,
    inner_bounds,
)
def test_polynomial_agreement_through_the_limit(c0, c1, x, y):
    # strip the closed-form shortcut so the level ladder itself is under
    # test; its levels are exact from the start here, so extrapolation can
    # only amplify eps*n rounding and the engine's own error claim is the
    # honest yardstick alongside the closed-form target
    f = replace(poly_summand((c0, c1)), exact_poly=None)
    want = poly_sum(Polynomial.of(c0, c1), x, y)
    got = frac_sum_right(f, x, y)
    bound = max(1e-10 * max(1.0, abs(want)), 10.0 * got.err_estimate)
    assert abs(got.value - want) <= bound


# ------------------------------------------------------------- remaining knobs


def test_polynomial_degree_choice_does_not_move_the_value():
    f0 = log_summand()
    f1 = replace(f0, sigma=1)
    for x, y in ((1.0, -0.5), (0.3 + 0.2j, 1.7), (2.0, 0.25 + 0.4j)):
        r0 = frac_sum_right(f0, x, y)
        r1 = frac_sum_right(f1, x, y)
        assert abs(r0.value - r1.value) < max(r0.err_estimate, r1.err_estimate)


def test_tol_validation():
    # tol, the engine's one setting, is positive and finite, on the limit
    # route and the closed ones alike
    for tol in (0.0, math.nan, math.inf):
        for f, y in ((recip(), -0.5), (power(2.0), -0.5), (recip(), 3.0)):
            with pytest.raises(ParameterError, match="tol"):
                frac_sum_right(f, 1.0, y, tol=tol)
    # and only by name
    with pytest.raises(TypeError):
        frac_sum_right(recip(), 1.0, -0.5, 1e-3)


def test_summand_validation():
    # sigma is an integer >= -1; -1, the default, is the zero polynomial
    for sigma in (0.5, -math.inf, -2):
        with pytest.raises(ParameterError, match="sigma"):
            Summand(eval=lambda pts: pts, sigma=sigma)
    for rate in (0.0, math.nan, 1j, -1 + 1j):
        with pytest.raises(ParameterError, match="rate_hint"):
            Summand(eval=lambda pts: pts, rate_hint=rate)
