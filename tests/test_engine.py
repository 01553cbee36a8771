"""Engine behavior: the defining limit, its extrapolation, and the axioms.

Expected values marked with closed forms were checked by hand; the harmonic
interval value was cross-checked against an un-extrapolated run at n=1e7
during development.
"""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracsum.engine import (
    DEFAULT_CONFIG,
    EngineConfig,
    Summand,
    approx_poly,
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

# 1/nu with the analytic derivative ladder, for linear combinations that
# need Taylor data from the decaying partner
RECIP_D = replace(
    recip(),
    deriv=lambda k, t: (-1.0) ** k * math.factorial(k) * t ** (-k - 1.0),
)

# families that exercise the genuine limit route (no exact polynomial)
FLOAT_FAMILIES = (recip(), geom(0.5), geom(0.85), log_summand(), power(0.5))

inner_bounds = st.builds(
    complex,
    st.floats(min_value=0.3, max_value=2.0, allow_nan=False),
    st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
)


def shifted(f: Summand, s: complex) -> Summand:
    d = None
    if f.deriv is not None:
        d = lambda k, t: f.deriv(k, t + s)
    g = None
    if f.domain_guard is not None:
        g = lambda pts: f.domain_guard(pts + s)
    return Summand(
        eval=lambda pts: np.asarray(f.eval(pts + s)),
        sigma=f.sigma,
        deriv=d,
        domain_guard=g,
        rate_hint=f.rate_hint,
    )


def lincomb(a: complex, f: Summand, b: complex, g: Summand) -> Summand:
    sig = max(f.sigma, g.sigma)
    d = None
    if sig >= 0:
        df = f.deriv if f.deriv is not None else (lambda k, t: 0j)
        dg = g.deriv if g.deriv is not None else (lambda k, t: 0j)
        d = lambda k, t: a * df(k, t) + b * dg(k, t)
    guards = [h.domain_guard for h in (f, g) if h.domain_guard is not None]
    gd = None
    if guards:
        gd = lambda pts: np.logical_and.reduce(
            [np.asarray(h(pts), dtype=bool) for h in guards]
        )
    return Summand(
        eval=lambda pts: a * np.asarray(f.eval(pts)) + b * np.asarray(g.eval(pts)),
        sigma=sig,
        deriv=d,
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


def test_harmonic_interval_at_default_levels():
    # 1/nu over [1, -1/2]: the default ladder (n0=64, 8 levels, order 4)
    # must land within 1e-10 of -2 ln 2
    res = frac_sum_right(recip(), 1.0, -0.5)
    assert res.converged
    assert abs(res.value - (-2.0 * math.log(2.0))) < 1e-10


# ------------------------------------------------------------------ approx_poly


def test_approx_poly_log_is_constant_at_center():
    p = approx_poly(log_summand(), 100.0)
    assert abs(p(55.5) - math.log(100.0)) < 1e-12
    assert abs(p(171.25) - math.log(100.0)) < 1e-12


def test_approx_poly_sqrt_degree_zero():
    f = replace(power(0.5), sigma=0)
    p = approx_poly(f, 1.0e4)
    assert abs(p(123.0) - 100.0) < 1e-10


def test_approx_poly_reproduces_polynomial():
    p = approx_poly(power(2), 37.0)
    coeffs = list(p.coeffs) + [0j] * (3 - len(p.coeffs))
    assert abs(coeffs[0]) < 1e-9
    assert abs(coeffs[1]) < 1e-9
    assert abs(coeffs[2] - 1.0) < 1e-12


def test_approx_poly_rejects_decaying_sigma():
    with pytest.raises(ParameterError):
        approx_poly(recip(), 64.0)


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
    cfg = EngineConfig()
    res = frac_sum_right(poly_summand((0.0, 1.0)), 1.0, 7.0, cfg)
    assert res.converged
    assert res.n_used == cfg.n_start << (cfg.n_levels - 1)
    assert len(res.levels) == cfg.n_levels
    assert all(n == cfg.n_start << j for j, (n, _) in enumerate(res.levels))
    assert all(v == res.value for _, v in res.levels)


def test_integer_length_interval_is_classical():
    res = frac_sum_right(recip(), 1.0, 3.0)
    assert abs(res.value - (1.0 + 0.5 + 1.0 / 3.0)) < 1e-14
    assert res.err_estimate < 1e-13
    assert res.converged


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
    cfg = EngineConfig(n_start=32, n_levels=6)
    res = frac_sum_right(recip(), 1.0, -0.5, cfg)
    assert len(res.levels) == 6
    assert [n for n, _ in res.levels] == [32 << j for j in range(6)]


# (summand, x, y, left, value, n_used, converged, stops): running every
# level of the schedule gave these bits; stopping once no deeper level prefix
# can be kept must give them too, and the cases marked stops run fewer levels.
EARLY_STOP_CASES = [
    (lnfact(), 1.0, 0.5, False, complex(-0.053850349202296775, 0.0), 1024, True, True),
    (ln_gamma_2nu(), 0.7, 1.45, False, complex(1.6896409339418026, 0.0), 1024, True, False),
    (nu_lnfact(), 1.0, 0.5, False, complex(-0.048953839809496254, 0.0), 1024, False, False),
    (binom(2.5, 0.3), 0.0, 2.5, False, complex(1.926896468417544, 0.0), 1024, True, True),
    (vlnv(), 1.0, 0.5, False, complex(-0.12732300724632184, 0.0), 1024, True, False),
    (power(0.5), 0.3, 1.45, False, complex(1.8938722560102397, 0.0), 2048, True, False),
    (recip(), 1.0, -0.5, False, complex(-1.3862943611198906, 0.0), 2048, True, False),
    (geom(2.0), 0.3, 1.45, True, complex(4.233016613672666, 0.0), 1024, True, False),
]


@pytest.mark.parametrize("f, x, y, left, value, n_used, converged, stops", EARLY_STOP_CASES)
def test_early_stop_keeps_value_and_prefix(f, x, y, left, value, n_used, converged, stops):
    res = (frac_sum_left if left else frac_sum_right)(f, x, y)
    assert (res.value, res.n_used, res.converged) == (value, n_used, converged)
    if stops:
        assert len(res.levels) < DEFAULT_CONFIG.n_levels


# err_estimate of each EARLY_STOP_CASES entry, in order. Running every level
# gives these to the last digits only: the floor then reads a skipped level's
# tail from the run instead of taking it as value - p(n).
EARLY_STOP_ERRS = [
    1.833804945614007e-10,
    1.0368356464035785e-09,
    1.0094427190595438e-06,
    3.9830153966137055e-15,
    2.0973090720320198e-10,
    1.6140422332000526e-12,
    3.6016020234228024e-15,
    8.95545251106078e-15,
]


@pytest.mark.parametrize("case, err", enumerate(EARLY_STOP_ERRS))
def test_early_stop_keeps_err_and_kept_extrapolant(case, err):
    f, x, y, left = EARLY_STOP_CASES[case][:4]
    res = (frac_sum_left if left else frac_sum_right)(f, x, y)
    assert res.err_estimate == err
    # the engine grows one tableau a row per level; its diagonal entry for the
    # kept prefix must be what extrapolating that prefix alone gives (for
    # power(0.5) the kept prefix is 6 of the 7 levels run)
    m = [n for n, _ in res.levels].index(res.n_used) + 1
    order = DEFAULT_CONFIG.extrap_order
    assert res.value == richardson_extrapolate(res.levels[:m], order, f.rate_hint)[0]


def test_early_stop_saves_orbit_points():
    f = lnfact()
    points = []

    def counted(pts):
        points.append(len(pts))
        return f.eval(pts)

    frac_sum_right(replace(f, eval=counted), 1.0, 0.5)
    # all 8 levels would be 2 * 8192 = 16384 points
    assert sum(points) <= 2 * 4096


def test_domain_error_past_the_stop_is_still_raised():
    # the left geom(2) sum over [0.3, 1.45] stops after the level n = 1024,
    # and the guard fails only at n > 1500; the whole schedule's orbit is
    # checked before any term is evaluated
    calls = []

    def counted(pts):
        calls.append(len(pts))
        return geom(2.0).eval(pts)

    f = replace(geom(2.0), eval=counted, domain_guard=lambda pts: pts.real > -1500.0)
    assert len(frac_sum_left(geom(2.0), 0.3, 1.45).levels) < DEFAULT_CONFIG.n_levels
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
    # these tails grow toward -infinity until a level partial overflows: to a
    # NaN, past math.fsum's range, or to inf - inf inside it
    with pytest.raises(DomainError, match="level n = "):
        frac_sum_left(f, x, y)


def _fsum_cases(n):
    rng = np.random.default_rng(n)
    wide = rng.standard_normal(n) * np.exp2(rng.integers(-300, 300, n))
    half = rng.standard_normal(n // 2) * np.exp2(rng.integers(-60, 60, n // 2))
    cancel = rng.permutation(np.concatenate([half, -half, np.zeros(n % 2)]))
    tie = np.zeros(n)
    tie[:3] = 1.0, 2.0**-53, -(2.0**-106)
    cases = {
        f"one sign, like magnitudes {i}": (1.0 + rng.random(n)) * (1.0 - 1j) for i in range(8)
    }
    return cases | {
        "wide": wide + 1j * rng.permutation(wide),
        "exact zero real part, negative zero imaginary parts": cancel - 0j,
        "round-to-even tie": tie + 1j * np.full(n, -0.0),
        "geometric decay into underflow": np.exp(np.arange(n) * (-0.9 + 0.5j)),
        "inf": np.append(wide[:-1], np.inf) + 0j,
    }


@pytest.mark.parametrize("n", [1023, 1024, 4097])
def test_level_partials_are_math_fsum_bit_for_bit(n):
    from fracsum.engine import _fsum

    for name, vals in _fsum_cases(n).items():
        want = (math.fsum(vals.real.tolist()), math.fsum(vals.imag.tolist()))
        got = _fsum(vals)
        assert (got.real.hex(), got.imag.hex()) == tuple(w.hex() for w in want), name
    with pytest.raises(ValueError):  # math.fsum's error for inf - inf
        _fsum(np.append(np.ones(n - 2), [np.inf, -np.inf]))


def test_non_convergence_is_flagged_not_fabricated():
    cfg = EngineConfig(n_start=1, n_levels=3, extrap_order=1, tol=1e-12)
    res = frac_sum_right(recip(), 1.0, -0.5, cfg)
    assert not res.converged
    assert math.isfinite(res.value.real)
    assert res.err_estimate > cfg.tol


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
    ln2 = math.log(2.0)
    f = replace(
        poly_summand((0.0, ln2)),
        eval=lambda pts: np.exp(pts * ln2),
        label="pow2",
    )
    res = frac_product(f, 1.0, 3.0, left=True)
    assert abs(res.value - 64.0) < 1e-10 * 64.0


def test_product_branch_cut_is_a_hard_error():
    # orbit passes through negative reals without touching zero
    with pytest.raises(BranchCutError):
        frac_product(identity_factor(), -2.5, 1.25)


def test_product_orbit_through_zero_is_domain_error():
    with pytest.raises(DomainError):
        frac_product(identity_factor(), -2.0, 1.5)


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
    (RECIP_D, log_summand()),
    (RECIP_D, power(0.5)),
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

CATALOG_SUMMANDS = (
    recip(),
    power(0.5),
    power(2),
    power(1 + 1j),
    log_summand(),
    geom(0.5),
    geom(0.9),
    binom(2.5, 0.3),
    vlnv(),
    lnfact(),
    ln_gamma_2nu(),
    lognu_lnfact(),
    nu_lnfact(),
    zpp_term(0.5),
    bd_term(1.0),
    sermul_combined(0.5, 0.3),
    gosper_term(1.0),
    poly_summand((2.0, 0.0, 1.0)),
)


@pytest.mark.parametrize("f", CATALOG_SUMMANDS, ids=lambda f: f.label or "custom")
def test_classical_consistency(f):
    for n in range(1, 21):
        loop = complex(np.sum(np.asarray(f.eval(np.arange(1, n + 1, dtype=complex)))))
        got = frac_sum_right(f, 1.0, float(n)).value
        assert abs(got - loop) <= 1e-10 * max(1.0, abs(loop))


def test_classical_consistency_of_products():
    for n in range(1, 9):
        pts = np.arange(1, n + 1, dtype=complex)
        for f in (identity_factor(), tanh_factor()):
            loop = complex(np.prod(np.asarray(f.eval(pts))))
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


def test_taylor_degree_choice_does_not_move_the_value():
    f0 = log_summand()
    f1 = replace(f0, sigma=1)
    for x, y in ((1.0, -0.5), (0.3 + 0.2j, 1.7), (2.0, 0.25 + 0.4j)):
        r0 = frac_sum_right(f0, x, y)
        r1 = frac_sum_right(f1, x, y)
        assert abs(r0.value - r1.value) < max(r0.err_estimate, r1.err_estimate)


def test_engine_config_validation():
    with pytest.raises(ParameterError):
        EngineConfig(n_start=0)
    with pytest.raises(ParameterError):
        EngineConfig(n_levels=1)
    with pytest.raises(ParameterError):
        EngineConfig(n_levels=4, extrap_order=4)
    with pytest.raises(ParameterError):
        EngineConfig(tol=0.0)
    with pytest.raises(ParameterError):
        EngineConfig(tol=math.nan)
    with pytest.raises(ParameterError):
        EngineConfig(tol=math.inf)


def test_summand_validation():
    with pytest.raises(ParameterError):
        Summand(eval=lambda pts: pts, sigma=0.5)
    with pytest.raises(ParameterError):
        Summand(eval=lambda pts: pts, rate_hint=0.0)
    with pytest.raises(ParameterError):
        Summand(eval=lambda pts: pts, rate_hint=math.nan)
    with pytest.raises(ParameterError):
        Summand(eval=lambda pts: pts, sigma=1)
