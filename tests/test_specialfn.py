"""Special-function reference layer: log-gamma, digamma, Hurwitz zeta and
its s-derivatives, and the named constants.

Frozen reference values were computed once with an arbitrary-precision
library at 30 significant digits and are embedded as literals; the package
itself never imports that library.
"""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsum.errors import DomainError, ParameterError, PoleError
from fracsum.specialfn import (
    CONSTANTS,
    digamma,
    hurwitz_zeta,
    hurwitz_zeta_sderiv,
    log_gamma,
    polygamma,
    riemann_zeta,
    riemann_zeta_sderiv,
)

EULER_GAMMA = 0.5772156649015328606065


def test_constants_frozen_digits():
    assert CONSTANTS.euler_gamma == pytest.approx(0.5772156649015328606065, abs=1e-18)
    assert CONSTANTS.stieltjes_gamma1 == pytest.approx(-0.07281584548367672486059, abs=1e-18)
    assert CONSTANTS.catalan_G == pytest.approx(0.9159655941772190150546, abs=1e-18)
    assert CONSTANTS.zeta_prime_minus1 == pytest.approx(-0.1654211437004509292139, abs=1e-18)


def test_log_gamma_half_is_log_root_pi():
    assert log_gamma(0.5).real == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)
    assert log_gamma(0.5).imag == pytest.approx(0.0, abs=1e-14)


def test_log_gamma_five_is_log_24():
    assert log_gamma(5.0).real == pytest.approx(math.log(24.0), rel=1e-14)


def test_log_gamma_against_truncated_product():
    # Gamma(z) = lim n^z n! / (z (z+1) ... (z+n)); ln of the n = 10^6 truncation
    z = 1 + 1j
    n = 10**6
    ks = np.arange(1, n + 1, dtype=float)
    ln_prod = z * math.log(n) + np.sum(np.log(ks) - np.log(ks + z)) - np.log(z)
    assert abs(log_gamma(z) - ln_prod) < 1e-5


def test_log_gamma_complex_and_reflection_values():
    # exp comparison is branch-insensitive
    ours = cmath.exp(log_gamma(0.5 + 3j))
    ref = cmath.exp(complex(-3.793450450436223173351, 0.309819271086439166056))
    assert abs(ours - ref) <= 1e-11 * abs(ref)
    # Gamma(-3/2) = 4 sqrt(pi) / 3 > 0, so the principal log is real
    v = log_gamma(-1.5)
    assert v.real == pytest.approx(0.8600470153764810145109, rel=1e-12)
    assert abs(cmath.exp(v) - 4.0 * math.sqrt(math.pi) / 3.0) < 1e-12


def test_log_gamma_large_real():
    assert log_gamma(12.7).real == pytest.approx(19.23304317957008868998, rel=1e-13)


def test_log_gamma_pole_rejected():
    for z in (0.0, -1.0, -6.0):
        with pytest.raises(PoleError):
            log_gamma(z)


@pytest.mark.filterwarnings("error")
def test_log_gamma_array_matches_mpmath_and_scalar_calls():
    # Re z < 1/2 in both half-planes (the reflection branch), points within
    # 1e-9 of the real axis, both sides of the recurrence lift to Re z >= 6
    # (and of polygamma's lift to 16), and |z| up to 2e4, where the
    # ln Gamma(2 nu + 1) orbit reaches at n = 8192. Warnings are errors, so a
    # masked branch that computes inf or nan on the points it discards fails here.
    mpmath = pytest.importorskip("mpmath")
    re = np.array([-7.3, -2.5, -0.7, 0.2, 0.49, 0.5, 1.0, 3.7, 5.9, 6.0, 6.1,
                   15.9, 16.0, 16.1, 40.0, 1e3, 1.6e4, 2e4])
    im = np.array([-30.0, -1.0, -1e-9, 0.0, 1e-9, 1.0, 30.0])
    z = re[:, None] + 1j * im[None, :]
    assert log_gamma(z).shape == z.shape
    # next to the poles the reflection's periodic factor keeps its digits
    # only when formed at z minus its nearest integer
    near = [-3 + 1e-10j, -3 - 1e-10j, -3.0000001, -0.9999999999, -12.0000001 + 1e-12j]
    z = np.concatenate([z.ravel(), near])
    for w, g in zip(z, log_gamma(z)):
        assert g == log_gamma(complex(w))
        want = complex(mpmath.loggamma(complex(w)))
        assert abs(g - want) <= 1e-13 * max(1.0, abs(want)), w
    assert type(log_gamma(2.5)) is complex
    with pytest.raises(PoleError):
        log_gamma(np.array([1.5, 2.0 + 1j, -3.0, 4.0]))


def test_digamma_classic_values():
    assert digamma(1.0).real == pytest.approx(-EULER_GAMMA, rel=1e-12)
    assert digamma(2.0).real == pytest.approx(1.0 - EULER_GAMMA, rel=1e-12)
    assert digamma(0.5).real == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), rel=1e-12)


def test_digamma_frozen_points():
    v = digamma(1 + 1j)
    assert v.real == pytest.approx(0.09465032062247697727188, rel=1e-11)
    assert v.imag == pytest.approx(1.076674047468581174134, rel=1e-11)
    assert digamma(0.25).real == pytest.approx(-4.22745353337626540809, rel=1e-11)
    assert digamma(-2.5).real == pytest.approx(1.103156640645243187226, rel=1e-11)
    assert digamma(42.5).real == pytest.approx(3.737693236500093617109, rel=1e-12)


def test_digamma_pole_rejected():
    with pytest.raises(PoleError):
        digamma(-3.0)
    with pytest.raises(PoleError):
        polygamma(3, -2.0)
    with pytest.raises(ParameterError):
        polygamma(-1, 2.0)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.99).filter(lambda x: abs(x - 0.5) > 1e-3))
def test_digamma_reflection(x):
    lhs = digamma(1.0 - x) - digamma(x)
    rhs = math.pi / math.tan(math.pi * x)
    assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1.0, max_value=10.0), st.floats(min_value=-2.0, max_value=2.0))
def test_log_gamma_derivative_matches_digamma(re, im):
    z = complex(re, im)
    h = 1e-4
    fd = (log_gamma(z + h) - log_gamma(z - h)) / (2 * h)
    assert abs(fd - digamma(z)) < 1e-6


@pytest.mark.parametrize(
    "z", [64.0, 65.0, 1e4, 100 + 3j, 4.0, 8.0, 0.3, 0.7 + 0.2j, 2.5 + 1j, -2.5 + 0.5j, -7.3]
)
def test_polygamma_at_tail_centers(z):
    # the engine's tail centers (64 and up) and small centers reached only
    # through the recurrence lift, and for m = 0 the reflection
    mpmath = pytest.importorskip("mpmath")
    tol = 1e-15 if abs(z) >= 64 else 1e-14
    for m in range(9):
        want = complex(mpmath.polygamma(m, z))
        assert abs(polygamma(m, z) - want) <= tol * abs(want), m
    assert polygamma(0, z) == digamma(z)


@pytest.mark.filterwarnings("error")
def test_polygamma_array_matches_mpmath_and_scalar_calls():
    # both sides of the recurrence lift to Re z >= 16, and for m = 0 the
    # reflection at Re z < 1/2, in both half-planes and next to the real axis
    mpmath = pytest.importorskip("mpmath")
    re = np.array([-7.3, -2.5, -0.7, 0.2, 0.49, 0.5, 3.7, 15.5, 15.9, 16.0, 16.1, 40.0, 1e3])
    im = np.array([-30.0, -1.0, -1e-9, 0.0, 1e-9, 1.0, 30.0])
    z = (re[:, None] + 1j * im[None, :]).ravel()
    for m in range(4):
        got = polygamma(m, z)
        assert got.shape == z.shape
        for w, g in zip(z, got):
            assert g == polygamma(m, complex(w))
            want = complex(mpmath.polygamma(m, complex(w)))
            assert abs(g - want) <= 1e-14 * abs(want), (m, w)
    assert type(polygamma(1, 2.5)) is complex
    with pytest.raises(PoleError):
        polygamma(2, np.array([1.5, 2.0 + 1j, -3.0, 4.0]))


def test_hurwitz_zeta_basel():
    assert hurwitz_zeta(2.0, 1.0).real == pytest.approx(math.pi**2 / 6.0, rel=1e-12)


def test_hurwitz_zeta_negative_one():
    assert hurwitz_zeta(-1.0, 1.0).real == pytest.approx(-1.0 / 12.0, rel=1e-12)


def test_hurwitz_zeta_at_zero_is_half_minus_q():
    for q in (0.3, 1.0, 2.6):
        assert hurwitz_zeta(0.0, q).real == pytest.approx(0.5 - q, rel=1e-11, abs=1e-12)


def test_hurwitz_zeta_frozen_points():
    assert hurwitz_zeta(0.5, 2.3).real == pytest.approx(-2.69164709734761311588, rel=1e-11)
    assert hurwitz_zeta(-1.5, 0.3).real == pytest.approx(-0.008185560485835974502499, rel=1e-9)
    v = hurwitz_zeta(3 + 2j, 1.7)
    assert v.real == pytest.approx(0.04454533811220885134505, rel=1e-10)
    assert v.imag == pytest.approx(-0.2238561341361580369751, rel=1e-10)
    # zeta(-4, x) is a Bernoulli polynomial value, exact rational reference
    assert hurwitz_zeta(-4.0, 2.25).real == pytest.approx(-2.4404296875, rel=1e-11)
    assert hurwitz_zeta(2.0, 0.25).real == pytest.approx(17.19732915450711073927, rel=1e-12)


def test_hurwitz_zeta_domain_errors():
    with pytest.raises(PoleError):
        hurwitz_zeta(1.0, 2.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, -0.5)


def test_sderiv_validates_order():
    with pytest.raises(ParameterError):
        hurwitz_zeta_sderiv(3, 0.0, 1.0)
    with pytest.raises(ParameterError):
        hurwitz_zeta_sderiv(0, 0.0, 1.0)


def test_sderiv_zeta_prime_zero():
    v = hurwitz_zeta_sderiv(1, 0.0, 1.0)
    assert v.real == pytest.approx(-0.5 * math.log(2.0 * math.pi), rel=1e-11)
    # zeta'(0, 1/2) = -ln(2)/2 follows from the doubling relation
    assert hurwitz_zeta_sderiv(1, 0.0, 0.5).real == pytest.approx(-0.5 * math.log(2.0), rel=1e-11)


def test_sderiv_zeta_prime_minus_one():
    assert hurwitz_zeta_sderiv(1, -1.0, 1.0).real == pytest.approx(
        CONSTANTS.zeta_prime_minus1, rel=1e-11
    )


def test_sderiv_frozen_points():
    assert hurwitz_zeta_sderiv(1, -1.0, 1.25).real == pytest.approx(
        -0.2530057213097115935223, rel=1e-10
    )
    assert hurwitz_zeta_sderiv(1, -2.0, 0.25).real == pytest.approx(
        -0.01093457644480239490019, rel=1e-9
    )
    assert hurwitz_zeta_sderiv(1, 0.5, 1.5).real == pytest.approx(
        -4.036595774331045358298, rel=1e-10
    )
    assert hurwitz_zeta_sderiv(2, -1.0, 0.75).real == pytest.approx(
        -0.1720427653764513376332, rel=1e-9
    )
    assert hurwitz_zeta_sderiv(2, 0.0, 1.3).real == pytest.approx(
        -2.009144633566421949738, rel=1e-10
    )
    assert hurwitz_zeta_sderiv(2, -1.0, 1.5).real == pytest.approx(
        -0.2498043698451946968556, rel=1e-9
    )


def test_second_derivative_against_differenced_first():
    # the stated independent oracle: difference the analytic first derivative
    h = 1e-4
    for s, x in ((-1.0, 1.0), (0.0, 1.3), (-1.0, 0.75)):
        fd = (
            hurwitz_zeta_sderiv(1, s + h, x) - hurwitz_zeta_sderiv(1, s - h, x)
        ) / (2 * h)
        assert abs(hurwitz_zeta_sderiv(2, s, x) - fd) < 5e-7


def test_first_derivative_against_differenced_zeta():
    h = 1e-4
    for s, x in ((-1.0, 1.0), (0.5, 1.5)):
        base = (hurwitz_zeta(s + h, x) - hurwitz_zeta(s - h, x)) / (2 * h)
        refined = (
            hurwitz_zeta(s + h / 2, x) - hurwitz_zeta(s - h / 2, x)
        ) / h
        fd = (4 * refined - base) / 3
        assert abs(hurwitz_zeta_sderiv(1, s, x) - fd) < 1e-8


def test_riemann_delegates():
    assert riemann_zeta(-1.0).real == pytest.approx(-1.0 / 12.0, rel=1e-12)
    assert riemann_zeta(2.0).real == pytest.approx(math.pi**2 / 6.0, rel=1e-12)
    assert riemann_zeta(-0.5).real == pytest.approx(-0.2078862249773545660173, rel=1e-11)
    assert riemann_zeta_sderiv(1, 0.0).real == pytest.approx(
        -0.5 * math.log(2.0 * math.pi), rel=1e-11
    )
    assert riemann_zeta_sderiv(2, -1.0).real == pytest.approx(
        -0.2502044241096003892911, rel=1e-9
    )


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.floats(min_value=-8.0, max_value=0.9),
        st.floats(min_value=1.1, max_value=8.0),
    ),
    st.floats(min_value=0.2, max_value=15.0),
)
def test_hurwitz_recurrence(s, x):
    lhs = hurwitz_zeta(s, x) - hurwitz_zeta(s, x + 1.0)
    rhs = x ** complex(-s)
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.floats(min_value=-6.0, max_value=0.9),
        st.floats(min_value=1.1, max_value=6.0),
    ),
    st.floats(min_value=0.3, max_value=10.0),
    st.integers(min_value=1, max_value=2),
)
def test_sderiv_recurrence(s, x, b):
    lhs = hurwitz_zeta_sderiv(b, s, x) - hurwitz_zeta_sderiv(b, s, x + 1.0)
    rhs = (-math.log(x)) ** b * x ** complex(-s)
    assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


def test_parameter_robustness():
    # the fixed Euler-Maclaurin truncation against an independent evaluation,
    # on both sides of s = 0 (the Re s < 0 branch sums fewer direct terms)
    mpmath = pytest.importorskip("mpmath")
    for s, x in ((-1.0, 0.75), (2.0, 1.3), (-3.5, 2.0), (0.5, 5.5)):
        want = complex(mpmath.zeta(s, x))
        assert abs(hurwitz_zeta(s, x) - want) <= 1e-12 * abs(want), (s, x)
