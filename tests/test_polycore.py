"""Exact polynomial machinery: Bernoulli table, antidifference, poly_sum."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial as NpPolynomial

from fracsum.errors import ParameterError
from fracsum.polycore import MAX_DEGREE, Polynomial, antidifference, bernoulli, poly_sum

# small complex scalars keep Faulhaber coefficient growth harmless
finite_reals = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
small_complex = st.builds(complex, finite_reals, finite_reals)


def coeff_lists(max_degree: int):
    return st.lists(small_complex, min_size=1, max_size=max_degree + 1)


def test_bernoulli_known_values():
    b = bernoulli(12)
    assert b[0] == 1
    assert b[1] == Fraction(1, 2)  # the +1/2 convention
    assert b[2] == Fraction(1, 6)
    assert b[3] == 0
    assert b[4] == Fraction(-1, 30)
    assert b[8] == Fraction(-1, 30)
    assert b[12] == Fraction(-691, 2730)


def test_bernoulli_bounds():
    assert len(bernoulli(0)) == 1
    with pytest.raises(ParameterError):
        bernoulli(MAX_DEGREE + 1)
    with pytest.raises(ParameterError):
        bernoulli(-1)


def test_antidifference_of_cube_is_squared_triangle():
    P = antidifference(Polynomial.monomial(3))
    for z in (0.5, -0.25, 2 + 1j, 7.0):
        tri = z * (z + 1) / 2
        assert P(z) == pytest.approx(tri * tri, rel=1e-13, abs=1e-13)


def test_antidifference_normalization():
    for d in range(7):
        P = antidifference(Polynomial.monomial(d))
        assert P(0) == 0


def test_poly_sum_constant_half_interval():
    # one "half term" of a constant
    assert poly_sum(Polynomial.of(3.0), 1.0, 0.5) == pytest.approx(1.5, abs=1e-14)


def test_poly_sum_linear_reaches_minus_eighth():
    v = poly_sum(Polynomial.of(0.0, 1.0), 1.0, -0.5)
    assert v == pytest.approx(-0.125, abs=1e-15)


def test_poly_sum_squares_to_five():
    assert poly_sum(Polynomial.monomial(2), 1.0, 5.0) == pytest.approx(55.0, rel=1e-14)


def test_degree_cap_enforced():
    with pytest.raises(ParameterError):
        antidifference(Polynomial.monomial(MAX_DEGREE + 1))


@settings(max_examples=200, deadline=None)
@given(coeff_lists(8), small_complex)
def test_telescoping(coeffs, z):
    p = Polynomial.of(*coeffs)
    P = antidifference(p)
    pz = p(z)
    assert abs(P(z) - P(z - 1) - pz) <= 1e-10 * (1 + abs(pz))


@settings(max_examples=200, deadline=None)
@given(coeff_lists(6), st.integers(min_value=1, max_value=50))
def test_classical_consistency(coeffs, n):
    p = Polynomial.of(*coeffs)
    loop = sum(p(k) for k in range(1, n + 1))
    v = poly_sum(p, 1.0, float(n))
    assert abs(v - loop) <= 1e-12 * (1 + abs(loop))


@settings(max_examples=200, deadline=None)
@given(coeff_lists(6), small_complex, small_complex, small_complex)
def test_continued_summation(coeffs, x, y, z):
    p = Polynomial.of(*coeffs)
    whole = poly_sum(p, x, z)
    split = poly_sum(p, x, y) + poly_sum(p, y + 1, z)
    assert abs(whole - split) <= 1e-10 * (1 + abs(whole))


@settings(max_examples=200, deadline=None)
@given(coeff_lists(6), small_complex, small_complex, small_complex)
def test_translation_invariance(coeffs, x, y, s):
    p = Polynomial.of(*coeffs)
    lhs = poly_sum(p, x + s, y + s)
    # p(z + s) by composition: p(q) with q(z) = s + z
    shifted = NpPolynomial(coeffs)(NpPolynomial([s, 1]))
    rhs = poly_sum(Polynomial.of(*shifted.coef), x, y)
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


# box kept at |x| <= 2: the cancellation leaves rounding residue of order
# eps*|x|^(2n+2), which stays under the absolute bound only for moderate x
unit_complex = st.builds(
    complex,
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(unit_complex, st.integers(min_value=0, max_value=4))
def test_odd_powers_vanish_on_symmetric_interval(x, n):
    v = poly_sum(Polynomial.monomial(2 * n + 1), x, -x)
    assert abs(v) <= 1e-10


def test_zero_polynomial_sums_to_zero():
    assert poly_sum(Polynomial.of(), 0.3, 2.7) == 0
    assert antidifference(Polynomial.of()).coeffs == ()
