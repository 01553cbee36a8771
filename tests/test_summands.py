"""Builtin summand families: values, derivative metadata, domain guards,
and the CLI spec grammar."""
import cmath
import math

import numpy as np
import pytest

from fracsum import summands
from fracsum.engine import DEFAULT_CONFIG, SIGMA_NEG_INF
from fracsum.errors import DomainError, SummandSpecError


def _fd(ev, t: complex, k: int):
    """Central finite difference of order k from scalar array evals.

    Steps grow with k so the h^{-k} rounding amplification stays below the
    h^2 truncation term.
    """
    if k == 1:
        h = 1e-5
        pts = np.array([t - h, t + h], dtype=complex)
        a, b = ev(pts)
        return (b - a) / (2 * h)
    if k == 2:
        h = 1e-3
        pts = np.array([t - h, t, t + h], dtype=complex)
        a, b, c = ev(pts)
        return (a - 2 * b + c) / h**2
    if k == 3:
        h = 1e-2
        pts = np.array([t - 2 * h, t - h, t + h, t + 2 * h], dtype=complex)
        a, b, c, d = ev(pts)
        return (-a + 2 * b - 2 * c + d) / (2 * h**3)
    raise AssertionError(k)


DERIV_FAMILIES = [
    (summands.power(0.5), 2.0, (1, 2, 3)),
    (summands.power(1 + 1j), 3.0, (1, 2, 3)),
    (summands.log_summand(), 5.0, (1, 2, 3)),
    (summands.vlnv(), 4.0, (1, 2, 3)),
    (summands.lnfact(), 6.0, (1, 2, 3)),
    (summands.ln_gamma_2nu(), 5.0, (1, 2, 3)),
    (summands.lognu_lnfact(), 7.0, (1, 2, 3)),
    (summands.nu_lnfact(), 7.0, (1, 2, 3)),
    (summands.zpp_term(0.5), 6.0, (1, 2, 3)),
    (summands.poly_summand((1.0, -2.0, 0.5j, 3.0)), 1.5, (1, 2, 3)),
    (summands.tanh_factor(), 3.0, ()),
]


@pytest.mark.parametrize("f,center,orders", DERIV_FAMILIES,
                         ids=lambda v: getattr(v, "label", str(v)))
def test_derivatives_match_finite_differences(f, center, orders):
    assert f.deriv is not None or not orders
    for k in orders:
        want = _fd(f.eval, center, k)
        got = f.deriv(k, center)
        assert abs(got - want) <= 5e-5 * (1 + abs(want)), (f.label, k)
    if f.exact_poly is not None:
        # a polynomial's derivatives vanish past its degree
        assert all(f.deriv(k, center) == 0 for k in range(len(f.exact_poly.coeffs), 9))
    # the engine asks for each order once, at all the tail centers of the
    # schedule together; that must be the scalar calls, elementwise
    centers = np.array([DEFAULT_CONFIG.n_start << j for j in range(DEFAULT_CONFIG.n_levels)],
                       dtype=complex)
    for k in range(int(f.sigma) + 1 if orders else 0):
        got = np.broadcast_to(f.deriv(k, centers), centers.shape)
        assert [complex(g) for g in got] == [complex(f.deriv(k, complex(c))) for c in centers], k


@pytest.mark.parametrize("f,ref", [
    (summands.lnfact(), lambda mp, t: mp.loggamma(t + 1)),
    (summands.ln_gamma_2nu(), lambda mp, t: mp.loggamma(2 * t + 1)),
    (summands.lognu_lnfact(), lambda mp, t: mp.log(t) * mp.loggamma(t + 1)),
    (summands.nu_lnfact(), lambda mp, t: t * mp.loggamma(t + 1)),
    (summands.vlnv(), lambda mp, t: t * mp.log(t)),
    (summands.zpp_term(0.5), lambda mp, t: 2 * t * mp.log(2 * t + 0.5) ** 2),
], ids=["lnfact", "ln_gamma_2nu", "lognu_lnfact", "nu_lnfact", "vlnv", "zpp_term"])
def test_log_gamma_family_derivatives_match_mpmath(f, ref):
    # every order a higher Taylor degree would ask for, not only k <= 3
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for k in range(7):
            want = complex(mpmath.diff(lambda t: ref(mpmath, t), 7, k))
            assert abs(f.deriv(k, 7.0) - want) <= 1e-13 * abs(want), (f.label, k)


def test_product_factor_derivs_describe_the_log():
    # for factors, deriv documents d^k ln f, not d^k f
    f = summands.identity_factor()
    ev = lambda pts: np.log(f.eval(pts))
    for k in (1, 2, 3):
        assert abs(f.deriv(k, 4.0) - _fd(ev, 4.0, k)) < 1e-5
    g = summands.tanh_factor()
    evg = lambda pts: np.log(g.eval(pts))
    assert g.sigma == 0


def test_recip_values_and_sigma():
    f = summands.recip()
    assert f.sigma == SIGMA_NEG_INF
    vals = f.eval(np.array([2.0, -4.0, 1j], dtype=complex))
    assert vals[0] == pytest.approx(0.5)
    assert vals[2] == pytest.approx(-1j)


def test_power_integer_declares_exact_polynomial():
    f = summands.power(3)
    assert f.exact_poly is not None
    assert f.exact_poly.coeffs == (0j, 0j, 0j, 1 + 0j)
    assert summands.power(0.5).exact_poly is None
    assert summands.power(-1.5).sigma == SIGMA_NEG_INF


def test_power_negative_real_axis_guard():
    # the guard predicate marks defined points; the engine enforces it
    f = summands.power(0.5)
    ok = f.domain_guard(np.array([-2.0 + 0j, 2.0 + 0j, -2.0 + 1j]))
    assert list(ok) == [False, True, True]


def test_geom_rejects_branch_cut_ratio():
    with pytest.raises(SummandSpecError):
        summands.geom(-0.25)
    one = summands.geom(1.0)
    assert one.exact_poly is not None and one.exact_poly.coeffs == (1 + 0j,)


def test_binom_half_integer_values():
    # C(c, w) continued by Gamma: at c=2, w=1 the classical value 2
    f = summands.binom(2.0, 0.3)
    v = f.eval(np.array([1.0 + 0j]))[0]
    assert v == pytest.approx(2 * 0.3, rel=1e-12)
    # pole of the lower Gamma argument gives a zero coefficient past c
    v = f.eval(np.array([3.0 + 0j]))[0]
    assert v == pytest.approx(0.0, abs=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c,x", [(2.5, 0.3), (1.5 + 0.5j, -0.4 + 0.2j)])
def test_binom_array_matches_mpmath(c, x):
    # the points cross c + 1 and c + 2 (zero coefficients) into the region
    # Re(c - w + 1) < 1/2, where 1/Gamma goes through reflection
    mpmath = pytest.importorskip("mpmath")
    w = np.concatenate([np.linspace(-0.9, 6.2, 30), [2.0 + 0.5j, 4.2 - 0.3j],
                        [c + 1.0, c + 2.0, c + 1.5]]).astype(complex)
    got = summands.binom(c, x).eval(w)
    assert got[-3] == 0 and got[-2] == 0
    for wi, v in zip(w, got):
        want = complex(mpmath.binomial(c, wi) * mpmath.mpc(x) ** wi)
        assert abs(v - want) <= 1e-13 * max(1.0, abs(want)), wi


def test_binom_pole_in_array_is_domain_error():
    f = summands.binom(2.5, 0.3)
    with pytest.raises(DomainError):
        f.eval(np.array([0.5, 1.0, -1.0, 2.0], dtype=complex))


def test_bd_term_uses_log1p_form():
    f = summands.bd_term(1.0)
    v = f.eval(np.array([10.0 + 0j]))[0]
    assert v == pytest.approx(2 * 10.0 * math.log1p(1.0 / 10.0), rel=1e-14)
    assert f.sigma == 0


@pytest.mark.parametrize("x", [0.25, 1.7, 0.3 + 0.4j, -0.2 + 1.1j])
def test_bd_term_matches_mpmath_on_the_orbit(x):
    # x / nu is small along the orbit, where log(1 + x/nu) loses its digits
    mpmath = pytest.importorskip("mpmath")
    pts = np.concatenate([2.0 ** np.arange(23) + 0.37, 2.0 ** np.arange(22) * 1.5 - 0.25])
    got = summands.bd_term(x).eval(pts.astype(complex))
    with mpmath.workdps(30):
        for p, v in zip(pts, got):
            want = complex(2 * p * mpmath.log(1 + mpmath.mpc(x) / p))
            assert abs(v - want) <= 4 * np.finfo(float).eps * abs(want), (x, p)


def test_gosper_term_value():
    b = 2.0
    f = summands.gosper_term(b)
    t = 0.75
    r = math.sqrt(b * b + 4 * math.pi**2 * t * t)
    assert f.eval(np.array([t + 0j]))[0] == pytest.approx(
        math.sin(r) / (2 * t * r), rel=1e-13
    )


def test_sermul_combined_at_integer_points():
    # f g + f * (partial sums of g) + g * (partial sums of f), all geometric
    q1, q2 = 0.5, 0.3
    f = summands.sermul_combined(q1, q2)

    def partial(q, n):
        return sum(q**k for k in range(1, n + 1))

    n = 4
    expect = (
        q1**n * q2**n
        + q1**n * partial(q2, n - 1)
        + q2**n * partial(q1, n - 1)
    )
    assert f.eval(np.array([float(n) + 0j]))[0] == pytest.approx(expect, rel=1e-12)


def test_parse_complex_grammar():
    pc = summands.parse_complex
    assert pc("2.5") == 2.5
    assert pc("-0.5") == -0.5
    assert pc("1+2i") == 1 + 2j
    assert pc("1-2i") == 1 - 2j
    assert pc("0.5i") == 0.5j
    assert pc("-i") == -1j
    assert pc("1e-3+2.5e2i") == complex(1e-3, 250.0)
    for bad in ("", "2+", "i2", "1+2j*", "abc",
                "nan", "inf", "-inf", "1+nani", "infi", "1e400",
                "1_0", "1_0+2_5i", "\u0663"):
        with pytest.raises(SummandSpecError):
            pc(bad)


def test_from_spec_families():
    assert summands.from_spec("recip").label == "recip"
    assert summands.from_spec("log").label == "log"
    assert summands.from_spec("id").label == "id"
    assert summands.from_spec("pow:a=0.5").sigma == 1
    assert summands.from_spec("geom:q=0.5").sigma == SIGMA_NEG_INF
    assert summands.from_spec("binom:c=2.5:x=0.3").sigma == SIGMA_NEG_INF
    p = summands.from_spec("poly:1,0,2")
    assert p.exact_poly is not None
    assert p.exact_poly.coeffs == (1 + 0j, 0j, 2 + 0j)


def test_from_spec_rejects_malformed():
    for bad in (
        "nosuch",
        "recip:x=1",
        "pow",
        "pow:b=1",
        "pow:a=1:a=2",
        "geom:q=zzz",
        "binom:c=1",
        "poly:",
        "poly",
    ):
        with pytest.raises(SummandSpecError):
            summands.from_spec(bad)


def test_factor_from_spec_families():
    f = summands.factor_from_spec("id")
    assert f.label == "id" and f.sigma == 0
    pts = np.array([2.0, 3.5], dtype=complex)
    g = summands.factor_from_spec("pow:a=0.5")
    assert np.allclose(g.eval(pts), np.sqrt(pts))
    assert g.deriv(1, 4.0) == pytest.approx(0.5 / 4.0)  # d/dnu of 0.5 ln nu
    h = summands.factor_from_spec("geom:q=2")
    assert np.allclose(h.eval(pts), 2.0**pts)
    assert h.exact_poly.coeffs == (0j, complex(math.log(2.0)))  # nu ln 2
    with pytest.raises(SummandSpecError, match="carries sum metadata"):
        summands.factor_from_spec("recip")
