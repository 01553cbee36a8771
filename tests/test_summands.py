"""Builtin summand families: values, the orbit points the engine evaluates
them at, domain guards, and the CLI spec grammar."""
import cmath
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsum import engine, specialfn, summands
from fracsum.engine import SCHEDULE, frac_sum_left, frac_sum_right, mirror_check
from fracsum.errors import BranchCutError, DomainError, ParameterError, SummandSpecError
from fracsum.polycore import MAX_DEGREE, poly_sum

# (summand, mpmath reference), ids naming the family and its parameters
MPMATH_FAMILIES = [
    pytest.param(f, ref, id=name) for name, f, ref in [
        ("lnfact", summands.lnfact(), lambda mp, t: mp.loggamma(t + 1)),
        ("ln_gamma_2nu", summands.ln_gamma_2nu(), lambda mp, t: mp.loggamma(2 * t + 1)),
        ("lognu_lnfact", summands.lognu_lnfact(), lambda mp, t: mp.log(t) * mp.loggamma(t + 1)),
        ("nu_lnfact", summands.nu_lnfact(), lambda mp, t: t * mp.loggamma(t + 1)),
        ("vlnv", summands.vlnv(), lambda mp, t: t * mp.log(t)),
        ("zpp_term", summands.zpp_term(0.5), lambda mp, t: 2 * t * mp.log(2 * t + 0.5) ** 2),
        ("ln_gamma_summand", summands.ln_gamma_summand(), lambda mp, t: mp.loggamma(t)),
        ("pow:0.5", summands.power(0.5), lambda mp, t: t ** 0.5),
        ("pow:1+1i", summands.power(1 + 1j), lambda mp, t: t ** mp.mpc(1, 1)),
        ("pow:2.5-0.5i", summands.power(2.5 - 0.5j), lambda mp, t: t ** mp.mpc(2.5, -0.5)),
        ("log", summands.log_summand(), lambda mp, t: mp.log(t)),
        ("poly", summands.poly_summand((1.0, -2.0, 0.5j, 3.0)),
         lambda mp, t: 1 - 2 * t + 0.5j * t**2 + 3 * t**3),
        ("factor:id", summands.identity_factor(), lambda mp, t: mp.log(t)),
        ("factor:pow:a=0.5+1i", summands.factor_from_spec("pow:a=0.5+1i"),
         lambda mp, t: mp.mpc(0.5, 1) * mp.log(t)),
        ("recip", summands.recip(), lambda mp, t: 1 / t),
        ("bd_term", summands.bd_term(0.7), lambda mp, t: 2 * t * mp.log(1 + 0.7 / t)),
        ("tanh_factor", summands.tanh_factor(), lambda mp, t: mp.log(t * t + 1)),
        ("geom", summands.geom(0.999), lambda mp, t: mp.mpf(0.999) ** t),
    ]
]
# points of right and left orbits: real ones, and complex ones on both sides
# of the real axis, left of it too, where a left sum's orbit runs
REAL_POINTS = np.array([0.75, 1.3, 7.25, 64.5, 1000.125, 8192.75])
COMPLEX_POINTS = np.array([2.5 + 1.5j, 0.3 - 0.5j, -3.2 + 0.7j, -70.5 - 0.5j, 64.25 + 30j,
                           -8192.5 + 0.5j])


@pytest.mark.parametrize("f,ref", MPMATH_FAMILIES)
@pytest.mark.parametrize("pts", [REAL_POINTS, COMPLEX_POINTS], ids=["real", "complex"])
def test_family_eval_matches_mpmath(f, ref, pts):
    mpmath = pytest.importorskip("mpmath")
    got = f.eval(pts)
    with mpmath.workdps(30):
        for p, v in zip(pts, got):
            want = complex(ref(mpmath, mpmath.mpmathify(complex(p) if p.imag else p.real)))
            assert abs(v - want) <= 64 * np.finfo(float).eps * max(1.0, abs(want)), p


@pytest.mark.parametrize("f,ref", MPMATH_FAMILIES)
def test_log_gamma_family_derivatives_match_mpmath(f, ref):
    # the engine's derivative data are the forward differences D^k f(n) of
    # eval at the nodes n, n + 1, ... of Newton's form. Every difference a
    # degree of 6 would take, at the 8 level nodes, is mpmath's but for the
    # nodes' rounding, which D^k adds up with a gain of at most 2^k
    mpmath = pytest.importorskip("mpmath")
    nodes = np.add.outer(np.array(SCHEDULE, dtype=float), np.arange(7.0))
    vals = f.eval(nodes.ravel()).reshape(nodes.shape)
    eps = np.finfo(float).eps
    with mpmath.workdps(30):
        for row, v in zip(nodes, vals):
            want = [ref(mpmath, mpmath.mpf(t)) for t in row]
            fmax = max(abs(complex(w)) for w in want)
            for k in range(7):
                got = sum((-1) ** (k - i) * math.comb(k, i) * v[i] for i in range(k + 1))
                exact = sum((-1) ** (k - i) * math.comb(k, i) * want[i] for i in range(k + 1))
                assert abs(got - complex(exact)) <= 2**k * 16 * eps * fmax, (row[0], k)


def _traced(f):
    """f with an eval that records the points of every call."""
    calls = []
    return replace(f, eval=lambda pts: calls.append(pts) or f.eval(pts)), calls


def _is_orbit_point(pts, start, step, count):
    """True where a point is start + step * k, k = 0..count - 1, to its rounding."""
    k = np.round(((pts - start) / step).real)
    near = np.abs(pts - (start + step * k)) <= 4 * np.finfo(float).eps * np.abs(pts)
    return near & (k >= 0) & (k < count)


NODE_FAMILIES = {"lnfact": summands.lnfact(), "vlnv": summands.vlnv(),
                 "pow:0.5": summands.power(0.5), "zpp_term": summands.zpp_term(0.5),
                 "log": summands.log_summand(), "tanh_factor": summands.tanh_factor(),
                 "nu_lnfact": summands.nu_lnfact()}


# (family, x, y, left): the real left orbit below meets no cut of ln(nu^2 + 1)
NODE_CASES = [pytest.param(f, *bounds, id=f"{name}-{bounds}")
              for name, f in NODE_FAMILIES.items()
              for bounds in [(1.0, 0.5, False), (1.3, 0.45, False),
                             (0.5 + 0.5j, 2.25 - 0.5j, False), (1 - 0.5j, 2.3 - 0.5j, True)]]
NODE_CASES.append(pytest.param(summands.tanh_factor(), 1.3, 4.45, True,
                               id="tanh_factor-(1.3, 4.45, True)"))


@pytest.mark.parametrize("f, x, y, left", NODE_CASES)
def test_eval_sees_only_orbit_points(f, x, y, left):
    # one node call for the polynomial parts of all the levels, then two calls
    # per level run; every point is a point of the orbit, float64 between real
    # bounds, the nodes reaching sigma past the last level
    g, calls = _traced(f)
    res = (frac_sum_left if left else frac_sum_right)(g, x, y)
    count = SCHEDULE[-1] + f.sigma + 1
    assert len(calls) == 1 + 2 * len(res.levels)
    assert calls[0].size == len(SCHEDULE) * (f.sigma + 1)
    real = complex(x).imag == complex(y).imag == 0.0
    step = -1.0 if left else 1.0
    pos = y if left else x
    neg = x - 1.0 if left else y + 1.0
    for pts in calls:
        assert pts.dtype == (np.float64 if real else np.complex128)
        on_orbit = _is_orbit_point(pts, pos, step, count) | _is_orbit_point(pts, neg, step, count)
        assert on_orbit.all()
    if real:
        assert res.value.imag == 0.0


@pytest.mark.parametrize("f", [summands.lognu_lnfact(), summands.nu_lnfact()],
                         ids=["lognu_lnfact", "nu_lnfact"])
def test_log_gamma_runs_once_per_eval_call(monkeypatch, f):
    # the nodes of every level's polynomial part are one eval call, so ln Gamma
    # runs once for them, and no polygamma is left
    calls = _counted(monkeypatch, "log_gamma")
    before = []
    traced = replace(f, eval=lambda pts: before.append(calls["log_gamma"]) or f.eval(pts))
    frac_sum_right(traced, 1.0, 0.5)
    assert before[:2] == [0, 1] and calls["log_gamma"] == len(before)
    assert not hasattr(specialfn, "polygamma")


@pytest.mark.parametrize("f", [summands.lnfact(), summands.vlnv(), summands.power(0.5),
                               summands.zpp_term(0.5), summands.log_summand()],
                         ids=["lnfact", "vlnv", "pow:0.5", "zpp_term", "log"])
def test_real_family_has_real_rows_between_real_bounds(f):
    # a real orbit gives real nodes, a family real on the real axis real node
    # values, and a real length real weights; complex bounds, or a complex
    # exponent, keep them complex
    g, calls = _traced(f)
    assert frac_sum_right(g, 1.3, 0.45).value.imag == 0.0
    assert calls[0].dtype == f.eval(calls[0]).dtype == np.float64
    assert engine._newton_weights(0.45 - 1.3 + 1.0, f.sigma).dtype == np.float64
    frac_sum_right(g, 1.3 + 0.5j, 0.45 + 0.5j)
    assert calls[-1].dtype == np.complex128
    h, calls = _traced(summands.power(0.5 + 1j))
    frac_sum_right(h, 1.3, 0.45)
    assert calls[0].dtype == np.float64 and h.eval(calls[0]).dtype == np.complex128


@pytest.mark.parametrize("x, y", [(1.0, 0.5), (0.25, 1.75), (2.0, -0.75),
                                  (1 + 0.5j, -0.5 + 0.5j), (0.5 - 0.25j, 2.25 - 0.25j)])
@pytest.mark.parametrize("left", [False, True], ids=["right", "left"])
def test_interpolation_is_exact_on_a_cubic(x, y, left):
    # p_n interpolates a cubic at 4 points, so it is the cubic. Dyadic bounds
    # make the orbit, the values, the weights and the tail exact in doubles:
    # every level is poly_sum's value but for poly_sum's own rounding
    p = summands.poly_summand((1.0, -2.0, 0.5, 3.0))
    f = replace(p, exact_poly=None)
    assert f.sigma == 3
    want = poly_sum(p.exact_poly, x, y)
    res = (frac_sum_left if left else frac_sum_right)(f, x, y)
    for n, v in res.levels:
        assert abs(v - want) <= 4 * np.finfo(float).eps * max(1.0, abs(want)), n


@pytest.mark.parametrize("f", [summands.log_summand(), summands.vlnv(), summands.power(0.5),
                               summands.power(0.7 + 0.4j), summands.lnfact(),
                               summands.zpp_term(0.5), summands.bd_term(0.7),
                               summands.tanh_factor()],
                         ids=["log", "vlnv", "pow:0.5", "pow:0.7+0.4i", "lnfact", "zpp_term",
                              "bd_term", "tanh_factor"])
@pytest.mark.parametrize("a, b", [(1.0, 0.5), (0.7, 2.3), (1.3, 0.45), (1 + 0.5j, 2.3 - 0.2j),
                                  (2.0771525892670066, 0.4567127433262498),
                                  (0.8302538302941889 + 0.3j, 0.3137696746085226 + 0.3j)])
def test_mirror_check_is_exact(f, a, b):
    # the left sum of f(-nu) evaluates f at the right sum's points, nodes
    # included, and weights them alike. On the last two intervals the left
    # orbit's (x - 1) - k rounded twice and met f elsewhere
    assert mirror_check(f, a, b).abs_diff == 0.0


def _counted(monkeypatch, *names):
    """Count the calls of the named functions of fracsum.summands."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(summands, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(summands, name, counted)
    return calls


def test_recip_values_and_sigma():
    f = summands.recip()
    assert f.sigma == -1
    vals = f.eval(np.array([2.0, -4.0, 1j], dtype=complex))
    assert vals[0] == pytest.approx(0.5)
    assert vals[2] == pytest.approx(-1j)


def test_power_integer_declares_exact_polynomial():
    f = summands.power(3)
    assert f.exact_poly is not None
    assert f.exact_poly.coeffs == (0j, 0j, 0j, 1 + 0j)
    assert summands.power(0.5).exact_poly is None
    assert summands.power(-1.5).sigma == -1
    # the degree is capped before a coefficient list of its length is built
    assert summands.power(MAX_DEGREE).exact_poly.degree == MAX_DEGREE
    for a in (MAX_DEGREE + 1, 1e19, 1e300):
        with pytest.raises(ParameterError, match="exceeds cap"):
            summands.power(a)
    # so is a noninteger exponent's degree sigma of p_n: floor(Re a) + 1, + 3
    # if complex
    assert summands.power(63.5).sigma == summands.power(61.5 + 1j).sigma == MAX_DEGREE
    names = {64.5: "pow:a=64.5", 62.5 + 1j: "pow:a=62.5+1i", 1e300 - 1j: "pow:a=1e+300-1i"}
    for a, name in names.items():
        with pytest.raises(ParameterError, match=re.escape(name) + ": degree of p_n"):
            summands.power(a)


def test_power_negative_real_axis_guard():
    # the guard predicate marks defined points; the engine enforces it
    f = summands.power(0.5)
    ok = f.domain_guard(np.array([-2.0 + 0j, 2.0 + 0j, -2.0 + 1j]))
    assert list(ok) == [False, True, True]


# Every built-in family that is real on the positive real axis, and points of
# the real orbits the engine evaluates, up to 2^16 past a start of 1.
# pytest id -> family, the id naming the family and its parameters
REAL_FAMILIES = {
    "recip": summands.recip(), "pow:(0.5+0j)": summands.power(0.5),
    "pow:(1.3+0j)": summands.power(1.3), "pow:(-0.4+0j)": summands.power(-0.4),
    "pow:(-2+0j)": summands.power(-2), "log": summands.log_summand(),
    "geom:(0.5+0j)": summands.geom(0.5), "binom:(2.5+0j):(0.3+0j)": summands.binom(2.5, 0.3),
    "vlnv": summands.vlnv(), "lnfact": summands.lnfact(),
    "lngamma+0.0": summands.ln_gamma_summand(), "lngamma(2nu+1)": summands.ln_gamma_2nu(),
    "lognu*lnfact": summands.lognu_lnfact(), "nu*lnfact": summands.nu_lnfact(),
    "bd:(0.3+0j)": summands.bd_term(0.3), "zpp:(0.5+0j)": summands.zpp_term(0.5),
    "sermul:(0.5+0j):(0.3+0j)": summands.sermul_combined(0.5, 0.3),
    "gosper:1.5": summands.gosper_term(1.5), "id": summands.identity_factor(),
    "nu^2+1": summands.tanh_factor(), "factor:pow:a=0.5": summands.factor_from_spec("pow:a=0.5"),
}
REAL_ORBIT = np.concatenate([np.arange(1, 300) + 0.37, 2.0 ** np.arange(17) + 0.37,
                             2.0 ** np.arange(17) * 1.5 - 0.25])


@pytest.mark.parametrize("f", REAL_FAMILIES.values(), ids=list(REAL_FAMILIES))
def test_real_orbit_evaluates_in_float64(f):
    # numpy's complex power is itself off by up to 9 eps (for a = 1.3), the
    # float one by at most an ulp, so the two agree to a few times that
    got = f.eval(REAL_ORBIT)
    want = f.eval(REAL_ORBIT.astype(complex))
    assert got.dtype == np.float64
    assert np.all(np.abs(got - want) <= 16 * np.finfo(float).eps * np.abs(want))


@pytest.mark.parametrize("a", [0.5, 1.3, -0.286, 2.5])
def test_real_power_is_within_an_ulp_of_mpmath(a):
    mpmath = pytest.importorskip("mpmath")
    pts = np.concatenate([np.arange(1, 400) * 0.731 + 0.37, 2.0 ** np.arange(21) + 0.37])
    got = summands.power(a).eval(pts)
    with mpmath.workdps(40):
        for p, v in zip(pts, got):
            want = float(mpmath.mpf(p) ** a)
            assert abs(v - want) <= math.ulp(want), (a, p)


@pytest.mark.parametrize("f", [summands.geom(0.5 + 0.2j), summands.power(0.7 + 0.5j),
                               summands.binom(2.5, -0.3)],
                         ids=["geom:(0.5+0.2j)", "pow:(0.7+0.5j)", "binom:(2.5+0j):(-0.3+0j)"])
def test_complex_on_the_real_axis_stays_complex(f):
    # the family promotes a real orbit itself; a float result would drop
    # the imaginary part
    got = f.eval(REAL_ORBIT[:40])
    want = f.eval(REAL_ORBIT[:40].astype(complex))
    assert got.dtype == np.complex128
    assert np.abs(want.imag).max() > 0.01 * np.abs(want).max()
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)


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


def test_binom_guard_rejects_the_pole_before_any_term():
    # the orbit of [-2, 0.5] meets w = -2, a pole of Gamma(w + 1): the guard
    # names it and no term is evaluated
    calls = []
    f = summands.binom(2.5, 0.3)
    counted = replace(f, eval=lambda pts: calls.append(pts) or f.eval(pts))
    with pytest.raises(DomainError, match=r"orbit point \(-2\+0j\)") as info:
        frac_sum_right(counted, -2.0, 0.5)
    assert info.value.value == -2
    assert calls == []


def test_bd_term_uses_log1p_form():
    f = summands.bd_term(1.0)
    v = f.eval(np.array([10.0 + 0j]))[0]
    assert v == pytest.approx(2 * 10.0 * math.log1p(1.0 / 10.0), rel=1e-14)
    assert f.sigma == 0


@pytest.mark.parametrize("y", [0.5, 0.5 + 1j])
def test_bd_term_guard_rejects_nu_zero(y):
    # the left orbit of [1, y] meets nu = 0, where 1 + x/nu is inf; the guard
    # names the point, without a numpy warning, before any term is evaluated
    calls = []
    f = summands.bd_term(0.3)
    counted = replace(f, eval=lambda pts: calls.append(pts) or f.eval(pts))
    with pytest.raises(DomainError, match=r"orbit point 0j") as info:
        frac_sum_left(counted, 1.0, y)
    assert info.value.value == 0j
    assert calls == []


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
    # an exponent sign is no split between A and B; the sign of a zero is kept
    for text, want in (("1e+5i", 1e5j), ("1e5+2e-3i", complex(1e5, 2e-3)),
                       ("+i", 1j), ("-i", complex(0.0, -1.0)), ("1-i", 1 - 1j),
                       (".5-.5i", 0.5 - 0.5j), ("5.+3.i", 5 + 3j),
                       ("-0", complex(-0.0, 0.0)), ("1-0i", complex(1.0, -0.0))):
        got = pc(text)
        assert got == want, text
        assert [math.copysign(1.0, t) for t in (got.real, got.imag)] == \
            [math.copysign(1.0, t) for t in (want.real, want.imag)], text
    for bad in ("", "2+", "i2", "1+2j*", "abc",
                "nan", "inf", "-inf", "1+nani", "infi", "1e400",
                "1_0", "1_0+2_5i", "\u0663",
                "i", "1+-2i", "1e5+i2", "1\t+2i"):
        with pytest.raises(SummandSpecError):
            pc(bad)


@settings(max_examples=300, deadline=None)
@given(st.complex_numbers(allow_nan=False, allow_infinity=False))
def test_format_complex_round_trips(z):
    assert summands.parse_complex(summands._format_complex(z)) == z


def test_from_spec_families():
    # each family is told by its values
    pts = np.array([2.0, 3.5 + 1j])
    f = summands.from_spec("recip")
    assert f.sigma == -1 and np.allclose(f.eval(pts), 1.0 / pts)
    f = summands.from_spec("log")
    assert f.sigma == 0 and np.allclose(f.eval(pts), np.log(pts))
    assert summands.from_spec("id").exact_poly.coeffs == (0j, 1 + 0j)
    assert summands.from_spec("pow:a=0.5").sigma == 1
    assert summands.from_spec("geom:q=0.5").sigma == -1
    assert summands.from_spec("binom:c=2.5:x=0.3").sigma == -1
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
    # a factor's summand is its logarithm: eval, sums and exact_poly alike
    f = summands.factor_from_spec("id")
    assert f.sigma == 0 and f.exact_poly is None
    pts = np.array([2.0, 3.5], dtype=complex)
    assert np.allclose(f.eval(pts), np.log(pts))
    # the factor nu meets the cut at nu = -1: the guard marks it, the product raises
    assert f == summands.identity_factor() == summands.log_summand()
    assert f.domain_guard(np.array([-1.0 + 0j])).tolist() == [False]
    with pytest.raises(BranchCutError, match=r"orbit point \(-2\.5\+0j\)"):
        engine.frac_product(f, -2.5, 1.25)
    g = summands.factor_from_spec("pow:a=0.5")
    assert np.allclose(g.eval(pts), 0.5 * np.log(pts))
    # the sum of 0.5 ln nu over [1, 1/2] is 0.5 ln Gamma(3/2)
    assert frac_sum_right(g, 1.0, 0.5).value == pytest.approx(0.5 * math.lgamma(1.5))
    h = summands.factor_from_spec("geom:q=2")
    assert np.allclose(h.eval(pts), pts * math.log(2.0))
    assert h.exact_poly.coeffs == (0j, complex(math.log(2.0)))  # nu ln 2
    with pytest.raises(SummandSpecError, match="carries sum metadata"):
        summands.factor_from_spec("recip")
