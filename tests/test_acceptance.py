"""Acceptance gate: thirteen checks, one test function per criterion.

Run with `pytest -v tests/test_acceptance.py` to get a pass/fail line per
criterion. Each test prints the measured quantities it judged, so a -s run
doubles as a numeric report. One criterion is expected to fail: the zeta2
figure's bracket-ordering clause does not hold at a single grid point (the
n=10 truncation error crosses zero near x=0.53, landing closer to the
closed form than its 1/n envelope); the failure message carries the
measured numbers.
"""

import cmath
import math

import numpy as np

from fracsum.catalog import (
    bd_closed_form,
    bd_finite_product,
    run_identity,
    zpp_bracket,
    zpp_closed_form,
)
from fracsum.engine import frac_product, frac_sum_right
from fracsum.polycore import Polynomial, poly_sum
from fracsum.specialfn import CONSTANTS, hurwitz_zeta, log_gamma
from fracsum.summands import (
    bd_term,
    geom,
    identity_factor,
    log_summand,
    poly_summand,
    power,
    recip,
    tanh_factor,
    vlnv,
    zpp_term,
)
from test_engine import CATALOG_SUMMANDS, FLOAT_FAMILIES, LINCOMB_PAIRS, lincomb, shifted

GRID = np.linspace(0.1, 2.0, 41)


def test_criterion_01_euler_value():
    res = frac_sum_right(recip(), 1.0, -0.5)
    want = -2.0 * math.log(2.0)
    dev = abs(res.value - want)
    print(f"sum of 1/nu over [1, -1/2] = {res.value.real!r}, |dev| = {dev:.3e}")
    assert res.converged
    assert dev <= 1e-9


def test_criterion_02_zeta_minus_one_chain():
    v = poly_sum(Polynomial.of(0.0, 1.0), 1.0, -0.5)
    print(f"poly_sum(nu, 1, -1/2) = {v!r}")
    assert abs(v - (-0.125)) <= 1e-14
    derived = (-0.125) / 1.5
    z = hurwitz_zeta(-1.0)
    print(f"-1/8 / (3/2) = {derived!r} vs zeta(-1) = {z.real!r}")
    assert abs(derived - z) <= 1e-10


def test_criterion_03_factorial_interpolation():
    worst = 0.0
    for z in (0.5, -0.5, 2.5, 1 + 1j):
        res = frac_product(identity_factor(), 1.0, z)
        want = cmath.exp(log_gamma(z + 1.0))
        rel = abs(res.value - want) / abs(want)
        worst = max(worst, rel)
        print(f"product over [1, {z}] rel err {rel:.3e}")
        assert rel <= 1e-8
    print(f"worst rel err {worst:.3e}")


def test_criterion_04_tanh_pi_product():
    res = frac_product(tanh_factor(), 1.0, -0.5)
    want = math.tanh(math.pi)
    rel = abs(res.value - want) / want
    print(f"product of (nu^2+1) over [1, -1/2] rel err {rel:.3e}")
    assert rel <= 1e-8


def test_criterion_05_reflection_value():
    res = frac_sum_right(recip(), 0.75, -0.75)
    dev = abs(res.value - (-math.pi))
    print(f"sum of 1/nu over [3/4, -3/4] = {res.value.real!r}, |dev| = {dev:.3e}")
    assert dev <= 1e-8


def test_criterion_06_hurwitz_power_sums():
    rep = run_identity("HURW")
    print(f"HURW max rel err {rep.max_rel_err:.3e} over {len(rep.records)} points")
    assert rep.all_pass is True
    assert rep.max_rel_err <= 1e-7


def test_criterion_07_nu_ln_nu_and_zeta_prime_zero():
    res = frac_sum_right(vlnv(), 1.0, -0.5)
    want = -math.log(2.0) / 24.0 - 1.5 * CONSTANTS.zeta_prime_minus1
    dev = abs(res.value - want)
    print(f"sum of nu ln nu over [1, -1/2]: |dev| = {dev:.3e}")
    assert dev <= 1e-7

    s = frac_sum_right(log_summand(), 1.0, -0.5)
    zp0 = -0.5 * math.log(2.0) - s.value
    want0 = -0.5 * math.log(2.0 * math.pi)
    dev0 = abs(zp0 - want0)
    print(f"recovered zeta'(0) = {zp0.real!r}, |dev| = {dev0:.3e}")
    assert dev0 <= 1e-8


def test_criterion_08_alternating_product_figure():
    worst_engine = 0.0
    for x in GRID:
        x = float(x)
        s = frac_sum_right(bd_term(x), 1.0, -0.5)
        lhs = cmath.exp(-x - s.value)
        cf = bd_closed_form(x)
        worst_engine = max(worst_engine, abs(lhs - cf) / abs(cf))
        errs = [abs(bd_finite_product(x, n) - cf) for n in (1, 10, 50)]
        assert errs[2] < errs[1] < errs[0], (
            f"finite products not monotone at x={x}: {errs}"
        )
    print(f"engine worst rel err over 41-point grid: {worst_engine:.3e}")
    assert worst_engine <= 1e-6


def test_criterion_09_zeta_double_prime_figure():
    worst_engine = 0.0
    worst_n1000 = 0.0
    violations = []
    for x in GRID:
        x = float(x)
        cf = zpp_closed_form(x)
        s = frac_sum_right(zpp_term(x), 1.0, -0.5)
        worst_engine = max(worst_engine, abs(cmath.exp(s.value) - cf) / abs(cf))
        e10 = abs(zpp_bracket(x, 10) - cf)
        e1000 = abs(zpp_bracket(x, 1000) - cf)
        worst_n1000 = max(worst_n1000, e1000 / abs(cf))
        if e1000 >= e10:
            violations.append((x, e10, e1000))
    print(f"engine worst rel err over grid: {worst_engine:.3e}")
    print(f"n=1000 bracket worst rel err: {worst_n1000:.3e}")
    assert worst_engine <= 1e-6
    assert worst_n1000 <= 1e-2
    assert not violations, (
        "n=1000 is not closer than n=10 at "
        + ", ".join(
            f"x={x:g} (|err n=10| = {e10:.3e}, |err n=1000| = {e1000:.3e})"
            for x, e10, e1000 in violations
        )
        + "; the n=10 bracket error changes sign near x=0.53 and passes "
        "through zero there, so the coarse truncation lands closer to the "
        "closed form than its own 1/n envelope at that single grid point, "
        "while n=1000 sits at its normal distance (well within the 1e-2 "
        "bound). The ordering clause cannot hold pointwise at a zero "
        "crossing of the coarse error."
    )


def test_criterion_10_barnes_g():
    rep = run_identity("G2")
    for rec in rep.records:
        if rec.point == "z=0":
            bound = 1e-8 * max(1.0, abs(rec.rhs))
            label = "G(1/2) value"
        else:
            bound = 1e-7 * max(1.0, abs(rec.rhs))
            label = f"log-product form at {rec.point}"
        print(f"{label}: abs err {rec.abs_err:.3e} (bound {bound:.1e})")
        assert rec.abs_err <= bound, rec.point


def test_criterion_11_exotic_products():
    rep = run_identity("XPROD")
    tols = {"case=0": 1e-7, "case=1": 1e-6, "case=2": 1e-6}
    for rec in rep.records:
        bound = tols[rec.point] * max(1.0, abs(rec.rhs))
        print(f"{rec.note or rec.point}: abs err {rec.abs_err:.3e} (bound {bound:.1e})")
        assert rec.abs_err <= bound, rec.point
    note = next(n for n in rep.notes if "Stieltjes" in n)
    print(f"sign assumption recorded: {note}")
    assert "-0.07281" in note


def test_criterion_12_axiom_property_suites():
    rng = np.random.default_rng(20240817)

    def draw_bound():
        return complex(rng.uniform(0.3, 2.0), rng.uniform(-0.5, 0.5))

    fails = 0
    for case in range(200):
        f = FLOAT_FAMILIES[case % len(FLOAT_FAMILIES)]
        x, y, z = draw_bound(), draw_bound(), draw_bound()
        r1 = frac_sum_right(f, x, y)
        r2 = frac_sum_right(f, y + 1.0, z)
        r3 = frac_sum_right(f, x, z)
        if abs(r1.value + r2.value - r3.value) > 10.0 * (
            r1.err_estimate + r2.err_estimate + r3.err_estimate
        ):
            fails += 1
    print(f"interval splitting: {fails} failures in 200")
    assert fails == 0

    for case in range(200):
        f = FLOAT_FAMILIES[case % len(FLOAT_FAMILIES)]
        x, y, s = draw_bound(), draw_bound(), rng.uniform(0.0, 1.5)
        r1 = frac_sum_right(f, x + s, y + s)
        r2 = frac_sum_right(shifted(f, s), x, y)
        if abs(r1.value - r2.value) > 10.0 * (r1.err_estimate + r2.err_estimate):
            fails += 1
    print(f"translation: {fails} failures in 200")
    assert fails == 0

    for case in range(200):
        f, g = LINCOMB_PAIRS[case % len(LINCOMB_PAIRS)]
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        x, y = draw_bound(), draw_bound()
        r0 = frac_sum_right(lincomb(a, f, b, g), x, y)
        r1 = frac_sum_right(f, x, y)
        r2 = frac_sum_right(g, x, y)
        bound = r0.err_estimate + abs(a) * r1.err_estimate + abs(b) * r2.err_estimate
        if abs(r0.value - (a * r1.value + b * r2.value)) > 10.0 * bound:
            fails += 1
    print(f"linearity: {fails} failures in 200")
    assert fails == 0

    for case in range(200):
        q = rng.uniform(0.2, 0.9)
        f = (geom(q), power(-2.0 + q), log_summand())[case % 3]
        res = frac_sum_right(f, 1.0, 1.0)
        want = complex(np.asarray(f.eval(np.array([1.0 + 0j])))[0])
        if abs(res.value - want) > max(res.err_estimate, 1e-15):
            fails += 1
    print(f"single term: {fails} failures in 200")
    assert fails == 0

    worst = 0.0
    for f in CATALOG_SUMMANDS.values():
        for n in range(1, 21):
            loop = complex(
                np.sum(np.asarray(f.eval(np.arange(1, n + 1, dtype=complex))))
            )
            got = frac_sum_right(f, 1.0, float(n)).value
            worst = max(worst, abs(got - loop) / max(1.0, abs(loop)))
    print(f"classical consistency worst rel err: {worst:.3e}")
    assert worst <= 1e-10

    worst = 0.0
    for case in range(200):
        deg = int(rng.integers(0, 6))
        coeffs = tuple(
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(deg + 1)
        )
        x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        y = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        want = poly_sum(Polynomial.of(*coeffs), x, y)
        got = frac_sum_right(poly_summand(coeffs), x, y).value
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    print(f"polynomial agreement worst rel err: {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_13_gosper_routes():
    rep = run_identity("GOSPER")
    worst = 0.0
    for rec in rep.records:
        params = dict(kv.split("=") for kv in rec.point.split(","))
        b = float(params["b"])
        if b not in (0.5, 1.0, 2.0):
            continue
        want = math.pi * math.sin(b) / (2.0 * b)
        assert abs(rec.rhs - want) <= 1e-12
        rel = rec.abs_err / max(1.0, abs(rec.rhs))
        worst = max(worst, rel)
        assert rel <= 1e-6, rec.point
    print(
        f"all three routes within {worst:.3e} of pi sin(b)/(2b) at b in "
        "{0.5, 1, 2}: the termwise exchange, numerically, is supported"
    )
