"""The mpmath references against textbook values and independent routes."""
import math

import mpmath as mp
import pytest

import reference as R


def _op(family, x, y, args=(), mode="sum", direction="right"):
    return {"family": family, "args": [[complex(a).real, complex(a).imag] for a in args],
            "mode": mode, "dir": direction, "x": [x, 0.0], "y": [y, 0.0]}


def close(a, b, tol=1e-25):
    return abs(complex(a) - complex(b)) <= tol * max(1.0, abs(complex(b)))


def test_euler_value_minus_two_ln_two():
    assert close(R.engine_reference(_op("recip", 1.0, -0.5)), -2 * mp.log(2))


def test_log_sum_is_half_ln_pi():
    assert close(R.engine_reference(_op("log_summand", 1.0, -0.5)), mp.log(mp.pi) / 2)


def test_product_of_nu_squared_plus_one_is_tanh_pi():
    assert close(R.engine_reference(_op("tanh_factor", 1.0, -0.5, mode="prod")), mp.tanh(mp.pi))


def test_half_term_power_sum_gives_zeta_minus_one():
    # sum_{nu=1}^{-1/2} nu = (2 - 1/2) zeta(-1), and zeta(-1) = -1/12
    s = R.engine_reference(_op("power", 1.0, -0.5, args=(1.0,)))
    assert close(s / 1.5, mp.mpf(-1) / 12)


def test_gamma_product_and_factorial_interpolation():
    assert close(R.engine_reference(_op("identity_factor", 1.0, 0.5, mode="prod")),
                 mp.sqrt(mp.pi) / 2)


def test_barnes_g_formula_matches_mpmath_barnesg():
    for z in (0.5, 1.5, 2.7, 4.0):
        assert close(R.ln_barnes_g(mp.mpf(z)), mp.log(mp.barnesg(z)), 1e-24)


def test_double_factorial_product_value():
    # prod_{n=1}^{-1/2} (2n)! = (pi/2)^(1/4)
    s = R.engine_reference(_op("ln_gamma_2nu", 1.0, -0.5))
    assert close(mp.exp(s), mp.power(mp.pi / 2, 0.25))


def test_lognu_lnfact_value_matches_its_defining_limit():
    # independent of the Stieltjes closed form: extrapolate the defining
    # limit of sum_{nu=1}^{-1/2} ln nu ln Gamma(nu+1) in mpmath
    f = lambda t: mp.log(t) * mp.loggamma(t + 1)

    def level(n):
        tail = mp.fsum(f(k) - f(k - 0.5) for k in range(1, n + 1))
        # degree-3 Taylor part over the half-length window [n+1, n+1/2]
        w = [R.poly_sum([0] * k + [1], mp.mpf(1), mp.mpf(-0.5)) for k in range(4)]
        return tail + mp.fsum(mp.diff(f, n, k) / mp.factorial(k) * w[k] for k in range(4))

    vals = [level(n) for n in (32, 64, 128)]
    rich = vals[2] + (vals[2] - vals[1]) / (2**3 - 1)
    assert abs(rich - R.lognu_lnfact_half()) < 1e-6


def test_nu_lnfact_closed_form_on_integer_interval():
    # classical sum: sum_{nu=1}^{3} nu ln(nu!) = ln 1 + 2 ln 2 + 3 ln 6
    expect = 2 * mp.log(2) + 3 * mp.log(6)
    assert close(R.nu_lnfact_sum(mp.mpf(1), mp.mpf(3)), expect, 1e-24)


def test_power_log_sums_reduce_to_classical_sums():
    x, y = mp.mpf(2), mp.mpf(5)
    nus = [2, 3, 4, 5]
    assert close(R.power_log_sum(1, 1, 0, x, y), mp.fsum(n * mp.log(n) for n in nus), 1e-24)
    assert close(R.bd_sum(mp.mpf(0.7), x, y),
                 mp.fsum(2 * n * mp.log(1 + mp.mpf(0.7) / n) for n in nus), 1e-24)
    assert close(R.zpp_sum(mp.mpf(0.3), x, y),
                 mp.fsum(2 * n * mp.log(2 * n + mp.mpf(0.3)) ** 2 for n in nus), 1e-24)


def test_left_sum_is_the_mirrored_right_sum():
    x, y = 1.3, 0.45
    left = R.engine_reference(_op("recip", x, y, direction="left"))
    # left sum of 1/nu over [x, y] = right sum of -1/nu over [-y, -x]
    right = -R.engine_reference(_op("recip", -y, -x))
    assert close(left, right)


def test_gosper_defining_series_matches_the_experiment_value():
    b = 1.0
    ref = R.catalog_reference("GOSPER", {"b": mp.mpc(b), "route": mp.mpc(1)})
    assert close(ref, mp.pi * mp.sin(b) / (2 * b), 1e-20)


@pytest.mark.parametrize("ident,label,expect", [
    ("HARM", "x=-0.5", -2 * math.log(2)),
    ("ZHALF", "a=1", -1.0 / 8.0),
    ("LNGAM", "part=0", 0.5 * math.log(math.pi)),
    ("TANH", "-", math.tanh(math.pi)),
    ("MIRROR", "case=1", -math.pi),
    ("G2", "z=3", 0.0),
])
def test_catalog_right_hand_sides(ident, label, expect):
    assert close(R.catalog_reference(ident, R.parse_point(label)), expect, 1e-15)


def test_cli_references():
    poly = R.cli_reference({"kind": "poly", "coeffs": [[0, 0], [1, 0]]}, mp.mpf(1), mp.mpf(7))
    assert close(poly, 28)
    fin = R.cli_reference({"kind": "finite", "spec": "recip"}, mp.mpf(1), mp.mpf(3))
    assert close(fin, mp.mpf(11) / 6)
    prod = R.cli_reference({"kind": "finite_prod", "spec": "pow", "a": [2, 0]}, mp.mpf(1), mp.mpf(4))
    assert close(prod, 576)
