"""Independent reference values, computed with mpmath at 30 digits.

Nothing here imports fracsum. Each fractional sum or product is given by a
closed form in special functions that mpmath evaluates on its own:

* powers and power-log summands through the Hurwitz zeta function and its
  s-derivatives: for the fractional sum over [x, y],
  sum (nu+a)^m ln^k(nu+a) = (-1)^k [zeta^(k)(-m, x+a) - zeta^(k)(-m, y+1+a)];
* 1/nu through the digamma function, ln nu through ln Gamma;
* ln Gamma(nu+s) through Barnes G, ln G(z) = (z-1) ln Gamma(z) + zeta'(-1)
  - zeta'(-1, z);
* products of nu and of nu^2 + 1 as ratios of Gamma(z+1) and Gamma(y+1 +- i);
* polynomial sums through Bernoulli polynomials (``bernpoly``);
* the decaying ``gosper_term`` family, which has no closed form, through
  ``nsum`` of its defining series sum_{n>=1} [f(n+x-1) - f(n+y)].

``lognu_lnfact`` has a closed form only on [1, -1/2], through the Stieltjes
constant gamma_1; the workloads use it only there.

Run as a script it reads ``{"ops": [...]}`` (see ``workloads.py``) or
``{"catalog": [[id, point], ...]}`` on stdin and writes the references as
JSON on stdout; it runs in its own process, never in the timed one.
"""
from __future__ import annotations

import json
import sys

import mpmath as mp

mp.mp.dps = 30

# Accepted error per catalog identity, |lhs - ref| <= tol * max(1, |ref|).
# Equal to the tolerances the catalog registers for its theorems; the
# GOSPER experiment is held to the 1e-6 its routes are reported to meet.
CATALOG_TOL = {
    "GEO": 1e-10, "BINOM": 1e-8, "SERMUL": 1e-10, "GAMMA": 1e-8, "TANH": 1e-8,
    "HARM": 1e-8, "REFL": 1e-8, "HURW": 1e-7, "ZHALF": 1e-8, "VLNV": 1e-7,
    "LNGAM": 1e-8, "LEFTP": 1e-8, "MIRROR": 1e-8, "ODDP": 1e-10, "BD": 1e-6,
    "ZPP": 1e-6, "G2": 1e-7, "XPROD": 1e-6, "GOSPER": 1e-6,
}


def _mpc(pair) -> mp.mpc:
    return mp.mpc(pair[0], pair[1])


# ---------------------------------------------------------------------------
# building blocks


def power_log_sum(m, k: int, a, x, y):
    """Fractional sum over [x, y] of (nu+a)^m ln^k(nu+a), m != -1 or k > 0."""
    return (-1) ** k * (mp.zeta(-m, x + a, k) - mp.zeta(-m, y + 1 + a, k))


def ln_barnes_g(z):
    """ln G(z), continued from the positive axis like ln Gamma."""
    return (z - 1) * mp.loggamma(z) + mp.zeta(-1, 1, 1) - mp.zeta(-1, z, 1)


def poly_sum(coeffs, x, y):
    """sum_{nu=x}^{y} sum_k c_k nu^k via B_{k+1}(y+1) - B_{k+1}(x)."""
    return mp.fsum(
        c * (mp.bernpoly(k + 1, y + 1) - mp.bernpoly(k + 1, x)) / (k + 1)
        for k, c in enumerate(coeffs)
    )


def _geom_power(q, z):
    return mp.exp(z * mp.log(q))


def _gosper_f(b):
    def f(n):
        r = mp.sqrt(b * b + 4 * mp.pi**2 * n * n)
        return mp.sin(r) / (2 * n * r)

    return f


def decaying_sum(f, x, y):
    """Right fractional sum of a summand with f(nu) -> 0: the defining series."""
    return mp.nsum(lambda n: f(n + x - 1) - f(n + y), [1, mp.inf])


def bd_sum(c, x, y):
    """Sum of 2 nu ln(1 + c/nu) = 2(nu+c)ln(nu+c) - 2c ln(nu+c) - 2 nu ln nu."""
    return (2 * power_log_sum(1, 1, c, x, y) - 2 * c * power_log_sum(0, 1, c, x, y)
            - 2 * power_log_sum(1, 1, 0, x, y))


def zpp_sum(c, x, y):
    """Sum of 2 nu ln^2(2 nu + c), with 2 nu + c = 2(nu + a), a = c/2."""
    a = c / 2
    L = mp.log(2)
    return (2 * L * L * power_log_sum(1, 0, a, x, y) + 4 * L * power_log_sum(1, 1, a, x, y)
            + 2 * power_log_sum(1, 2, a, x, y) - c * L * L * power_log_sum(0, 0, a, x, y)
            - 2 * c * L * power_log_sum(0, 1, a, x, y) - c * power_log_sum(0, 2, a, x, y))


def nu_lnfact_sum(x, y):
    """Sum of nu ln Gamma(nu+1) as P(y) - P(x-1)."""

    def P(t):
        return (t * (t + 1) / 2 * mp.loggamma(t + 1)
                - (mp.zeta(-2, t + 1, 1) - mp.zeta(-2, 1, 1)) / 2
                + (mp.zeta(-1, t + 1, 1) - mp.zeta(-1, 1, 1)) / 2)

    return P(y) - P(x - 1)


def lognu_lnfact_half():
    """Sum of ln nu ln Gamma(nu+1) over [1, -1/2] (the (n!)^(ln n) product)."""
    g = mp.euler
    return (g * g / 4 + mp.stieltjes(1) / 2 - mp.pi**2 / 48
            + mp.log(2) ** 2 / 2 - mp.log(mp.pi) ** 2 / 8)


def _right_sum(family, args, x, y):
    if family == "recip":
        return mp.digamma(y + 1) - mp.digamma(x)
    if family == "power":
        return power_log_sum(args[0], 0, 0, x, y)
    if family == "log_summand":
        return mp.loggamma(y + 1) - mp.loggamma(x)
    if family == "vlnv":
        return power_log_sum(1, 1, 0, x, y)
    if family == "geom":
        q = args[0]
        return (_geom_power(q, x) - _geom_power(q, y + 1)) / (1 - q)
    if family == "bd_term":
        return bd_sum(args[0], x, y)
    if family == "zpp_term":
        return zpp_sum(args[0], x, y)
    if family == "gosper_term":
        return decaying_sum(_gosper_f(args[0]), x, y)
    if family == "lnfact":
        return ln_barnes_g(y + 2) - ln_barnes_g(x + 1)
    if family == "ln_gamma_summand":
        return ln_barnes_g(y + 1) - ln_barnes_g(x)
    if family == "ln_gamma_2nu":
        # Legendre duplication: ln Gamma(2nu+1) = 2nu ln 2 + ln nu
        #   + ln Gamma(nu) + ln Gamma(nu + 1/2) - ln(pi)/2
        return (2 * mp.log(2) * poly_sum([0, 1], x, y)
                + mp.loggamma(y + 1) - mp.loggamma(x)
                + ln_barnes_g(y + 1) - ln_barnes_g(x)
                + ln_barnes_g(y + 1.5) - ln_barnes_g(x + 0.5)
                - mp.log(mp.pi) / 2 * (y - x + 1))
    if family == "nu_lnfact":
        return nu_lnfact_sum(x, y)
    if family == "lognu_lnfact":
        if x != 1 or y != -0.5:
            raise ValueError("lognu_lnfact reference needs the interval [1, -1/2]")
        return lognu_lnfact_half()
    if family == "binom":
        c, t = args
        if x != 0 or y != c:
            raise ValueError("binom reference needs the interval [0, c]")
        return mp.power(1 + t, c)
    raise ValueError(f"no reference for family {family!r}")


def _right_product(family, x, y):
    if family == "identity_factor":
        return mp.gamma(y + 1) / mp.gamma(x)
    if family == "tanh_factor":
        j = mp.mpc(0, 1)
        return (mp.gamma(y + 1 + j) * mp.gamma(y + 1 - j)) / (mp.gamma(x + j) * mp.gamma(x - j))
    raise ValueError(f"no product reference for family {family!r}")


def engine_reference(op: dict):
    """Reference value of one engine operation from ``workloads``."""
    fam = op["family"]
    args = [_mpc(a) for a in op["args"]]
    x, y = _mpc(op["x"]), _mpc(op["y"])
    if op["dir"] == "left":
        # left sum of f over [x, y] = right sum of f(-nu) over [-y, -x]
        if fam == "recip":
            return mp.digamma(-y) - mp.digamma(1 - x)
        if fam == "geom":
            return _right_sum(fam, args, x, y)
        if fam == "gosper_term":
            return -_right_sum(fam, args, -y, -x)
        if fam == "tanh_factor":
            return _right_product(fam, -y, -x)
        raise ValueError(f"no left reference for family {fam!r}")
    if op["mode"] == "prod":
        return _right_product(fam, x, y)
    return _right_sum(fam, args, x, y)


# ---------------------------------------------------------------------------
# CLI operations


def _finite_terms(x, y):
    m = int(mp.nint((y - x).real)) + 1
    if m < 1:
        raise ValueError("finite references need a positive number of terms")
    return [x + j for j in range(m)]


def cli_reference(ref: dict, x, y):
    kind = ref["kind"]
    if kind == "poly":
        return poly_sum([_mpc(c) for c in ref["coeffs"]], x, y)
    if kind == "finite":
        f = {
            "recip": lambda t: 1 / t,
            "log": mp.log,
            "geom:q=0.5": lambda t: mp.power(0.5, t),
            "lnfact": lambda t: mp.loggamma(t + 1),
        }[ref["spec"]]
        return mp.fsum(f(t) for t in _finite_terms(x, y))
    if kind == "geom_prod":
        q = _mpc(ref["q"])
        return mp.exp(mp.log(q) * poly_sum([0, 1], x, y))
    if kind == "finite_prod":
        terms = _finite_terms(x, y)
        if ref["spec"] == "id":
            return mp.fprod(terms)
        a = _mpc(ref["a"])
        return mp.fprod(mp.power(t, a) for t in terms)
    raise ValueError(f"unknown CLI reference kind {kind!r}")


def _cli_bound(argv, flag):
    for a in argv:
        if a.startswith(flag + "="):
            return mp.mpc(complex(a.split("=", 1)[1].replace("i", "j")))
    raise ValueError(f"{flag} missing in {argv}")


def op_reference(op: dict):
    if op["family"] == "cli":
        x, y = _cli_bound(op["argv"], "--from"), _cli_bound(op["argv"], "--to")
        return cli_reference(op["ref"], x, y)
    return engine_reference(op)


# ---------------------------------------------------------------------------
# catalog records


def parse_point(label: str) -> dict:
    """'q=0.1,x=1i' -> {'q': mpc(0.1), 'x': mpc(1j)}; '-' -> {}."""
    if label == "-":
        return {}
    out = {}
    for part in label.split(","):
        k, v = part.split("=", 1)
        out[k] = mp.mpc(complex(v.replace("i", "j")))
    return out


_MIRROR_VALUES = {
    0: lambda: mp.digamma(mp.mpf(-0.5) + 1) - mp.digamma(1),
    1: lambda: mp.digamma(mp.mpf(0.25)) - mp.digamma(mp.mpf(0.75)),
    2: lambda: poly_sum([0, 0, 0, 1], mp.mpf(1), mp.mpf(-0.5)),
    3: lambda: poly_sum([0, 1], mp.mpf(1), mp.mpf(7)),
}


def catalog_reference(ident: str, p: dict):
    """Right-hand side of one catalog record, computed here in mpmath."""
    ln2 = mp.log(2)
    zp1 = mp.zeta(-1, 1, 1)
    if ident == "GEO":
        q, x = p["q"], p["x"]
        return (1 - mp.power(q, x + 1)) / (1 - q)
    if ident == "BINOM":
        return mp.power(1 + p["x"], p["c"])
    if ident == "SERMUL":
        x = p["x"]

        def gs(q):
            q = mp.mpf(q)
            return (q - mp.power(q, x + 1)) / (1 - q)

        return gs(0.5) * gs(0.3)
    if ident == "GAMMA":
        return mp.gamma(p["z"] + 1)
    if ident == "TANH":
        return mp.tanh(mp.pi)
    if ident == "HARM":
        return mp.euler + mp.digamma(p["x"] + 1)
    if ident == "REFL":
        return mp.pi * mp.cot(mp.pi * p["x"])
    if ident == "HURW":
        a, x = p["a"], p["x"]
        return mp.zeta(-a) - mp.zeta(-a, x + 1)
    if ident == "ZHALF":
        a = p["a"]
        return (2 - mp.power(2, -a)) * mp.zeta(-a)
    if ident == "VLNV":
        return -ln2 / 24 - 1.5 * zp1
    if ident == "LNGAM":
        return mp.log(mp.pi) / 2 if p["part"] == 0 else -mp.log(2 * mp.pi) / 2
    if ident == "LEFTP":
        z = p["z"]
        return mp.exp(1j * mp.pi * (z + 1)) * (2 - mp.power(2, -z)) * mp.zeta(-z)
    if ident == "MIRROR":
        return _MIRROR_VALUES[int(p["case"].real)]()
    if ident == "ODDP":
        return mp.mpf(0)
    if ident == "BD":
        x = p["x"]
        return mp.exp(-x - bd_sum(x, mp.mpf(1), mp.mpf(-0.5)))
    if ident == "ZPP":
        return mp.exp(zpp_sum(p["x"], mp.mpf(1), mp.mpf(-0.5)))
    if ident == "G2":
        z = p["z"]
        if z == 0:
            return mp.barnesg(0.5)
        return mp.log(mp.barnesg(z))
    if ident == "XPROD":
        case = int(p["case"].real)
        if case == 0:
            return mp.power(mp.pi / 2, 0.25)
        if case == 1:
            return mp.exp(lognu_lnfact_half())
        return mp.exp(nu_lnfact_sum(mp.mpf(0.25), mp.mpf(-0.25)))
    if ident == "GOSPER":
        # every route approximates minus the fractional sum over [3/4, -3/4]
        return -decaying_sum(_gosper_f(p["b"].real), mp.mpf(0.75), mp.mpf(-0.75))
    raise ValueError(f"no reference for identity {ident!r}")


def _pair(v) -> list[str]:
    v = mp.mpc(v)
    return [mp.nstr(v.real, 25), mp.nstr(v.imag, 25)]


def main() -> int:
    req = json.load(sys.stdin)
    out: dict = {}
    if "ops" in req:
        out["ops"] = {str(op["index"]): _pair(op_reference(op))
                      for op in req["ops"] if op["check"] in ("ref", "known_fail")}
    if "catalog" in req:
        out["catalog"] = {f"{ident}|{label}": _pair(catalog_reference(ident, parse_point(label)))
                          for ident, label in req["catalog"]}
        out["catalog_tol"] = CATALOG_TOL
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
