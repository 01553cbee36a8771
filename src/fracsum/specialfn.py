"""Reference special functions for closed-form identity values.

Everything here is double precision and complex-capable, with numpy as the
only dependency: log-Gamma (Lanczos with reflection, elementwise on a
complex numpy array so a summand's whole orbit is one call), digamma and
polygamma, the Hurwitz zeta function and its first and second s-derivatives
(Euler-Maclaurin, differentiated analytically in s), Riemann zeta wrappers,
and named constants stored as high-precision decimal literals.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, PoleError
from .polycore import bernoulli

__all__ = [
    "EulerMaclaurinParams",
    "DEFAULT_EM_PARAMS",
    "Constants",
    "CONSTANTS",
    "log_gamma",
    "digamma",
    "polygamma",
    "hurwitz_zeta",
    "hurwitz_zeta_sderiv",
    "riemann_zeta",
    "riemann_zeta_sderiv",
]

# Lanczos approximation, g = 7, 9 terms: relative error below 1e-13 on the
# right half plane, which reflection then carries everywhere.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# B_2k as doubles for the digamma and polygamma asymptotic series and the
# Euler-Maclaurin corrections; exact rational table keeps the conversion
# correctly rounded.
_B2K = tuple(float(b) for b in bernoulli(32)[::2])


def _is_nonpositive_int(z: complex | np.ndarray) -> bool | np.ndarray:
    """True where z is a pole of Gamma; elementwise on numpy arrays."""
    return (z.imag == 0.0) & (z.real <= 0.0) & (z.real % 1.0 == 0.0)


def _log_sin_pi(z: np.ndarray) -> np.ndarray:
    """log sin(pi z), continued analytically off the real axis, elementwise.

    On the upper half plane sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 i pi z});
    the principal log of the last factor is continuous there, which makes the
    whole expression the continuation matching lim from Im z > 0 on the real
    axis. The lower half plane follows by conjugate symmetry.
    """
    lower = z.imag < 0.0
    u = np.where(lower, z.conj(), z)
    v = (
        0.5j * math.pi
        - math.log(2.0)
        - 1j * math.pi * u
        + np.log(1.0 - np.exp(2j * math.pi * u))
    )
    return np.where(lower, v.conj(), v)


def log_gamma(z: complex | np.ndarray) -> complex | np.ndarray:
    """Principal-branch log Gamma, elementwise on a complex numpy array.

    Lanczos approximation on Re z >= 1/2, reflection through log sin(pi z)
    otherwise. Accurate to at least 12 significant digits for |z| <= 50.

    Args:
        z: a complex numpy array (or a scalar) holding no pole of Gamma.

    Returns:
        A complex array of z's shape; a Python complex for a scalar z.

    Raises:
        PoleError: some element of z is a nonpositive integer.
    """
    scalar = np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    pole = _is_nonpositive_int(z)
    if pole.any():
        bad = complex(z[pole][0])
        raise PoleError(f"log_gamma pole at z={bad}", bad)
    refl = z.real < 0.5
    w = np.where(refl, 1.0 - z, z)
    wm1 = w - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, 9):
        acc = acc + _LANCZOS_C[k] / (wm1 + k)
    t = w + _LANCZOS_G - 0.5
    out = _HALF_LOG_TWO_PI + (w - 0.5) * np.log(t) - t + np.log(acc)
    if refl.any():
        out[refl] = math.log(math.pi) - _log_sin_pi(z[refl]) - out[refl]
    return complex(out[0]) if scalar else out


def digamma(z: complex) -> complex:
    """Digamma psi(z) to >= 10 significant digits for |z| <= 50.

    Reflection for Re z < 1/2, recurrence lift to Re z >= 16, then the
    asymptotic series ln z - 1/(2z) - sum B_2k/(2k z^{2k}).

    Raises:
        PoleError: z is a nonpositive integer.
    """
    z = complex(z)
    if _is_nonpositive_int(z):
        raise PoleError(f"digamma pole at z={z}", z)
    if z.real < 0.5:
        return digamma(1.0 - z) - math.pi / cmath.tan(math.pi * z)
    shift = 0j
    while z.real < 16.0:
        shift -= 1.0 / z
        z += 1.0
    inv2 = 1.0 / (z * z)
    acc = cmath.log(z) - 0.5 / z
    p = inv2
    for k in range(1, 9):
        acc -= _B2K[k] / (2.0 * k) * p
        p *= inv2
    return acc + shift


def polygamma(m: int, z: complex) -> complex:
    """Polygamma psi^(m)(z) for m in 0..3.

    m = 0 is digamma. For m = 1..3 the asymptotic series, cut after the
    B_16 term, is summed with no recurrence lift or reflection. It is
    accurate to about one ulp for |z| >= 16 with Re z >= 0, which covers
    the engine's tail centers (64 and up), and loses digits as |z| shrinks
    (1e-9 relative for m = 3 at z = 5) or z nears the negative real axis.

    Raises:
        ParameterError: m outside 0..3.
    """
    if m == 0:
        return digamma(z)
    t = complex(z)
    if m == 1:
        # 1/t + 1/(2 t^2) + sum B_2k / t^{2k+1}
        acc = 1.0 / t + 0.5 / (t * t)
        p = 1.0 / (t * t * t)
        for k in range(1, 9):
            acc += _B2K[k] * p
            p /= t * t
        return acc
    if m == 2:
        acc = -1.0 / (t * t) - 1.0 / (t * t * t)
        p = 1.0 / (t * t * t * t)
        for k in range(1, 9):
            acc -= (2 * k + 1) * _B2K[k] * p
            p /= t * t
        return acc
    if m == 3:
        acc = 2.0 / (t * t * t) + 3.0 / (t * t * t * t)
        p = 1.0 / (t * t * t * t * t)
        for k in range(1, 9):
            acc += (2 * k + 1) * (2 * k + 2) * _B2K[k] * p
            p /= t * t
        return acc
    raise ParameterError(f"polygamma order must be in 0..3, got {m}")


@dataclass(frozen=True)
class EulerMaclaurinParams:
    """Tuning knobs for the Euler-Maclaurin Hurwitz zeta evaluation.

    direct_terms is the cap M on explicitly summed series terms;
    correction_order K is the number of Bernoulli correction terms (even
    indices up to 2K).
    """

    direct_terms: int = 32
    correction_order: int = 10

    def __post_init__(self):
        if self.direct_terms < 8:
            raise ParameterError(f"direct_terms must be >= 8, got {self.direct_terms}")
        if not 1 <= self.correction_order <= 15:
            raise ParameterError(
                f"correction_order must be in [1, 15], got {self.correction_order}"
            )


DEFAULT_EM_PARAMS = EulerMaclaurinParams()

# For Re s < 0 the direct terms grow like (M+x)^{|s|} while the analytically
# continued value can be tiny, so summing all M terms cancels catastrophically
# in doubles. The Bernoulli tail needs no large expansion point there; lifting
# Re x to ~4 keeps every intermediate small. Measured worst case over the
# catalog domain: 5e-11 relative (vs 3e-7 with the full M).
_NEG_S_LIFT_TARGET = 4.0


def _hurwitz_em(s: complex, x: complex, b: int, params: EulerMaclaurinParams) -> complex:
    if s == 1.0:
        raise PoleError("hurwitz zeta pole at s=1", s)
    if x.real <= 0.0:
        raise DomainError(f"hurwitz zeta requires Re x > 0, got x={x}", x)
    M, K = params.direct_terms, params.correction_order
    if s.real < 0.0:
        M = min(M, max(0, math.ceil(_NEG_S_LIFT_TARGET - x.real)))
    tot = 0j
    for nu in range(M):
        lw = cmath.log(nu + x)
        tot += (-lw) ** b * cmath.exp(-s * lw)
    A = M + x
    lA = cmath.log(A)
    boundary = cmath.exp((1.0 - s) * lA)  # A^{1-s}
    half = 0.5 * cmath.exp(-s * lA)  # (1/2) A^{-s}
    d = s - 1.0
    if b == 0:
        tot += boundary / d + half
    elif b == 1:
        tot += -boundary * (lA / d + 1.0 / (d * d)) - half * lA
    else:
        tot += boundary * (lA * lA / d + 2.0 * lA / (d * d) + 2.0 / (d * d * d)) + half * lA * lA
    # Bernoulli corrections B_2k/(2k)! (s)_{2k-1} A^{-s-2k+1}. The rising
    # factorial and its first two s-derivatives advance by the product rule,
    # which stays finite at the negative integers where the factorial itself
    # terminates the series.
    Apow = cmath.exp((-s - 1.0) * lA)
    Ainv2 = 1.0 / (A * A)
    r, r1, r2 = 1.0 + 0j, 0j, 0j
    j = 0
    for k in range(1, K + 1):
        while j <= 2 * k - 2:
            r, r1, r2 = r * (s + j), r1 * (s + j) + r, r2 * (s + j) + 2.0 * r1
            j += 1
        ck = _B2K[k] / math.factorial(2 * k)
        if b == 0:
            tot += ck * r * Apow
        elif b == 1:
            tot += ck * (r1 - r * lA) * Apow
        else:
            tot += ck * (r2 - 2.0 * r1 * lA + r * lA * lA) * Apow
        Apow *= Ainv2
    return tot


def hurwitz_zeta(
    s: complex, x: complex, params: EulerMaclaurinParams = DEFAULT_EM_PARAMS
) -> complex:
    """Hurwitz zeta(s, x) = sum_{nu>=0} (nu+x)^{-s}, analytically continued.

    Euler-Maclaurin: direct terms, boundary terms, and Bernoulli corrections
    up to order 2K. At least 10 significant digits on the identity catalog's
    domain; accuracy degrades toward deeply negative non-integer Re s where
    the continued value itself nearly cancels (see module notes).

    Args:
        s: exponent, s != 1.
        x: shift with Re x > 0.
        params: Euler-Maclaurin truncation parameters.

    Raises:
        PoleError: s = 1.
        DomainError: Re x <= 0.
    """
    return _hurwitz_em(complex(s), complex(x), 0, params)


def hurwitz_zeta_sderiv(
    b: int, s: complex, x: complex, params: EulerMaclaurinParams = DEFAULT_EM_PARAMS
) -> complex:
    """b-th s-derivative of Hurwitz zeta, b in {1, 2}.

    Obtained by differentiating every Euler-Maclaurin term analytically in s:
    the direct terms contribute (-ln(nu+x))^b (nu+x)^{-s}, the boundary and
    Bernoulli terms are differentiated in closed form. At least 8 significant
    digits on the catalog domain.

    Raises:
        ParameterError: b not in {1, 2}.
        PoleError / DomainError: as hurwitz_zeta.
    """
    if b not in (1, 2):
        raise ParameterError(f"derivative order must be 1 or 2, got {b}")
    return _hurwitz_em(complex(s), complex(x), b, params)


def riemann_zeta(s: complex, params: EulerMaclaurinParams = DEFAULT_EM_PARAMS) -> complex:
    """Riemann zeta(s) = hurwitz_zeta(s, 1)."""
    return hurwitz_zeta(s, 1.0, params)


def riemann_zeta_sderiv(
    b: int, s: complex, params: EulerMaclaurinParams = DEFAULT_EM_PARAMS
) -> complex:
    """b-th derivative of Riemann zeta, b in {1, 2}."""
    return hurwitz_zeta_sderiv(b, s, 1.0, params)


@dataclass(frozen=True)
class Constants:
    """Named constants used by closed forms, parsed from decimal literals.

    These are inputs to the identity checks, not computed artifacts, so they
    are pinned as >= 20 digit strings rather than produced by the functions
    above.
    """

    euler_gamma: float
    stieltjes_gamma1: float
    catalan_G: float
    zeta_prime_minus1: float

    def __post_init__(self):
        if not 0.5772 < self.euler_gamma < 0.5773:
            raise ParameterError("euler_gamma literal out of range")
        if not -0.0729 < self.stieltjes_gamma1 < -0.0728:
            raise ParameterError("stieltjes_gamma1 literal out of range")
        if not 0.9159 < self.catalan_G < 0.9160:
            raise ParameterError("catalan_G literal out of range")


# The gamma1 literal is stored negative (the standard value); quoted decimal
# expansions sometimes omit the sign, and the catalog's exotic-product report
# records which sign the identity itself certifies.
CONSTANTS = Constants(
    euler_gamma=float("0.57721566490153286060651209008240243104"),
    stieltjes_gamma1=float("-0.072815845483676724860586375874901319138"),
    catalan_G=float("0.91596559417721901505460351493238411077"),
    zeta_prime_minus1=float("-0.16542114370045092921391966024278064276"),
)
