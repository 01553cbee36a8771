"""Reference special functions for closed-form identity values.

Everything here is double precision and complex-capable, with numpy as the
only dependency: log-Gamma, elementwise on a numpy array so a summand's whole
orbit is one call (it stays real on a float array where it is real), and
digamma on one complex number, each a recurrence lift into an asymptotic
series (Stirling's for ln Gamma),
the Hurwitz zeta function and its first two s-derivatives in one function,
Riemann's zeta at its default x = 1 (Euler-Maclaurin with fixed truncation,
differentiated analytically in s), and named constants stored as
high-precision decimal literals.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, PoleError

__all__ = [
    "Constants",
    "CONSTANTS",
    "log_gamma",
    "digamma",
    "hurwitz_zeta",
]

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# B_2k, k = 0..16, as doubles for the asymptotic series and the
# Euler-Maclaurin corrections. Written as exact ratios of integers below 2^53,
# each a correctly rounded double, the same as float(polycore.bernoulli(32)[2k]),
# which a test checks; computing them here would make every import pay for
# exact rational arithmetic.
_B2K = (
    1.0, 1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
    -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
    -236364091 / 2730, 8553103 / 6, -23749461029 / 870,
    8615841276005 / 14322, -7709321041217 / 510,
)

# Stirling's series for ln Gamma in Horner order: B_2k / (2k (2k - 1)), k = 10..1.
_STIRLING = tuple(_B2K[k] / (2 * k * (2 * k - 1)) for k in range(10, 0, -1))


def _check_poles(z: np.ndarray) -> None:
    """Raise PoleError at a nonpositive integer of z, a pole of Gamma."""
    cand = z.real <= 0.0
    if np.count_nonzero(cand):  # the fractional-part test only where it can hold
        cand = z[cand & (z.imag == 0.0)]
        poles = cand[cand.real % 1.0 == 0.0]
        if poles.size:
            raise PoleError(f"log_gamma pole at z={complex(poles[0])}", complex(poles[0]))


def _lift(w: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
    """(w + m, sum_{j<m} ln(w + j)) elementwise, m the fewest unit steps to
    Re(w + m) >= 6: one pass per step over the elements still below 6, so
    memory does not grow with |Re w|. (w, 0.0) if none is below."""
    below = w.real < 6.0
    if not np.count_nonzero(below):
        return w, 0.0
    u, w, lift = w[below], w.copy(), np.zeros_like(w)
    acc, idx = np.zeros_like(u), np.arange(u.size)
    while idx.size:
        v = u[idx]
        acc[idx] += np.log(v)
        u[idx] = v = v + 1.0
        idx = idx[v.real < 6.0]
    w[below], lift[below] = u, acc
    return w, lift


def _log_sin_pi(z: np.ndarray) -> np.ndarray:
    """log sin(pi z), continued analytically off the real axis, elementwise.

    On the upper half plane sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 i pi z});
    the principal log of the last factor is continuous there, which makes the
    whole expression the continuation matching lim from Im z > 0 on the real
    axis. The lower half plane follows by conjugate symmetry. The last factor
    is 1-periodic in z, so it is formed at z minus its nearest integer with
    expm1: next to the integers both the phase 2 pi Re z and 1 - e^{...}
    would otherwise cancel away the digits.
    """
    lower = z.imag < 0.0
    u = np.where(lower, z.conj(), z)
    v = (
        0.5j * math.pi
        - math.log(2.0)
        - 1j * math.pi * u
        + np.log(-np.expm1(2j * math.pi * (u - np.round(u.real))))
    )
    return np.where(lower, v.conj(), v)


def log_gamma(z: complex | np.ndarray) -> complex | np.ndarray:
    """Principal-branch log Gamma, elementwise on a numpy array.

    Reflection through log sin(pi z) for Re z < 1/2. Otherwise the recurrence
    ln Gamma(w) = ln Gamma(w + m) - sum_{j<m} ln(w + j), a sum of principal
    logs (the log of the product would wrap the branch), lifts w to
    Re w >= 6, where Stirling's series through B_20 applies. Against mpmath
    on 12k points with |z| <= 2e4, in both half planes and within 1e-9 of the
    real axis, the worst error is 2.8e-15 relative (absolute where
    |ln Gamma| < 1).

    Args:
        z: a numpy array (or a scalar) holding no pole of Gamma.

    Returns:
        An array of z's shape: float64 for a float64 array whose elements are
        all >= 1/2, where ln Gamma is real, complex otherwise; a Python
        complex for a scalar z.

    Raises:
        PoleError: some element of z is a nonpositive integer.
    """
    scalar = np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z))
    if scalar or z.dtype != np.float64 or not (z >= 0.5).all():
        z = z.astype(complex, copy=False)
    _check_poles(z)
    refl = z.real < 0.5
    any_refl = np.count_nonzero(refl)
    w, lift = _lift(np.where(refl, 1.0 - z, z) if any_refl else z)
    t = 1.0 / w
    t2, series = t * t, _STIRLING[0]
    for c in _STIRLING[1:]:
        series = series * t2 + c
    out = (w - 0.5) * np.log(w) - w + (series * t + _HALF_LOG_TWO_PI) - lift
    if any_refl:
        out[refl] = math.log(math.pi) - _log_sin_pi(z[refl]) - out[refl]
    return complex(out[0]) if scalar else out


def digamma(z: complex) -> complex:
    """Digamma psi(z), to about 1e-14 relative, as a Python complex.

    For Re z < 1/2, reflection psi(z) = psi(1 - z) - pi cot(pi z). Otherwise
    the recurrence psi(z) = psi(z + 1) - 1/z lifts z to Re z >= 16, where the
    asymptotic series ln z - 1/(2z) - sum_k B_2k / (2k z^{2k}) is cut after
    B_16.

    Raises:
        PoleError: z is a nonpositive integer.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real % 1.0 == 0.0:
        raise PoleError(f"digamma pole at z={z}", z)
    if z.real < 0.5:
        return digamma(1.0 - z) - math.pi / cmath.tan(math.pi * z)
    lift = 0.0
    while z.real < 16.0:
        lift += 1.0 / z
        z += 1.0
    acc = cmath.log(z) - 0.5 / z - lift
    inv = 1.0 / z  # squared after inverting: z * z overflows past |z| ~ 1.3e154
    p = inv2 = inv * inv
    for k in range(1, 9):
        acc -= _B2K[k] / (2 * k) * p
        p = p * inv2
    return acc


# Euler-Maclaurin truncation for the Hurwitz zeta: M direct terms, then
# Bernoulli corrections up to B_2K.
_EM_DIRECT_TERMS = 32
_EM_CORRECTION_ORDER = 10

# For Re s < 0 the direct terms grow like (M+x)^{|s|} while the analytically
# continued value can be tiny, so summing all M terms cancels catastrophically
# in doubles. The Bernoulli tail needs no large expansion point there; lifting
# Re x to ~4 keeps every intermediate small. Measured worst case over the
# catalog domain: 5e-11 relative (vs 3e-7 with the full M).
_NEG_S_LIFT_TARGET = 4.0


def hurwitz_zeta(s: complex, x: complex = 1.0, b: int = 0) -> complex:
    """b-th s-derivative of the Hurwitz zeta(s, x) = sum_{nu>=0} (nu+x)^{-s},
    analytically continued; Riemann's zeta(s) at x = 1.

    Euler-Maclaurin: direct terms, boundary terms, and Bernoulli corrections
    up to order 2K, each differentiated analytically in s (the direct terms
    contribute (-ln(nu+x))^b (nu+x)^{-s}). At least 10 significant digits for
    b = 0 and 8 for b = 1, 2 on the identity catalog's domain; accuracy
    degrades toward deeply negative non-integer Re s where the continued
    value itself nearly cancels (see module notes).

    Args:
        s: exponent, s != 1.
        x: shift with Re x > 0.
        b: derivative order in s, 0, 1 or 2.

    Raises:
        ParameterError: b not in {0, 1, 2}.
        PoleError: s = 1.
        DomainError: Re x <= 0.
    """
    if b not in (0, 1, 2):
        raise ParameterError(f"derivative order must be 0, 1 or 2, got {b}")
    s, x = complex(s), complex(x)
    if s == 1.0:
        raise PoleError("hurwitz zeta pole at s=1", s)
    if x.real <= 0.0:
        raise DomainError(f"hurwitz zeta requires Re x > 0, got x={x}", x)
    M, K = _EM_DIRECT_TERMS, _EM_CORRECTION_ORDER
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


# The gamma1 literal is stored negative (the standard value); quoted decimal
# expansions sometimes omit the sign, and the catalog's exotic-product report
# records which sign the identity itself certifies.
CONSTANTS = Constants(
    euler_gamma=float("0.57721566490153286060651209008240243104"),
    stieltjes_gamma1=float("-0.072815845483676724860586375874901319138"),
    catalan_G=float("0.91596559417721901505460351493238411077"),
    zeta_prime_minus1=float("-0.16542114370045092921391966024278064276"),
)
