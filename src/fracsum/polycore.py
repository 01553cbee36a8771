"""Exact summation of polynomials with arbitrary complex bounds.

The central construction: every polynomial p has a unique antidifference P
with P(0) = 0 and P(z) - P(z-1) = p(z) identically. Declaring

    sum_{nu=x}^{y} p(nu) := P(y) - P(x-1)

extends classical summation to arbitrary complex bounds while keeping the
recurrence and translation properties of ordinary sums. P is assembled per
monomial from the Faulhaber expansion in Bernoulli numbers.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ParameterError

if TYPE_CHECKING:  # imported where used: fractions imports decimal, a sum needs neither
    from fractions import Fraction

__all__ = [
    "Polynomial",
    "bernoulli",
    "antidifference",
    "poly_sum",
    "MAX_DEGREE",
]

# Coefficient growth in the Faulhaber expansion destroys double accuracy
# beyond this degree; refuse rather than return garbage.
MAX_DEGREE = 64


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial with complex coefficients, ascending powers.

    The empty tuple is the zero polynomial; its degree is -inf by the usual
    convention, so degree arithmetic (deg P = deg p + 1) stays uniform.
    """

    coeffs: tuple[complex, ...]

    @staticmethod
    def of(*coeffs: complex) -> "Polynomial":
        """Build from ascending coefficients, dropping trailing zeros."""
        cs = [complex(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Polynomial(tuple(cs))

    @staticmethod
    def monomial(degree: int) -> "Polynomial":
        if degree < 0:
            raise ParameterError(f"monomial degree must be >= 0, got {degree}")
        return Polynomial.of(*([0.0] * degree + [1.0]))

    @property
    def degree(self) -> float:
        return len(self.coeffs) - 1 if self.coeffs else -math.inf

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc


def bernoulli(K: int) -> tuple[Fraction, ...]:
    """Bernoulli numbers B_0..B_K as exact rationals, convention B_1 = +1/2.

    With this sign, Faulhaber's formula gives Sum_{nu=1}^{n} nu^d directly
    (no off-by-one against the P(0) = 0 normalization). Uses the recurrence
    sum_{j=0}^{m} C(m+1,j) B_j = m+1 (valid for the B_1 = +1/2 convention),
    solved in exact rational arithmetic; the recurrence is catastrophically
    ill-conditioned in floating point.

    Args:
        K: highest index, 0 <= K <= 64.

    Returns:
        Tuple of length K+1.

    Raises:
        ParameterError: K outside [0, 64].
    """
    if not 0 <= K <= MAX_DEGREE:
        raise ParameterError(f"bernoulli index bound must be in [0, {MAX_DEGREE}], got {K}")
    from fractions import Fraction

    vals = [Fraction(1)]
    for m in range(1, K + 1):
        acc = Fraction(m + 1)
        for j in range(m):
            acc -= math.comb(m + 1, j) * vals[j]
        vals.append(acc / (m + 1))
    return tuple(vals)


@functools.cache
def _faulhaber_row(d: int) -> tuple[tuple[int, float], ...]:
    """Nonzero (power, coefficient) pairs of the antidifference of z^d.

    Each coefficient is the correctly rounded double of its exact rational
    value; rows are built once per degree, at most MAX_DEGREE + 1 of them.
    """
    from fractions import Fraction

    # P_d(z) = (1/(d+1)) sum_{j=0}^{d} C(d+1,j) B_j z^{d+1-j}; no constant
    # term, so P_d(0) = 0 automatically.
    b = bernoulli(d)
    return tuple(
        (d + 1 - j, float(Fraction(math.comb(d + 1, j), d + 1) * b[j]))
        for j in range(d + 1)
        if b[j]
    )


def antidifference(p: Polynomial) -> Polynomial:
    """The unique P with P(0) = 0 and P(z) - P(z-1) = p(z) identically.

    deg P = deg p + 1; the zero polynomial maps to itself.

    Raises:
        ParameterError: deg p > 64.
    """
    if not p.coeffs:
        return p
    d = len(p.coeffs) - 1
    if d > MAX_DEGREE:
        raise ParameterError(f"polynomial degree {d} exceeds cap {MAX_DEGREE}")
    acc = [0j] * (d + 2)
    for k, ck in enumerate(p.coeffs):
        if ck == 0:
            continue
        for idx, q in _faulhaber_row(k):
            acc[idx] += ck * q
    return Polynomial.of(*acc)


def poly_sum(p: Polynomial, x: complex, y: complex) -> complex:
    """Fractional sum of a polynomial: P(y) - P(x-1) with P = antidifference(p)."""
    P = antidifference(p)
    return P(complex(y)) - P(complex(x) - 1)
