"""Sequence and coefficient transforms.

Sequences are plain tuples of exact scalars indexed from 0; they are kept
deliberately distinct from polynomial coefficient lists so that index-0
conventions never get tangled.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence, Tuple

from .exactpoly import Polynomial, Rational, exact
from .fubini import fubini_direct

RationalSeq = Tuple[Rational, ...]


def binomial_transform(seq: Sequence[Rational]) -> RationalSeq:
    """Alternating binomial transform t_n = sum_{k=0..n} C(n,k) (-1)^k s_k.

    Self-inverse: applying it twice returns the original sequence.  An entry
    that is not an ``int`` or ``Fraction`` is refused before any work.  Entry
    t_n is a Fraction exactly when some entry up to index n is one.

    The entries are scaled to ints over the lcm of their denominators.  With
    the backward difference (d s)_k = s_k - s_(k+1), t_n is the first entry
    of the n-th difference row, so Pascal's rule is applied one row at a
    time by subtraction alone: no binomial coefficient is formed and nothing
    is divided until the one Fraction per entry at the end.
    """
    values = [exact(value) for value in seq]
    den = math.lcm(*(v.denominator for v in values))
    row = [v.numerator * (den // v.denominator) for v in values]
    first_fraction = next((k for k, value in enumerate(seq) if isinstance(value, Fraction)),
                          len(seq))
    out = []
    for n in range(len(row)):
        out.append(row[0] // den if n < first_fraction else Fraction(row[0], den))
        row = list(map(operator.sub, row, row[1:]))
    return tuple(out)


def hadamard(f: Polynomial, g: Polynomial) -> Polynomial:
    """Coefficient-wise product of two polynomials."""
    return Polynomial([a * b for a, b in zip(f.coefficients, g.coefficients)])


def euler_hadamard(f: Polynomial, g: Polynomial) -> Polynomial:
    """The coefficient-wise product computed the long way around: binomial-
    transform f's coefficients, then sum transformed coefficients against
    scaled derivatives of g,

        sum_{v=0..deg g} (-1)^v t_v * g^(v)(x) / v! * x^v.

    Must agree with :func:`hadamard` on every pair; the derivative chain is
    reused across terms so the whole sum is quadratic in the degree.
    """
    if g.is_zero() or f.is_zero():
        return Polynomial.zero()
    n = g.degree
    coeffs = [f.coefficient(v) for v in range(n + 1)]
    transformed = binomial_transform(coeffs)
    result = Polynomial.zero()
    deriv = g
    for v in range(n + 1):
        if transformed[v] != 0:
            scale = Fraction(transformed[v], math.factorial(v))
            if v % 2:
                scale = -scale
            result = result + Polynomial.monomial(scale, v) * deriv
        deriv = deriv.derivative()
    return result


def hfubini_via_derivatives(n: int) -> Polynomial:
    """Fhat_n assembled from the derivatives of F_n:

        Fhat_n(x) = sum_{v=1..n} (-1)^(v+1) F_n^(v)(x) / v! * x^v / v.

    Provided both as public API and as the third independent route to
    Fhat_n (next to the direct sum and the recurrence).

    With c_m = SF(n, m), the coefficient of x^j in F_n^(v)/v! is
    c_(j+v) C(j+v, v), so coefficient m of the sum is read off as
    c_m sum_{v=1..m} (-1)^(v+1) C(m, v) / v, with no harmonic number read.
    Over D = lcm(1..n) the inner sums, for every m at once, are the
    :func:`binomial_transform` of (0, -D/1, ..., -D/n), which applies
    Pascal's rule by subtraction alone; each coefficient is then one exact
    division by D (a Fraction on a remainder).
    """
    coeffs = fubini_direct(n).coefficients
    den = math.lcm(*range(1, len(coeffs)))
    sums = binomial_transform([0] + [-(den // v) for v in range(1, len(coeffs))])
    out = [0]
    for c, s in zip(coeffs[1:], sums[1:]):
        total = c * s
        q, r = divmod(total, den)
        out.append(Fraction(total, den) if r else q)
    return Polynomial(out)
