"""Differential tests against sympy, an independent implementation of the
Stirling numbers of the second kind, the Bernoulli numbers and the
Bernoulli polynomials.  sympy is a test-only dependency; without it these
tests are skipped.

sympy's ``bernoulli(1)`` is +1/2, while this package uses B_1 = -1/2 (the
convention of the paper and of B_n = B_n(0)).  The two agree on every other
B_n, and sympy's ``bernoulli(n, x)`` is the usual B_n(x) with B_1(x) = x - 1/2.
"""
from fractions import Fraction

import pytest

from fubinipoly.combinat import bernoulli, bernoulli_poly, stirling2

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import stirling  # noqa: E402

N_MAX = 60


def _fraction(value):
    rational = sympy.Rational(value)
    return Fraction(int(rational.p), int(rational.q))


def test_stirling2_matches_sympy():
    for n in range(N_MAX + 1):
        assert [stirling2(n, k) for k in range(n + 1)] == [int(stirling(n, k)) for k in range(n + 1)], n


def test_bernoulli_matches_sympy_apart_from_the_sign_of_b1():
    assert bernoulli(1) == Fraction(-1, 2) == -_fraction(sympy.bernoulli(1))
    for n in [0] + list(range(2, N_MAX + 1)):
        assert bernoulli(n) == _fraction(sympy.bernoulli(n)), n


def test_bernoulli_poly_matches_sympy():
    x = sympy.Symbol("x")
    for n in range(N_MAX + 1):
        want = [_fraction(c) for c in reversed(sympy.Poly(sympy.bernoulli(n, x), x).all_coeffs())]
        assert list(bernoulli_poly(n).coefficients) == want, n
