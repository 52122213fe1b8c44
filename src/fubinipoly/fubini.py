"""The polynomial families themselves.

Two notations used throughout docs and check descriptions:

* ``F_n(x) = sum_{v=1..n} SF(n,v) x^v`` is the n-th Fubini polynomial;
  F_n(1) is the n-th ordered Bell number.
* ``Fhat_n(x) = sum_{v=1..n} SF(n,v) H_v x^v`` is its harmonic-weighted
  variant.

Each family has a direct constructor (straight from the coefficient
definition) and a recurrence constructor; the pair is the library's core
self-validation mechanism and both are public API.  The connection
polynomials lambda(n, nu) expand Fhat_n in the F-basis:
``Fhat_n = sum_nu lambda(n,nu) * F_nu``.
"""
from __future__ import annotations

from fractions import Fraction

from .combinat import MemoTable, bernoulli, bernoulli_poly, binomial_rat, harmonic, sf_row
from .exactpoly import Polynomial, Rational

_X = Polynomial.x()
_X2_PLUS_X = Polynomial([0, 1, 1])


def _require_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")


def fubini_direct(n: int) -> Polynomial:
    """F_n straight from the definition: coefficient of x^v is SF(n, v)."""
    _require_positive(n)
    return Polynomial(sf_row(n))


def fubini_rec(n: int) -> Polynomial:
    """F_n built from F_1 = x via F_{m+1} = (x^2+x) F_m' + x F_m."""
    _require_positive(n)
    f = _X
    for _ in range(n - 1):
        f = _X2_PLUS_X * f.derivative() + _X * f
    return f


def hfubini_direct(n: int) -> Polynomial:
    """Fhat_n straight from the definition: coefficient of x^v is SF(n, v) * H_v."""
    _require_positive(n)
    row = sf_row(n)
    return Polynomial([0] + [row[v] * harmonic(v) for v in range(1, n + 1)])


def hfubini_rec(n: int) -> Polynomial:
    """Fhat_n built from Fhat_1 = x via
    Fhat_{m+1} = (x^2+x) Fhat_m' + x Fhat_m + x F_m."""
    _require_positive(n)
    f = _X
    h = _X
    for _ in range(n - 1):
        h = _X2_PLUS_X * h.derivative() + _X * h + _X * f
        f = _X2_PLUS_X * f.derivative() + _X * f
    return h


def _lambda_row(prev: tuple, n: int) -> tuple:
    # lambda(n, nu) = (x^2+x) * lambda(n-1, nu)' + lambda(n-1, nu-1) + x * [nu == n-1]
    def entry(nu: int) -> Polynomial:
        lam = prev[nu - 1] if nu < n else Polynomial.zero()
        lam_below = prev[nu - 2] if nu >= 2 else Polynomial.zero()
        out = _X2_PLUS_X * lam.derivative() + lam_below
        if nu == n - 1:
            out = out + _X
        return out

    return tuple(entry(nu) for nu in range(1, n + 1))


# Row n holds lambda(n, 1) .. lambda(n, n); the base is lambda(1, 1) = 1.
# Every entry has nonnegative integer coefficients and degree n - nu.
lambda_table = MemoTable([(), (Polynomial.one(),)], _lambda_row)


def lambda_poly(n: int, nu: int) -> Polynomial:
    """Connection polynomial lambda(n, nu); zero for nu outside 1..n."""
    _require_positive(n)
    if nu < 1 or nu > n:
        return Polynomial.zero()
    return lambda_table[n][nu - 1]


def psi_poly(n: int) -> Polynomial:
    """The combination sum_{v=1..n} SF(n,v) ((v-1) H_v + (n-1)) x^v, which
    vanishes at x = -1/2 for odd n."""
    _require_positive(n)
    row = sf_row(n)
    return Polynomial([0] + [row[v] * ((v - 1) * harmonic(v) + (n - 1))
                             for v in range(1, n + 1)])


def remainder_R(n: int) -> Polynomial:
    """The tail sum_{v=1..n-2} lambda(n,v) F_v left after splitting off the
    top two terms of the lambda-expansion of Fhat_n; zero for n = 2."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    total = Polynomial.zero()
    for v in range(1, n - 1):
        total = total + lambda_poly(n, v) * fubini_direct(v)
    return total


def power_sum_poly(n: int) -> Polynomial:
    """The degree-(n+1) polynomial with S_n(m) = sum_{v=0..m-1} v^n at
    integer points, realized as (B_{n+1}(x) - B_{n+1}) / (n+1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (bernoulli_poly(n + 1) - bernoulli(n + 1)) * Fraction(1, n + 1)


def power_sum_gn(n: int, x: Rational) -> Fraction:
    """The same power sum evaluated through the finite-difference route
    S_n(x) = sum_{k=0..n} SF(n,k) C(x, k+1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    row = sf_row(n)
    total = Fraction(0)
    coeff = binomial_rat(x, 1)
    for k in range(n + 1):
        total += row[k] * coeff
        coeff = coeff * (x - (k + 1)) / (k + 2)  # C(x,k+2) from C(x,k+1)
    return total
