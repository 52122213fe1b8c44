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
``Fhat_n = sum_nu lambda(n,nu) * F_nu``.  :func:`lambda_poly` serves them
from their closed form over the SF triangle, so this module keeps no memo
table of its own; their recurrence is the oracle that the ``verify`` check
``lambda-expansion`` rolls forward row by row.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .combinat import bernoulli, bernoulli_poly, harmonic, sf_row
from .exactpoly import Polynomial, Rational, exact, index, int_times

_X = Polynomial.x()
_X2_PLUS_X = Polynomial([0, 1, 1])


def fubini_direct(n: int) -> Polynomial:
    """F_n straight from the definition: coefficient of x^v is SF(n, v)."""
    return Polynomial(sf_row(index(n, 1)))


def fubini_rec(n: int) -> Polynomial:
    """F_n built from F_1 = x via F_{m+1} = (x^2+x) F_m' + x F_m."""
    f = _X
    for _ in range(index(n, 1) - 1):
        f = _X2_PLUS_X * f.derivative() + _X * f
    return f


def hfubini_direct(n: int) -> Polynomial:
    """Fhat_n straight from the definition: coefficient of x^v is SF(n, v) * H_v.

    Each coefficient is an int: the denominator of H_v divides lcm(1..v),
    which divides v! and so SF(n, v).  :func:`int_times` finds it by one
    exact division, and keeps the Fraction product for an entry where the
    division leaves a remainder."""
    n = index(n, 1)
    row = sf_row(n)
    return Polynomial([0] + [int_times(row[v], harmonic(v)) for v in range(1, n + 1)])


def hfubini_rec(n: int) -> Polynomial:
    """Fhat_n built from Fhat_1 = x via
    Fhat_{m+1} = (x^2+x) Fhat_m' + x Fhat_m + x F_m."""
    f = _X
    h = _X
    for _ in range(index(n, 1) - 1):
        h = _X2_PLUS_X * h.derivative() + _X * h + _X * f
        f = _X2_PLUS_X * f.derivative() + _X * f
    return h


def lambda_poly(n: int, nu: int) -> Polynomial:
    """Connection polynomial lambda(n, nu); ValueError for nu outside 1..n.

    Served from its closed form: C(n-1, nu-1) (x+1) F_(n-1-nu) for
    nu <= n-2, (n-1) x for nu = n-1 and 1 for nu = n.  Every entry has
    nonnegative integer coefficients and degree n - nu."""
    n = index(n, 1)
    nu = index(nu, 1, n, "nu")
    if nu == n:
        return Polynomial.one()
    if nu == n - 1:
        return Polynomial.monomial(n - 1, 1)
    f = sf_row(n - 1 - nu)
    k = math.comb(n - 1, nu - 1)
    return Polynomial([k * (c + c_below) for c, c_below in zip(f + (0,), (0,) + f)])


def psi_poly(n: int) -> Polynomial:
    """The combination sum_{v=1..n} SF(n,v) ((v-1) H_v + (n-1)) x^v, which
    vanishes at x = -1/2 for odd n, built by :func:`psi_from_hfubini` from
    Fhat_n, which checks n."""
    return psi_from_hfubini(n, hfubini_direct(n))


def psi_from_hfubini(n: int, fhat: Polynomial) -> Polynomial:
    """psi_n from ``fhat`` = Fhat_n: with T_v = SF(n,v) H_v its coefficient
    of x^v, the coefficient of x^v in psi_n is (v-1) T_v + (n-1) SF(n,v)."""
    row = sf_row(n)
    return Polynomial([0] + [(v - 1) * fhat.coefficient(v) + (n - 1) * row[v]
                             for v in range(1, n + 1)])


def remainder_R(n: int) -> Polynomial:
    """The tail sum_{v=1..n-2} lambda(n,v) F_v left after splitting off the
    top two terms of the lambda-expansion of Fhat_n; zero for n = 2."""
    n = index(n, 2)
    total = Polynomial.zero()
    for v in range(1, n - 1):
        total = total + lambda_poly(n, v) * fubini_direct(v)
    return total


def power_sum_poly(n: int) -> Polynomial:
    """The degree-(n+1) polynomial with S_n(m) = sum_{v=0..m-1} v^n at
    integer points, realized as (B_{n+1}(x) - B_{n+1}) / (n+1)."""
    n = index(n, 0)
    return (bernoulli_poly(n + 1) - bernoulli(n + 1)) * Fraction(1, n + 1)


def power_sum_gn(n: int, x: Rational) -> Fraction:
    """The same power sum evaluated through the finite-difference route
    S_n(x) = sum_{k=0..n} SF(n,k) C(x, k+1), always as a Fraction.

    With x = p/q, C(x, k+1) = prod_{i=0..k} (p - i q) / (q^(k+1) (k+1)!), so
    over the common denominator q^(n+1) (n+1)! term k has the integer
    numerator SF(n,k) prod_{i=0..k} (p - i q) q^(n-k) (n+1)!/(k+1)!.  The
    loop adds these up in integers, Horner-fashion: before term k joins,
    the partial sum is multiplied by q (k+1), the ratio of the weights
    q^(n-k) (n+1)!/(k+1)! of terms k-1 and k.  Nothing is divided until the
    one Fraction formed at the end.
    """
    n = index(n, 0)
    x = exact(x)
    p, q = x.numerator, x.denominator
    row = sf_row(n)
    acc = 0
    falling = 1     # prod_{i=0..k} (p - i q)
    for k in range(n + 1):
        falling *= p - k * q
        acc = acc * q * (k + 1) + row[k] * falling
    return Fraction(acc, q ** (n + 1) * math.factorial(n + 1))
