"""Exact rational scalars and dense univariate polynomials over them.

Scalars are plain ``int`` or :class:`fractions.Fraction`; both are kept in
lowest terms with positive denominator, so equality is structural and every
computation done twice yields the identical value.  Floats are rejected
everywhere: there is no approximate mode in this library.
"""
from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Iterator, Optional, Union

Rational = Union[int, Fraction]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_INT_ONLY = frozenset({int})


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or a bare integer literal into an exact Fraction.

    Decimal and exponent forms are rejected on purpose: accepting ``0.1``
    would silently launder a non-representable value into the exact pipeline.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not an exact rational literal (use p/q or an integer): {text!r}")
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def exact(value) -> Rational:
    """The one exactness gate: ``value`` in canonical form, or ``TypeError``.

    An ``int`` (``bool`` included) is returned unchanged, an integral
    ``Fraction`` collapses to its ``int`` and any other ``Fraction`` is
    returned unchanged.  Anything else, such as a float or a string, is
    refused."""
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"exact value required (int or Fraction), got {type(value).__name__}")


def index(value, low: int, high: Optional[int] = None, name: str = "n") -> int:
    """The one index gate: ``value`` as an ``int`` in ``low..high``, or an error.

    ``operator.index`` refuses a float, a ``Fraction`` or a string with
    ``TypeError`` before the caller reads or grows any table.  An index
    below ``low``, or above ``high`` when there is a top, is refused with
    ``ValueError``, worded the same for every index of the library."""
    value = operator.index(value)
    if high is None:
        if value < low:
            raise ValueError(f"{name} must be at least {low}, got {value}")
    elif not low <= value <= high:
        raise ValueError(f"{name} must lie in {low}..{high}, got {value}")
    return value


def int_times(k: int, value: Rational) -> Rational:
    """The product ``k * value`` of an int and an exact scalar, canonical.

    When the denominator q of ``value`` divides k, as it does for k = SF(n, v)
    and ``value`` = H_v, the product is the int (k // q) * numerator, found by
    one divmod and no gcd.  Otherwise it is the Fraction product, so the
    result is exact for any k and ``value``."""
    quotient, remainder = divmod(k, exact(value).denominator)
    if remainder:
        return exact(k * value)
    return quotient * value.numerator


def format_rational(value: Rational) -> str:
    """Render a scalar as the reduced ``"p/q"`` string, or bare ``"p"`` for integers."""
    return str(Fraction(exact(value)))


def format_value(value) -> str:
    """Render an exact value as a self-contained string: a scalar as
    :func:`format_rational`, a polynomial as its coefficient list constant
    term first (``[c0, c1, ...]``), a tuple as ``(a, b, ...)``, a bool as
    ``true``/``false``; anything else by ``str``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, Fraction)):
        return format_rational(value)
    if isinstance(value, Polynomial):
        return "[" + ", ".join(format_rational(c) for c in value.coefficients) + "]"
    if isinstance(value, tuple):
        return "(" + ", ".join(format_value(v) for v in value) + ")"
    return str(value)


def json_value(value):
    """The JSON form of an exact value: an integral scalar as a JSON number,
    any other scalar as its ``"p/q"`` string, a polynomial (coefficients
    constant term first) or tuple as a list of converted entries.  Ints,
    bools and anything else pass through unchanged."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else format_rational(value)
    if isinstance(value, (Polynomial, tuple)):
        return [json_value(v) for v in value]
    return value


class Polynomial:
    """Immutable dense polynomial; ``coefficients[i]`` is the coefficient of x^i.

    Every coefficient passes :func:`exact` at construction, and trailing
    zeros are trimmed, so the zero polynomial stores an empty tuple and
    reports ``degree is None``.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[Rational] = ()):
        coeffs = list(coefficients)
        # type(), not isinstance(c, Fraction): that is a slow ABC check on every
        # int.  An all-int list, the common case, is passed by one C-level scan.
        if not _INT_ONLY.issuperset(map(type, coeffs)):
            for i, c in enumerate(coeffs):
                if type(c) is int:
                    continue
                if type(c) is Fraction:
                    if c.denominator == 1:
                        coeffs[i] = c.numerator
                else:
                    coeffs[i] = exact(c)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    @classmethod
    def zero(cls) -> "Polynomial":
        return _ZERO

    @classmethod
    def one(cls) -> "Polynomial":
        return _ONE

    @classmethod
    def x(cls) -> "Polynomial":
        return _X

    @classmethod
    def monomial(cls, coefficient: Rational, power: int) -> "Polynomial":
        """The polynomial ``coefficient * x**power``."""
        power = index(power, 0, name="power")
        coefficient = exact(coefficient)
        if coefficient == 0:
            return _ZERO
        return cls([0] * power + [coefficient])

    @property
    def coefficients(self) -> tuple:
        return self._coeffs

    @property
    def degree(self):
        """Degree of the polynomial; None for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else None

    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, power: int) -> Rational:
        """Coefficient of x^power, 0 when out of range."""
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return 0

    def __iter__(self) -> Iterator[Rational]:
        return iter(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self._coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return _ZERO
            return Polynomial([c * other for c in self._coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return _ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def __call__(self, point: Rational) -> Rational:
        """Exact Horner evaluation in integers, with one Fraction at the end.

        With point = p/q and the coefficients written as a_i / den over
        their common denominator, :func:`_fold` sums the homogenised
        A = sum_i a_i p^i q^(d-i), so no intermediate value is a Fraction,
        and the value is A / (den q^d).  At p = 0 the value is c_0, found
        without a loop.  At p/q = +-1 the int coefficients are not scaled by
        den: they are folded apart into W, the Fraction numerators alone
        into A, and the value is (W den + A) / den.  The result is an int
        for an all-int polynomial at an int point and for the zero
        polynomial, otherwise a Fraction."""
        exact(point)    # not its canonical form: an integral Fraction point gives a Fraction
        c = self._coeffs
        if not c:
            return 0
        p, q = point.numerator, point.denominator
        all_int = _INT_ONLY.issuperset(map(type, c))
        if p == 0:
            return c[0] if all_int and isinstance(point, int) else Fraction(c[0])
        if all_int:
            whole, den, acc = c, 1, 0
        else:
            den = math.lcm(*(v.denominator for v in c if type(v) is not int))
            if q == 1 and (p == 1 or p == -1):
                # A fold here is two C-level sums, cheaper than scaling the ints
                # by den; elsewhere a second Horner loop would cost more.
                whole = [v if type(v) is int else 0 for v in c]
                part = [0 if type(v) is int else v.numerator * (den // v.denominator) for v in c]
            else:
                whole = ()
                part = [v * den if type(v) is int else v.numerator * (den // v.denominator)
                        for v in c]
            acc = _fold(part, p, q)
        if any(whole):
            acc += _fold(whole, p, q) * den
        if den == 1 and isinstance(point, int):
            return acc
        return Fraction(acc, den * q ** (len(c) - 1))

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self._coeffs)][1:])

    def antiderivative(self) -> "Polynomial":
        """Antiderivative with zero constant term.

        An int coefficient c of x^(i-1) gives c/i as an int when i divides
        it, found by one divmod, and as a Fraction only when it does not."""
        out = [0]
        for i, c in enumerate(self._coeffs, 1):
            if type(c) is int:
                quotient, remainder = divmod(c, i)
                out.append(Fraction(c, i) if remainder else quotient)
            else:
                out.append(c / i)
        return Polynomial(out)

    def definite_integral(self, lower: Rational, upper: Rational) -> Rational:
        """Exact value of the integral from lower to upper."""
        anti = self.antiderivative()
        return anti(upper) - anti(lower)

    def reflect_about(self, alpha: Rational) -> "Polynomial":
        """The polynomial g with g(x) = f(2*alpha - x).

        A Taylor shift by s = 2*alpha gives h(x) = f(x + s) in O(d^2)
        in-place steps c[j] += s*c[j+1] (Horner's scheme applied d times; von
        zur Gathen & Gerhard, ISSAC 1997); then g(x) = h(-x) negates the odd
        coefficients.  At alpha = -1/2 the shift is the integer -1."""
        s = exact(2 * alpha)
        c = list(self._coeffs)
        d = len(c) - 1
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                c[j] += s * c[j + 1]
        c[1::2] = [-v for v in c[1::2]]
        return Polynomial(c)

    def has_nonneg_int_coeffs(self) -> bool:
        """True iff every coefficient is a nonnegative integer (zero qualifies)."""
        return all(isinstance(c, int) and c >= 0 for c in self._coeffs)

    def reflection_parts(self, alpha: Rational) -> "tuple[Polynomial, Polynomial]":
        """The unique pair (A, B) with f(x) = A(u) + x*B(u), u = x^2 - 2*alpha*x.

        The reflection x -> 2*alpha - x fixes u, so f is symmetric about
        alpha exactly when B = 0 and antisymmetric exactly when 2A = s*B,
        where s = -2*alpha.  :meth:`from_reflection_parts` is the inverse.

        At s = 0, A holds the even and B the odd coefficients.  Otherwise
        the substitution x = s*y gives u = s^2 (y^2 + y), and g(y) = f(s*y)
        is divided by y^2 + y again and again.  Written in the coefficients
        e_j = (-1)^j g_j = c_j (-s)^j, each division is one suffix sum: e_0
        is the remainder's constant term, minus the sum of e_1, e_2, ... its
        coefficient of y, and the suffix sums from e_2, e_3, ... on are the
        e_j of the quotient.  The k-th remainder divided by s^(2k), and by
        s^(2k+1), gives A_k and B_k; at alpha = -1/2 (s = 1) nothing is
        divided."""
        s = exact(-2 * alpha)
        c = self._coeffs
        if s == 0:
            return Polynomial(c[0::2]), Polynomial(c[1::2])
        e = list(c)
        if s != 1:
            t = -s
            e = [v * t ** j for j, v in enumerate(e)]
        else:
            e[1::2] = [-v for v in e[1::2]]
        rev = e[::-1]       # e_d, ..., e_0, so each step pops from the end
        a, b = [], []
        while rev:
            a.append(rev.pop())
            rev = list(accumulate(rev))
            b.append(-rev.pop() if rev else 0)
        if s != 1:
            inv = 1 / Fraction(s)
            a = [v * inv ** (2 * k) for k, v in enumerate(a)]
            b = [v * inv ** (2 * k + 1) for k, v in enumerate(b)]
        return Polynomial(a), Polynomial(b)

    @classmethod
    def from_reflection_parts(cls, a: "Polynomial", b: "Polynomial", alpha: Rational) -> "Polynomial":
        """The polynomial A(u) + x*B(u), u = x^2 - 2*alpha*x: the inverse of
        :meth:`reflection_parts`, by Horner's scheme in u on the terms
        A_k + x*B_k."""
        u = cls([0, exact(-2 * alpha), 1])
        acc = _ZERO
        for k in reversed(range(max(len(a._coeffs), len(b._coeffs)))):
            acc = acc * u + cls([a.coefficient(k), b.coefficient(k)])
        return acc

    def in_reflection_class(self, alpha: Rational) -> bool:
        """Membership in the reflection class at axis alpha.

        A nonzero member has nonnegative integer coefficients and satisfies
        f(alpha + t) = (-1)^deg(f) * f(alpha - t), decided here as an exact
        coefficient identity on :meth:`reflection_parts` (never by sampling).
        The zero polynomial is a member by convention.  Odd-degree members
        necessarily vanish at alpha.  With (A, B) the parts and
        s = -2*alpha, a nonzero member with nonnegative integer coefficients
        has B = 0 (even degree) or 2A = s*B (odd degree).
        """
        a, b = self.reflection_parts(alpha)
        if self.is_zero():
            return True
        if not self.has_nonneg_int_coeffs():
            return False
        if self.degree % 2 == 0:
            return b.is_zero()
        return a * 2 == b * exact(-2 * alpha)

    def __repr__(self) -> str:
        return f"Polynomial({list(self._coeffs)!r})"


_ZERO = Polynomial()
_ONE = Polynomial([1])
_X = Polynomial([0, 1])


def _fold(coeffs, p: int, q: int) -> int:
    """The homogenised sum sum_i coeffs[i] p^i q^(d-i), d = len(coeffs) - 1,
    of int coefficients at a point p/q in lowest terms, p != 0.

    Horner's scheme runs from the side whose growing power stays small:
    from the constant term up, acc = acc*q + c_i p^i, when |p| <= q, and
    from the top, acc = acc*p + c_i q^(d-i), otherwise.  At p = +-1 the
    first is Horner's scheme at p*q on the reversed coefficients, times p^d,
    so each step is one multiply by p*q; at +-1 itself (q = 1) the sum is
    the even- and odd-indexed coefficient sums, added or subtracted."""
    if p == 1 or p == -1:
        if q == 1:
            even, odd = sum(coeffs[0::2]), sum(coeffs[1::2])
            return even + odd if p == 1 else even - odd
        acc, t = 0, p * q
        for c in coeffs:
            acc = acc * t + c
        return -acc if p == -1 and len(coeffs) % 2 == 0 else acc
    acc = 0
    if abs(p) <= q:
        p_power = 1     # p^i while folding coefficient i
        for c in coeffs:
            acc = acc * q + c * p_power
            p_power *= p
    else:
        q_power = 1     # q^(d-i) while folding coefficient i
        for c in reversed(coeffs):
            acc = acc * p + c * q_power
            q_power *= q
    return acc

