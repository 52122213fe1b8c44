"""Exact rational scalars and dense univariate polynomials over them.

Scalars are plain ``int`` or :class:`fractions.Fraction`; both are kept in
lowest terms with positive denominator, so equality is structural and every
computation done twice yields the identical value.  Floats are rejected
everywhere: there is no approximate mode in this library.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Union

Rational = Union[int, Fraction]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


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


def format_rational(value: Rational) -> str:
    """Render a scalar as the reduced ``"p/q"`` string, or bare ``"p"`` for integers."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


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


def _coerce(value) -> Rational:
    """Normalize a coefficient: integral Fractions collapse to int, floats are refused."""
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"exact coefficient required (int or Fraction), got {type(value).__name__}")


class Polynomial:
    """Immutable dense polynomial; ``coefficients[i]`` is the coefficient of x^i.

    Trailing zeros are trimmed at construction, so the zero polynomial stores
    an empty tuple and reports ``degree is None``.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[Rational] = ()):
        coeffs = [_coerce(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
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
        if power < 0:
            raise ValueError("power must be nonnegative")
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
        """Exact Horner evaluation."""
        if isinstance(point, float):
            raise TypeError("evaluation point must be exact (int or Fraction)")
        acc: Rational = 0
        for c in reversed(self._coeffs):
            acc = acc * point + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self._coeffs)][1:])

    def antiderivative(self) -> "Polynomial":
        """Antiderivative with zero constant term."""
        return Polynomial([0] + [Fraction(c, i + 1) if isinstance(c, int) else c / (i + 1)
                                 for i, c in enumerate(self._coeffs)])

    def definite_integral(self, lower: Rational, upper: Rational) -> Rational:
        """Exact value of the integral from lower to upper."""
        anti = self.antiderivative()
        return anti(upper) - anti(lower)

    def reflect_about(self, alpha: Rational) -> "Polynomial":
        """The polynomial g with g(x) = f(2*alpha - x), by exact substitution."""
        mirror = Polynomial([2 * alpha, -1])
        result = _ZERO
        power = _ONE
        for i, c in enumerate(self._coeffs):
            if c != 0:
                result = result + power * c
            if i + 1 < len(self._coeffs):
                power = power * mirror
        return result

    def has_nonneg_int_coeffs(self) -> bool:
        """True iff every coefficient is a nonnegative integer (zero qualifies)."""
        return all(isinstance(c, int) and c >= 0 for c in self._coeffs)

    def in_reflection_class(self, alpha: Rational) -> bool:
        """Membership in the reflection class at axis alpha.

        A nonzero member has nonnegative integer coefficients and satisfies
        f(alpha + t) = (-1)^deg(f) * f(alpha - t), decided here as an exact
        coefficient identity (never by sampling).  The zero polynomial is a
        member by convention.  Odd-degree members necessarily vanish at alpha.
        """
        if self.is_zero():
            return True
        if not self.has_nonneg_int_coeffs():
            return False
        sign = -1 if self.degree % 2 else 1
        return self.reflect_about(alpha) == self * sign

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for i in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[i]
            if c == 0:
                continue
            mag = format_rational(c if c > 0 else -c)
            term = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            if term and mag == "1":
                mag = ""
            elif term and "/" in mag:
                mag = f"({mag})"
            body = f"{mag}{term}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({list(self._coeffs)!r})"


_ZERO = Polynomial()
_ONE = Polynomial([1])
_X = Polynomial([0, 1])
