"""Ring laws of Polynomial, the canonical form of every result, the
reflection-parts round trip and product, and the parse_rational /
format_rational round trip, by property.

hypothesis is a test-only dependency: without it this module is skipped.
"""
from fractions import Fraction

import pytest

from fubinipoly.exactpoly import (
    Polynomial,
    format_rational,
    parse_rational,
    reflection_parts_product,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)

# Small denominators, so that sums and products are often integral and the
# collapse of integral Fractions to int is exercised.
scalars = st.one_of(st.integers(-12, 12),
                    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4)))
polys = st.lists(scalars, max_size=7).map(Polynomial)


def _assert_canonical(*results):
    """No integral Fraction and no trailing zero among the coefficients."""
    for f in results:
        cs = f.coefficients
        assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in cs), f
        assert not cs or cs[-1] != 0, f


@PROPERTY
@given(polys, polys, polys)
def test_add_and_mul_are_commutative_and_associative(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    _assert_canonical(f, f + g, f * g, (f + g) + h, (f * g) * h)


@PROPERTY
@given(polys, polys, polys)
def test_mul_distributes_over_add(f, g, h):
    assert f * (g + h) == f * g + f * h
    assert (g + h) * f == g * f + h * f


@PROPERTY
@given(polys, scalars)
def test_negation_and_scalar_mul(f, k):
    assert (f - f).is_zero()
    assert f + (-f) == Polynomial.zero()
    assert f * k == k * f == Polynomial([k]) * f
    _assert_canonical(-f, f - f, f * k, k * f, f + k, k - f)


@PROPERTY
@given(polys, polys)
def test_derivative_obeys_the_product_rule(f, g):
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
    assert (f + g).derivative() == f.derivative() + g.derivative()
    _assert_canonical(f.derivative(), (f * g).derivative())


@PROPERTY
@given(polys, scalars)
def test_reflection_parts_round_trip(f, alpha):
    # f = A(u) + x B(u) with u = x^2 - 2 alpha x, and the split is unique
    # because B(u) has even and x B(u) odd degree in x.
    a, b = f.reflection_parts(alpha)
    assert Polynomial.from_reflection_parts(a, b, alpha) == f
    _assert_canonical(a, b)


@PROPERTY
@given(polys, polys, scalars)
def test_reflection_parts_product_is_the_parts_of_the_product(f, g, alpha):
    got = reflection_parts_product(f.reflection_parts(alpha), g.reflection_parts(alpha), alpha)
    assert got == (f * g).reflection_parts(alpha)


# Any size of numerator and denominator, so that the literal is not limited
# to what a machine word holds.
big_rationals = st.one_of(st.integers(),
                          st.builds(Fraction, st.integers(), st.integers(1, 10 ** 40)))


@PROPERTY
@given(big_rationals)
def test_format_then_parse_is_the_identity(x):
    text = format_rational(x)
    assert parse_rational(text) == x
    assert format_rational(parse_rational(text)) == text
    assert ("/" in text) == (Fraction(x).denominator != 1)


@PROPERTY
@given(st.integers(0, 10 ** 40), st.integers(1, 10 ** 40), st.sampled_from(["", "+", "-"]),
       st.sampled_from(["", " ", "\t", "\n "]))
def test_parse_then_format_gives_the_reduced_literal(p, q, sign, pad):
    signed = -p if sign == "-" else p
    for text, value in ((f"{pad}{sign}{p}/{q}{pad}", Fraction(signed, q)),
                        (f"{pad}{sign}{p}{pad}", Fraction(signed))):
        parsed = parse_rational(text)
        assert parsed == value
        assert format_rational(parsed) == str(value)
        assert parse_rational(format_rational(parsed)) == parsed
