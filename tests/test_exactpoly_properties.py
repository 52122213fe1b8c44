"""Ring laws of Polynomial, the canonical form of every result, the
antiderivative and evaluation against their definitions, the
reflection-parts round trip, reflection against the Taylor shift, the
parse_rational / format_rational round trip, and the renderers against
their all-Fraction forms, by property.

hypothesis is a test-only dependency: without it this module is skipped.
"""
import json
from fractions import Fraction

import pytest

from fubinipoly.exactpoly import (Polynomial, exact, format_rational, format_value, json_value,
                                  parse_rational)

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
@given(polys)
def test_antiderivative_is_a_canonical_inverse_of_derivative(f):
    anti = f.antiderivative()
    assert anti.derivative() == f
    assert anti.coefficient(0) == 0
    _assert_canonical(anti)
    for i, c in enumerate(f.coefficients, 1):
        # an entry c/i that divides exactly is an int, any other a Fraction
        assert type(anti.coefficient(i)) is (int if Fraction(c, i).denominator == 1 else Fraction)


def _horner_reference(f, point):
    # Horner over Fractions, one operation at a time.
    acc = 0
    for c in reversed(f.coefficients):
        acc = acc * point + c
    return acc


# Points p/q on both sides of |p| = q, with 0 and +-1 (as ints and as
# Fractions) drawn often.
points = st.one_of(st.sampled_from([0, 1, -1, Fraction(0), Fraction(1), Fraction(-1)]),
                   st.integers(-50, 50),
                   st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50)))
wide_polys = st.lists(st.one_of(st.integers(-10 ** 30, 10 ** 30),
                                st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                                          st.integers(1, 10 ** 6))),
                      max_size=12).map(Polynomial)


@PROPERTY
@given(st.one_of(polys, wide_polys), points)
def test_eval_matches_fraction_horner_in_value_and_type(f, x):
    for g in (f, f.antiderivative()):
        value, expected = g(x), _horner_reference(g, x)
        assert value == expected and type(value) is type(expected), g


def _from_reflection_parts(a, b, alpha):
    # A(u) + x B(u) with u = x^2 - 2 alpha x, by Horner's scheme in u on the
    # terms A_k + x B_k.
    u = Polynomial([0, -2 * alpha, 1])
    acc = Polynomial.zero()
    for k in reversed(range(max(len(a.coefficients), len(b.coefficients)))):
        acc = acc * u + Polynomial([a.coefficient(k), b.coefficient(k)])
    return acc


@PROPERTY
@given(polys, scalars)
def test_reflection_parts_round_trip(f, alpha):
    # f = A(u) + x B(u) with u = x^2 - 2 alpha x, and the split is unique
    # because B(u) has even and x B(u) odd degree in x.
    a, b = f.reflection_parts(alpha)
    assert _from_reflection_parts(a, b, alpha) == f
    _assert_canonical(a, b)


def _reflect_by_taylor_shift(f, alpha):
    # A Taylor shift by s = 2 alpha gives h(x) = f(x + s) in O(d^2) in-place
    # steps c[j] += s c[j+1] (Horner's scheme applied d times; von zur Gathen
    # & Gerhard, ISSAC 1997); then f(2 alpha - x) = h(-x) negates the odd
    # coefficients.
    s = 2 * alpha
    c = list(f.coefficients)
    d = len(c) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            c[j] += s * c[j + 1]
    c[1::2] = [-v for v in c[1::2]]
    return Polynomial(c)


# Half-integer axes, where the parts are integral for integral f, and others.
axes = st.one_of(st.sampled_from([0, 1, -1, Fraction(-1, 2), Fraction(-3, 2), 2,
                                  Fraction(1, 3), Fraction(5, 7)]), scalars)


@PROPERTY
@given(polys, axes)
def test_reflect_about_matches_the_taylor_shift(f, alpha):
    # reflect_about substitutes 2 alpha - x by Horner's scheme; the Taylor
    # shift is an independent route to the same polynomial, coefficient
    # types included.
    g, reference = f.reflect_about(alpha), _reflect_by_taylor_shift(f, alpha)
    assert g == reference
    assert [type(c) for c in g] == [type(c) for c in reference]
    _assert_canonical(g)


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


# The renderers as they were when every scalar went through a Fraction: the
# oracle that the int fast paths must reproduce.
def _fraction_format_rational(value):
    return str(Fraction(exact(value)))


def _fraction_format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, Fraction)):
        return _fraction_format_rational(value)
    if isinstance(value, Polynomial):
        return "[" + ", ".join(_fraction_format_rational(c) for c in value.coefficients) + "]"
    if isinstance(value, tuple):
        return "(" + ", ".join(_fraction_format_value(v) for v in value) + ")"
    return str(value)


def _fraction_json_value(value):
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else _fraction_format_rational(value)
    if isinstance(value, Polynomial):
        return [_fraction_json_value(v) for v in value]
    return value


exact_scalars = st.one_of(st.booleans(), big_rationals)
exact_values = st.one_of(
    exact_scalars,
    st.lists(st.integers(), max_size=7).map(Polynomial),
    st.lists(big_rationals, max_size=7).map(Polynomial),
    st.tuples(exact_scalars, st.lists(big_rationals, max_size=3).map(Polynomial)))


@PROPERTY
@given(exact_values)
def test_renderers_match_their_fraction_forms(value):
    if not isinstance(value, (Polynomial, tuple)):
        assert format_rational(value) == str(Fraction(value)) == _fraction_format_rational(value)
    assert format_value(value) == _fraction_format_value(value)
    # json.dumps tells true from 1, which == does not.  The CLI writes
    # scalars and polynomials as JSON, never tuples.
    if not isinstance(value, tuple):
        assert json.dumps(json_value(value)) == json.dumps(_fraction_json_value(value))
