import random
from fractions import Fraction

import pytest

from fubinipoly.exactpoly import Polynomial, format_rational, format_value, json_value, parse_rational

HALF_NEG = Fraction(-1, 2)


# --- rational literals -------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("3/4", Fraction(3, 4)),
    ("-1/2", Fraction(-1, 2)),
    ("+7", Fraction(7)),
    ("7", Fraction(7)),
    (" 5/10 ", Fraction(1, 2)),
    ("-0", Fraction(0)),
])
def test_parse_rational_accepts_exact_forms(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("text", ["1.5", "0.1", "1e3", "1/0", "1/-2", "", "x", "1 / 2", "--1", "1//2"])
def test_parse_rational_rejects_inexact_or_malformed(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_format_and_json_of_exact_values():
    poly = Polynomial([Fraction(1, 2), 0, 3])
    assert format_value(poly) == "[1/2, 0, 3]"
    assert format_value((2, (True, poly), "sum")) == "(2, (true, [1/2, 0, 3]), sum)"
    assert format_value(Fraction(4, 2)) == "2"
    assert json_value(poly) == ["1/2", 0, 3]
    assert json_value((Fraction(6, 3), False)) == [2, False]
    assert json_value(Fraction(-1, 3)) == "-1/3"


def test_format_rational():
    assert format_rational(Fraction(3, 1)) == "3"
    assert format_rational(7) == "7"
    assert format_rational(Fraction(-691, 2730)) == "-691/2730"
    assert format_rational(Fraction(2, 4)) == "1/2"


def test_parse_format_roundtrip():
    rng = random.Random(11)
    for _ in range(200):
        q = Fraction(rng.randint(-500, 500), rng.randint(1, 300))
        assert parse_rational(format_rational(q)) == q


# --- construction and invariants ---------------------------------------------

def test_trailing_zeros_trimmed_and_zero_degree_none():
    assert Polynomial([1, 2, 0, 0]).coefficients == (1, 2)
    zero = Polynomial([0, 0, 0])
    assert zero.coefficients == ()
    assert zero.degree is None
    assert zero.is_zero()


def test_integral_fractions_collapse_to_int():
    p = Polynomial([Fraction(4, 2), Fraction(1, 3)])
    assert p.coefficients == (2, Fraction(1, 3))
    assert isinstance(p.coefficients[0], int)


def test_floats_rejected():
    with pytest.raises(TypeError):
        Polynomial([0.5])
    with pytest.raises(TypeError):
        Polynomial([0, 1])(0.5)


# --- arithmetic ---------------------------------------------------------------

X = Polynomial.x()


def test_add_respects_identity_and_cancellation():
    assert X + Polynomial.zero() == X
    assert Polynomial([0, 1, 2]) + X == Polynomial([0, 2, 2])
    cancelled = Polynomial([0, 0, 1]) + Polynomial([0, 0, -1])
    assert cancelled.is_zero()
    assert cancelled.degree is None


def test_mul():
    assert X * Polynomial([1, 1]) == Polynomial([0, 1, 1])
    assert (Polynomial([3, 1]) * Polynomial.zero()).is_zero()
    # hand convolution: (x^2+x)(2x+1) = 2x^3 + 3x^2 + x
    assert Polynomial([0, 1, 1]) * Polynomial([1, 2]) == Polynomial([0, 1, 3, 2])


def test_degree_additive_under_mul():
    rng = random.Random(5)
    for _ in range(50):
        f = Polynomial([rng.randint(-4, 4) for _ in range(rng.randint(1, 6))] + [1])
        g = Polynomial([rng.randint(-4, 4) for _ in range(rng.randint(1, 6))] + [1])
        assert (f * g).degree == f.degree + g.degree


def test_derivative():
    assert Polynomial([0, 1, 1]).derivative() == Polynomial([1, 2])
    assert Polynomial([9]).derivative().is_zero()
    assert Polynomial([0, 1, 3, 2]).derivative() == Polynomial([1, 6, 6])


def test_eval():
    assert X(HALF_NEG) == HALF_NEG
    assert Polynomial([0, 1, 2])(HALF_NEG) == 0
    assert Polynomial([0, 1, 3])(HALF_NEG) == Fraction(1, 4)


def test_definite_integral():
    assert X.definite_integral(-1, 0) == HALF_NEG
    assert Polynomial([0, 1, 2]).definite_integral(-1, 0) == Fraction(1, 6)
    assert Polynomial([5, 3, 1]).definite_integral(0, 0) == 0


def test_definite_integral_antisymmetric():
    rng = random.Random(7)
    for _ in range(40):
        f = Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)])
        a = Fraction(rng.randint(-10, 10), rng.randint(1, 6))
        b = Fraction(rng.randint(-10, 10), rng.randint(1, 6))
        assert f.definite_integral(a, b) == -f.definite_integral(b, a)


# --- reflection ---------------------------------------------------------------

def test_reflect_about():
    assert Polynomial([0, 1, 1]).reflect_about(HALF_NEG) == Polynomial([0, 1, 1])
    assert X.reflect_about(0) == -X
    assert Polynomial([4]).reflect_about(Fraction(9, 7)) == Polynomial([4])


def test_reflect_about_matches_pointwise_substitution():
    rng = random.Random(13)
    for _ in range(40):
        f = Polynomial([rng.randint(-6, 6) for _ in range(rng.randint(0, 7))])
        alpha = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        t = Fraction(rng.randint(-12, 12), rng.randint(1, 8))
        assert f.reflect_about(alpha)(alpha + t) == f(alpha - t)


def test_has_nonneg_int_coeffs():
    assert Polynomial([0, 1, 1]).has_nonneg_int_coeffs()
    assert not Polynomial([-1, 1]).has_nonneg_int_coeffs()
    assert Polynomial.zero().has_nonneg_int_coeffs()
    assert not Polynomial([Fraction(1, 2)]).has_nonneg_int_coeffs()


def test_reflection_class_membership():
    assert Polynomial([0, 1, 1]).in_reflection_class(HALF_NEG)       # x^2 + x
    assert Polynomial([0, 1, 3, 2]).in_reflection_class(HALF_NEG)    # 2x^3 + 3x^2 + x
    assert not Polynomial([0, 0, 1]).in_reflection_class(HALF_NEG)   # x^2 reflects to x^2+2x+1
    assert Polynomial.zero().in_reflection_class(HALF_NEG)
    assert Polynomial([3]).in_reflection_class(HALF_NEG)


def _random_member(rng, m):
    # products of the degree-1 and degree-2 generators stay in the class
    f = Polynomial([rng.randint(1, 3)])
    for _ in range(rng.randint(0, 3)):
        f = f * rng.choice((Polynomial([m, 2]), Polynomial([0, m, 1])))
    return f


def test_reflection_class_closure_and_odd_vanishing():
    rng = random.Random(42)
    for _ in range(60):
        m = rng.randint(0, 4)
        alpha = Fraction(-m, 2)
        f = _random_member(rng, m)
        g = _random_member(rng, m)
        assert (f * g).in_reflection_class(alpha)
        assert f.derivative().in_reflection_class(alpha)
        if (f.degree - g.degree) % 2 == 0:
            assert (f + g).in_reflection_class(alpha)
        if f.degree % 2 == 1:
            assert f(alpha) == 0


def test_operations_are_reproducible():
    f = Polynomial([Fraction(1, 3), 2, Fraction(-5, 7)])
    g = Polynomial([0, 1, 1])
    assert f * g == f * g
    assert f.reflect_about(HALF_NEG) == f.reflect_about(HALF_NEG)
    assert f(Fraction(22, 7)) == f(Fraction(22, 7))
