import random
from fractions import Fraction

import pytest

from fubinipoly.exactpoly import (Polynomial, exact, format_rational, format_value, json_value,
                                  parse_rational)
from fubinipoly.fubini import fubini_direct, hfubini_direct, lambda_poly, power_sum_poly, psi_poly
from fubinipoly.transforms import binomial_transform

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
    assert json_value(Fraction(-1, 3)) == "-1/3"


def test_rendering_integers_builds_no_fraction(monkeypatch):
    poly = Polynomial([k ** 20 for k in range(1, 1001)])
    built = []
    fraction_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    text, doc = format_value(poly), json_value(poly)
    monkeypatch.undo()
    assert built == []
    assert text == "[" + ", ".join(str(k ** 20) for k in range(1, 1001)) + "]"
    assert doc == [k ** 20 for k in range(1, 1001)]


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


def test_int_only_and_mixed_coefficient_lists_are_canonical():
    assert Polynomial([3, -1, 0, 0]).coefficients == (3, -1)
    assert Polynomial((0, 0)).coefficients == ()
    mixed = Polynomial([1, Fraction(6, 3), True, Fraction(0), Fraction(1, 2)])
    assert mixed.coefficients == (1, 2, 1, 0, Fraction(1, 2))
    assert [type(c) for c in mixed] == [int, int, int, int, Fraction]
    with pytest.raises(TypeError):
        Polynomial([1, 2, 3.0])


def test_a_bool_is_a_plain_int():
    # exact() gives any int subclass as a plain int, so every int fast path
    # (type(c) is int) holds for a bool coefficient too.
    assert type(exact(True)) is int and exact(True) == 1
    assert type(exact(False)) is int and exact(False) == 0
    f = Polynomial([True, 2])
    assert f.coefficients == (1, 2) and [type(c) for c in f] == [int, int]
    assert f.antiderivative() == Polynomial([0, 1, 1])
    assert f.definite_integral(-1, 0) == 0
    assert f.definite_integral(0, 1) == 2
    assert json_value(f) == [1, 2]
    assert Polynomial([True]).has_nonneg_int_coeffs()


def test_floats_rejected():
    # Every entry point behind the exactness gate, one inexact value at a time.
    for x in (0.0, 0.5, 3.0, "1/2", None):
        entry_points = {
            "Polynomial": lambda: Polynomial([x]),
            "__call__": lambda: Polynomial([0, 1])(x),
            "reflect_about": lambda: Polynomial([0, 1]).reflect_about(x),
            "monomial": lambda: Polynomial.monomial(x, 2),
            "definite_integral": lambda: Polynomial([0, 1]).definite_integral(0, x),
            "format_rational": lambda: format_rational(x),
            "binomial_transform": lambda: binomial_transform([1, x]),
        }
        for name, call in entry_points.items():
            try:
                call()
            except TypeError:
                continue
            pytest.fail(f"{name} accepted {x!r}")
    # The gate checks entries without canonicalising them.
    assert [type(v) for v in binomial_transform((Fraction(2),))] == [Fraction]


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


def _horner_reference(f, point):
    # Horner over Fractions, one operation at a time: the reference for __call__.
    acc = 0
    for c in reversed(f.coefficients):
        acc = acc * point + c
    return acc


def _random_exact_poly(rng, max_degree):
    return Polynomial([Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 4, 6, 9)))
                       if rng.random() < 0.5 else rng.randint(-30, 30)
                       for _ in range(rng.randint(0, max_degree + 1))])


def test_eval_matches_reference_horner_in_value_and_type():
    rng = random.Random(17)
    points = [0, 1, -1, 7, -12, Fraction(4), Fraction(-3), Fraction(0), HALF_NEG,
              Fraction(9, 7), Fraction(-22, 15), Fraction(1, 3)]
    polys = [Polynomial.zero(), Polynomial([5]), Polynomial([Fraction(1, 2)]),
             Polynomial([3, Fraction(1, 2)]), Polynomial([0, 1, 3, 2])]
    polys += [_random_exact_poly(rng, 9) for _ in range(120)]
    polys += [Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(1, 9))]) for _ in range(40)]
    for f in polys:
        for point in points:
            value, expected = f(point), _horner_reference(f, point)
            assert value == expected and type(value) is type(expected), (f, point)
    assert type(Polynomial.zero()(HALF_NEG)) is int
    assert type(Polynomial([0, 1, 3, 2])(5)) is int
    assert type(Polynomial([0, 1, 3, 2])(Fraction(4))) is Fraction


# Every rule of __call__ on the large coefficients of the families the value
# checks evaluate: c_0 at 0, the two slice sums at +-1 (with the int part
# folded apart when the polynomial mixes ints and Fractions), the fold from
# the constant term up (|p| <= q) at -1/2 and 1/3 (p = +-1) and at -3/4, and
# from the top at 7/3, -40/3 and 3.
_FAMILY_POINTS = [0, Fraction(0), 1, -1, Fraction(1), HALF_NEG, Fraction(1, 3), Fraction(-3, 4),
                  Fraction(7, 3), Fraction(-40, 3), 3]


def _family_polys(n):
    """F_n, Fhat_n, psi_n and the power-sum polynomial of index n, each with its
    antiderivative, and of each a copy whose only Fraction is c_0 and a copy
    whose every coefficient is a Fraction."""
    for f in (fubini_direct(n), hfubini_direct(n), psi_poly(n), power_sum_poly(n)):
        for g in (f, f.antiderivative()):
            c = g.coefficients
            yield g
            yield Polynomial([Fraction(1, 3)] + [v.numerator for v in c[1:]])
            yield Polynomial([Fraction(2 * v.numerator + 1, 2 * v.denominator) for v in c])


def test_eval_on_the_families_matches_reference_horner_in_value_and_type():
    for n in range(1, 61):
        for f in _family_polys(n):
            for point in _FAMILY_POINTS:
                value, expected = f(point), _horner_reference(f, point)
                assert value == expected and type(value) is type(expected), (n, f, point)


def _is_canonical(f):
    """No integral Fraction and no trailing zero among the coefficients."""
    cs = f.coefficients
    return (all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in cs)
            and (not cs or cs[-1] != 0))


def test_ring_results_are_canonical():
    half = Polynomial([Fraction(1, 2)])
    assert (half * 2).coefficients == (1,)
    assert type((half * 2).coefficients[0]) is int
    assert (half * 2).has_nonneg_int_coeffs()
    assert (half + half).coefficients == (1,) and (half + half).has_nonneg_int_coeffs()
    assert Polynomial([0, Fraction(1, 2)]).derivative().coefficients == (Fraction(1, 2),)
    assert Polynomial([0, 0, Fraction(1, 2)]).derivative().coefficients == (0, 1)
    assert Polynomial([2]).antiderivative().coefficients == (0, 2)
    rng = random.Random(23)
    for _ in range(150):
        # halves and small integers, so sums and products are often integral
        f, g = (Polynomial([Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
                            for _ in range(rng.randint(0, 6))]) for _ in range(2))
        k = rng.choice((0, 2, -4, Fraction(1, 2), Fraction(-3, 2)))
        for result in (f + g, f - g, -f, f * g, f * k, k * f, f + k, k - f,
                       f.derivative(), f.antiderivative(), f.reflect_about(HALF_NEG)):
            assert _is_canonical(result), result


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


def _reflect_by_substitution(f, alpha):
    # sum_i c_i (2*alpha - x)^i with each power built by one more dense
    # multiplication: the O(d^3) reference for reflect_about.
    mirror = Polynomial([2 * alpha, -1])
    result = Polynomial.zero()
    power = Polynomial.one()
    for c in f.coefficients:
        result = result + power * c
        power = power * mirror
    return result


def _in_reflection_class_by_substitution(f, alpha):
    if f.is_zero():
        return True
    if not f.has_nonneg_int_coeffs():
        return False
    sign = -1 if f.degree % 2 else 1
    return _reflect_by_substitution(f, alpha) == f * sign


REFLECTION_AXES = (HALF_NEG, 0, Fraction(-3, 2), Fraction(1, 3), Fraction(9, 7))


@pytest.mark.parametrize("alpha", REFLECTION_AXES, ids=str)
def test_reflection_agrees_with_substitution_on_random_polynomials(alpha):
    rng = random.Random(29)
    polys = [_random_exact_poly(rng, 10) for _ in range(60)]
    polys += [Polynomial([rng.randint(0, 5) for _ in range(rng.randint(0, 10))]) for _ in range(60)]
    polys += [_random_member(rng, rng.randint(0, 4)) for _ in range(60)]
    memberships = set()
    for f in polys:
        assert f.reflect_about(alpha) == _reflect_by_substitution(f, alpha), f
        member = f.in_reflection_class(alpha)
        assert member == _in_reflection_class_by_substitution(f, alpha), f
        memberships.add(member)
    assert memberships == {True, False}


def test_reflection_agrees_with_substitution_on_every_lambda_up_to_40():
    for n in range(1, 41):
        for nu in range(1, n + 1):
            lam = lambda_poly(n, nu)
            assert lam.reflect_about(HALF_NEG) == _reflect_by_substitution(lam, HALF_NEG), (n, nu)
            member = lam.in_reflection_class(HALF_NEG)
            assert member == _in_reflection_class_by_substitution(lam, HALF_NEG), (n, nu)
            assert member == (nu <= n - 2 or nu == n), (n, nu)


def _from_reflection_parts(a, b, alpha):
    # A(u) + x B(u) with u = x^2 - 2 alpha x, by Horner's scheme in u on the
    # terms A_k + x B_k: the inverse that reflection_parts is held to.
    u = Polynomial([0, -2 * alpha, 1])
    acc = Polynomial.zero()
    for k in reversed(range(max(len(a.coefficients), len(b.coefficients)))):
        acc = acc * u + Polynomial([a.coefficient(k), b.coefficient(k)])
    return acc


@pytest.mark.parametrize("alpha", REFLECTION_AXES, ids=str)
def test_reflection_parts_round_trip_on_random_polynomials(alpha):
    rng = random.Random(29)
    polys = [_random_exact_poly(rng, 10) for _ in range(60)]
    polys += [Polynomial([rng.randint(0, 5) for _ in range(rng.randint(0, 10))]) for _ in range(60)]
    polys += [_random_member(rng, rng.randint(0, 4)) for _ in range(60)]
    for f in polys:
        a, b = f.reflection_parts(alpha)
        assert _from_reflection_parts(a, b, alpha) == f, f


def test_reflection_parts_round_trip_on_every_lambda_up_to_40():
    for n in range(1, 41):
        for nu in range(1, n + 1):
            lam = lambda_poly(n, nu)
            a, b = lam.reflection_parts(HALF_NEG)
            assert _from_reflection_parts(a, b, HALF_NEG) == lam, (n, nu)
            assert all(type(c) is int for c in a.coefficients + b.coefficients), (n, nu)


def test_reflection_parts_small_cases():
    assert Polynomial([0, 1, 1]).reflection_parts(HALF_NEG) == (Polynomial([0, 1]), Polynomial.zero())
    assert Polynomial([1, 2]).reflection_parts(HALF_NEG) == (Polynomial([1]), Polynomial([2]))
    assert Polynomial([0, 0, 1]).reflection_parts(HALF_NEG) == (Polynomial([0, 1]), Polynomial([-1]))
    assert Polynomial([5, 4, 3, 2]).reflection_parts(0) == (Polynomial([5, 3]), Polynomial([4, 2]))
    assert Polynomial.zero().reflection_parts(Fraction(9, 7)) == (Polynomial.zero(), Polynomial.zero())
    # The axis passes the exactness gate even where the answer needs no split.
    for f in (X, Polynomial.zero(), Polynomial([-1])):
        for call in (f.reflection_parts, f.in_reflection_class):
            with pytest.raises(TypeError):
                call(0.5)


@pytest.mark.parametrize("alpha", REFLECTION_AXES, ids=str)
def test_from_reflection_parts_evaluates_to_the_definition(alpha):
    # A(u) + x B(u) at a point, with u evaluated there: no composition involved.
    rng = random.Random(37)
    for _ in range(60):
        a, b = _random_exact_poly(rng, 5), _random_exact_poly(rng, 5)
        f = _from_reflection_parts(a, b, alpha)
        for _ in range(3):
            t = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
            u = t * t - 2 * alpha * t
            assert f(t) == a(u) + t * b(u), (a, b, t)
    assert _from_reflection_parts(Polynomial([0, 1]), Polynomial.zero(), HALF_NEG) \
        == Polynomial([0, 1, 1])
    assert _from_reflection_parts(Polynomial.zero(), Polynomial.zero(), 0) == Polynomial.zero()


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
