import math
import random
import re
from fractions import Fraction

import pytest

from fubinipoly import combinat, fubini, verify
from fubinipoly.combinat import bernoulli, bernoulli_akiyama_tanigawa, binomial_rat, harmonic, sf, sf_row
from fubinipoly.exactpoly import Polynomial
from fubinipoly.fubini import (
    fubini_direct,
    fubini_rec,
    hfubini_direct,
    hfubini_rec,
    lambda_poly,
    power_sum_gn,
    power_sum_poly,
    psi_poly,
    remainder_R,
)

MINUS_HALF = Fraction(-1, 2)


# --- the plain family -------------------------------------------------------

def test_fubini_direct_small():
    assert fubini_direct(1) == Polynomial([0, 1])
    assert fubini_direct(2) == Polynomial([0, 1, 2])
    assert fubini_direct(3) == Polynomial([0, 1, 6, 6])


def test_fubini_rec_small():
    assert fubini_rec(2) == Polynomial([0, 1, 2])


def test_fubini_rec_equals_direct():
    for n in range(1, 65):
        assert fubini_rec(n) == fubini_direct(n)


def test_fubini_value_at_minus_one():
    for n in range(1, 40):
        assert fubini_direct(n)(-1) == (-1) ** n


def test_fubini_rejects_zero():
    with pytest.raises(ValueError):
        fubini_direct(0)
    with pytest.raises(ValueError):
        fubini_rec(0)


# --- the harmonic-weighted family --------------------------------------------

def test_hfubini_direct_small():
    assert hfubini_direct(1) == Polynomial([0, 1])
    assert hfubini_direct(2) == Polynomial([0, 1, 3])


def test_hfubini_rec_small():
    assert hfubini_rec(2) == Polynomial([0, 1, 3])


def test_hfubini_rec_equals_direct():
    for n in range(1, 65):
        assert hfubini_rec(n) == hfubini_direct(n)


def test_hfubini_value_at_minus_one():
    for n in range(1, 40):
        assert hfubini_direct(n)(-1) == (-1) ** n * n


def test_hfubini_4_matches_reexpanded_connection_row():
    # Fhat_4 = F_4 + 3x F_3 + 3(x^2+x) F_2 + (2x^3+3x^2+x) F_1, expanded by hand
    expected = (fubini_direct(4)
                + Polynomial([0, 3]) * fubini_direct(3)
                + Polynomial([0, 3, 3]) * fubini_direct(2)
                + Polynomial([0, 1, 3, 2]) * fubini_direct(1))
    assert hfubini_rec(4) == expected
    assert expected == Polynomial([0, 1, 21, 66, 50])


def test_hfubini_rejects_zero():
    with pytest.raises(ValueError):
        hfubini_direct(0)
    with pytest.raises(ValueError):
        hfubini_rec(0)


# --- connection polynomials ----------------------------------------------------

GOLDEN_ROWS = {
    1: [(1,)],
    2: [(0, 1), (1,)],
    3: [(0, 1, 1), (0, 2), (1,)],
    4: [(0, 1, 3, 2), (0, 3, 3), (0, 3), (1,)],
}


def test_lambda_golden_rows():
    for n, rows in GOLDEN_ROWS.items():
        for nu, coeffs in enumerate(rows, start=1):
            assert lambda_poly(n, nu) == Polynomial(coeffs)


def test_lambda_top_entries():
    for n in range(1, 31):
        assert lambda_poly(n, n) == Polynomial.one()
        if n >= 2:
            assert lambda_poly(n, n - 1) == Polynomial([0, n - 1])


def test_lambda_degree_and_coefficients():
    for n in range(1, 31):
        for nu in range(1, n + 1):
            lam = lambda_poly(n, nu)
            assert lam.degree == n - nu
            assert lam.has_nonneg_int_coeffs()


def _lambda_row_by_polynomial_steps(prev, n):
    # The reference for the integer route of verify._lambda_entry: the
    # recurrence as three Polynomial operations per entry.
    x2_plus_x = Polynomial([0, 1, 1])

    def entry(nu):
        lam = prev[nu - 1] if nu < n else Polynomial.zero()
        lam_below = prev[nu - 2] if nu >= 2 else Polynomial.zero()
        out = x2_plus_x * lam.derivative() + lam_below
        if nu == n - 1:
            out = out + Polynomial.x()
        return out

    return tuple(entry(nu) for nu in range(1, n + 1))


def test_lambda_rows_match_polynomial_step_oracle():
    # The integer recurrence, stepped entry by entry from lambda(1, 1) = 1,
    # agrees with the polynomial steps and with the rows lambda_poly serves in
    # closed form.
    got, want = ((1,),), (Polynomial.one(),)
    for n in range(2, 61):
        want = _lambda_row_by_polynomial_steps(want, n)
        got = tuple(verify._lambda_entry(n, nu, got[nu - 1] if nu < n else (), got[nu - 2] if nu >= 2 else ())
                    for nu in range(1, n + 1))
        assert got == tuple(lam.coefficients for lam in want), n
        assert all(type(c) is int for lam in got for c in lam), n
        served = tuple(lambda_poly(n, nu) for nu in range(1, n + 1))
        assert served == want, n
        assert all(type(c) is int for lam in served for c in lam), n


def test_lambda_entry_trims_a_top_coefficient_that_cancels():
    # Stepped from the row (-x^2, x, 0): lambda(4, 2) = (x^2+x) * 1 - x^2 = x,
    # its x^2 terms cancelling, and lambda(4, 4) = 0 steps from the zero entry.
    prev = (Polynomial([0, 0, -1]), Polynomial.x(), Polynomial.zero())
    c = [()] + [lam.coefficients for lam in prev] + [()]
    got = tuple(verify._lambda_entry(4, nu, c[nu], c[nu - 1]) for nu in range(1, 5))
    assert got == tuple(lam.coefficients for lam in _lambda_row_by_polynomial_steps(prev, 4))
    assert (got[1], got[3]) == ((0, 1), ())


def test_lambda_closed_form():
    # lambda(n, nu) = C(n-1, nu-1) (x+1) F_(n-1-nu) for nu <= n-2.
    fs = [None] + [fubini_rec(a) for a in range(1, 58)]
    for n in range(3, 60):
        for nu in range(1, n - 1):
            closed = Polynomial([1, 1]) * fs[n - 1 - nu] * math.comb(n - 1, nu - 1)
            assert lambda_poly(n, nu) == closed, (n, nu)


def _compose(f, g):
    """f(g(x)) by Horner's scheme."""
    acc = Polynomial.zero()
    for c in reversed(f.coefficients):
        acc = acc * g + c
    return acc


def test_fubini_reflection_about_minus_half():
    # x F_v(-1-x) = (-1)^v (1+x) F_v(x): P_v = (x+1) F_v is in the reflection
    # class at -1/2, which the lambda-reflection check relies on.
    for v in range(1, 61):
        f = fubini_direct(v)
        assert Polynomial.x() * _compose(f, Polynomial([-1, -1])) \
            == Polynomial([1, 1]) * f * (-1) ** v, v


def test_lambda_out_of_range_is_refused():
    for nu in (0, 4, -1):
        with pytest.raises(ValueError, match=rf"nu must lie in 1\.\.3, got {nu}"):
            lambda_poly(3, nu)
    with pytest.raises(ValueError, match="n must be at least 1, got 0"):
        lambda_poly(0, 9)       # n is checked first


def test_lambda_expansion_reconstructs_hfubini():
    for n in range(1, 33):
        total = Polynomial.zero()
        for nu in range(1, n + 1):
            total = total + lambda_poly(n, nu) * fubini_direct(nu)
        assert total == hfubini_direct(n)


def test_lambda_reflection_membership():
    for n in range(3, 25):
        for nu in range(1, n - 1):
            assert lambda_poly(n, nu).in_reflection_class(MINUS_HALF)


# --- psi ------------------------------------------------------------------------

def test_psi_small():
    assert psi_poly(1).is_zero()
    # recompute psi_2 straight from the definition
    expected = Polynomial([0] + [sf(2, v) * ((v - 1) * harmonic(v) + 1) for v in (1, 2)])
    assert psi_poly(2) == expected
    assert expected == Polynomial([0, 1, 5])
    assert psi_poly(2)(MINUS_HALF) == Fraction(3, 4)


def test_psi_vanishes_at_center_for_odd_n():
    for n in range(1, 40, 2):
        assert psi_poly(n)(MINUS_HALF) == 0


def _hfubini_direct_by_fraction_steps(n):
    # The Fraction-product reference for the exact-division hfubini_direct.
    row = sf_row(n)
    return Polynomial([0] + [row[v] * harmonic(v) for v in range(1, n + 1)])


def _psi_poly_by_fraction_steps(n):
    row = sf_row(n)
    return Polynomial([0] + [row[v] * ((v - 1) * harmonic(v) + (n - 1)) for v in range(1, n + 1)])


@pytest.mark.parametrize("route,reference", [
    (hfubini_direct, _hfubini_direct_by_fraction_steps),
    (psi_poly, _psi_poly_by_fraction_steps),
], ids=["hfubini_direct", "psi_poly"])
def test_exact_division_routes_match_fraction_step_oracle(route, reference):
    for n in range(1, 61):
        got, want = route(n), reference(n)
        assert got == want, n
        assert [type(c) for c in got] == [type(c) for c in want], n
    # A harmonic entry whose denominator 84 does not divide SF(n, 4) takes the
    # Fraction product, so the corrupted coefficient stays exact.
    with combinat.harmonic_table.override(4, combinat.harmonic(4) + Fraction(1, 7)):
        for n in range(1, 13):
            got, want = route(n), reference(n)
            assert got == want, n
            assert [type(c) for c in got] == [type(c) for c in want], n
        assert type(route(5).coefficient(4)) is Fraction


def test_the_integrals_of_the_families_do_not_go_through_worpitzky_sum(monkeypatch):
    # worpitzky-integral and thm-main-integral evaluate the antiderivative at
    # both ends; drv-fh-bn takes the worpitzky_sum route.  Both routes must
    # stay apart, or drv-fh-bn and thm-main-integral compare a value with
    # itself.
    def refuse(terms):
        raise AssertionError("definite_integral went through worpitzky_sum")

    for module in (combinat, verify):
        monkeypatch.setattr(module, "worpitzky_sum", refuse)
    for n in range(1, 41):
        assert fubini_direct(n).definite_integral(-1, 0) == bernoulli_akiyama_tanigawa(n), n
        assert (hfubini_direct(n).definite_integral(-1, 0)
                == -Fraction(n, 2) * bernoulli_akiyama_tanigawa(n - 1)), n


def test_psi_rejects_zero():
    with pytest.raises(ValueError):
        psi_poly(0)


# --- remainder ---------------------------------------------------------------------

def test_remainder_base_and_unrolled():
    assert remainder_R(2).is_zero()
    expected = lambda_poly(4, 1) * fubini_direct(1) + lambda_poly(4, 2) * fubini_direct(2)
    assert remainder_R(4) == expected


def test_remainder_vanishes_at_center_for_even_n():
    for n in range(2, 33, 2):
        assert remainder_R(n)(MINUS_HALF) == 0


def test_remainder_rejects_small_n():
    with pytest.raises(ValueError):
        remainder_R(1)


# --- power sums -----------------------------------------------------------------------

def test_power_sum_poly_small():
    assert power_sum_poly(0) == Polynomial([0, 1])
    assert power_sum_poly(1) == Polynomial([0, Fraction(-1, 2), Fraction(1, 2)])


def test_power_sum_poly_shape():
    for n in range(0, 13):
        p = power_sum_poly(n)
        assert p.degree == n + 1
        assert p.coefficient(0) == 0


@pytest.mark.parametrize("corrupted", [False, True])
def test_power_sum_poly_is_the_shifted_bernoulli_polynomial_over_n_plus_one(monkeypatch, corrupted):
    # The reference for one Fraction per coefficient: the polynomial
    # difference scaled by 1/(n+1).  B_5(x) with its constant raised by 1
    # gives power_sum_poly(4) the constant term 1/5.
    if corrupted:
        served = fubini.bernoulli_poly
        monkeypatch.setattr(fubini, "bernoulli_poly", lambda m: served(m) + 1 if m == 5 else served(m))
    for n in range(0, 61):
        assert power_sum_poly(n) == (fubini.bernoulli_poly(n + 1) - bernoulli(n + 1)) * Fraction(1, n + 1), n
    assert power_sum_poly(4).coefficient(0) == (Fraction(1, 5) if corrupted else 0)


def test_power_sum_poly_against_brute_force():
    for n in range(0, 9):
        p = power_sum_poly(n)
        for m in range(0, 11):
            assert p(m) == sum(v ** n for v in range(m)), (n, m)


def test_power_sum_gn_values():
    for n in range(0, 9):
        assert power_sum_gn(n, 0) == 0
    assert power_sum_gn(2, 4) == 14  # 0 + 1 + 4 + 9


def test_power_sum_routes_agree_at_random_rationals():
    rng = random.Random(23)
    for n in range(0, 13):
        p = power_sum_poly(n)
        for _ in range(20):
            x = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            assert p(x) == power_sum_gn(n, x)


def _power_sum_gn_by_fraction_steps(n, x):
    # The Fraction-per-step reference for the integer power_sum_gn: C(x,k+1)
    # and the running total advanced one gcd-normalised step at a time.
    row = sf_row(n)
    total = Fraction(0)
    coeff = binomial_rat(x, 1)
    for k in range(n + 1):
        total += row[k] * coeff
        coeff = coeff * (x - (k + 1)) / (k + 2)
    return total


def test_power_sum_gn_matches_fraction_step_oracle():
    rng = random.Random(41)
    for n in range(0, 61):
        points = [0, Fraction(0), -1, -2, -7, Fraction(-5), 3]
        points += [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(6)]
        for x in points:
            value = power_sum_gn(n, x)
            assert type(value) is Fraction, (n, x)
            assert value == _power_sum_gn_by_fraction_steps(n, x), (n, x)


@pytest.mark.parametrize("x", [0.5, 2.0, "1/2", None], ids=repr)
def test_power_sum_gn_refuses_inexact_points(x):
    with pytest.raises(TypeError):
        power_sum_gn(2, x)



# Every public reader of a memo table, given an index past the table's last
# row where one argument is not an int: it must refuse before the table grows.
@pytest.mark.parametrize("fn,table,make_args", [
    (combinat.stirling2, combinat.stirling2_table, lambda top: (float(top), 1)),
    (combinat.stirling2, combinat.stirling2_table, lambda top: (top, 1.0)),
    (combinat.sf, combinat.sf_table, lambda top: (float(top), 1)),
    (combinat.sf, combinat.sf_table, lambda top: (top, Fraction(1))),
    (combinat.sf_row, combinat.sf_table, lambda top: (float(top),)),
    (combinat.harmonic, combinat.harmonic_table, lambda top: (float(top),)),
    (combinat.bernoulli, combinat.bernoulli_table, lambda top: (float(top),)),
    (combinat.bernoulli_poly, combinat.bernoulli_table, lambda top: (float(top),)),
    (fubini_direct, combinat.sf_table, lambda top: (float(top),)),
    (lambda_poly, combinat.sf_table, lambda top: (float(top), 1)),
    (lambda_poly, combinat.sf_table, lambda top: (top, 1.0)),
    (power_sum_poly, combinat.bernoulli_table, lambda top: (float(top),)),
    (power_sum_gn, combinat.sf_table, lambda top: (float(top), 2)),
    (hfubini_direct, combinat.harmonic_table, lambda top: (float(top),)),
    (psi_poly, combinat.sf_table, lambda top: (float(top),)),
    (remainder_R, combinat.sf_table, lambda top: (float(top),)),
], ids=["stirling2-n", "stirling2-k", "sf-n", "sf-k", "sf_row", "harmonic", "bernoulli",
        "bernoulli_poly", "fubini_direct", "lambda_poly-n", "lambda_poly-nu",
        "power_sum_poly", "power_sum_gn", "hfubini_direct", "psi_poly", "remainder_R"])
def test_non_int_index_is_refused_before_any_table_grows(fn, table, make_args):
    rows = len(table._rows)
    with pytest.raises(TypeError):
        fn(*make_args(rows + 20))
    assert len(table._rows) == rows


# Every public index, as (function, valid arguments, the index's position,
# its name, its floor, its top or None).  exactpoly.index refuses a float
# with TypeError and an index out of range with one ValueError wording.
_GATED_INDICES = {
    "stirling2-n": (combinat.stirling2, (3, 1), 0, "n", 0, None),
    "stirling2-k": (combinat.stirling2, (3, 1), 1, "k", 0, 3),
    "sf-n": (sf, (3, 1), 0, "n", 0, None),
    "sf-k": (sf, (3, 1), 1, "k", 0, 3),
    "sf_row": (sf_row, (3,), 0, "n", 0, None),
    "harmonic": (harmonic, (3,), 0, "n", 1, None),
    "binomial-n": (combinat.binomial, (5, 2), 0, "n", 0, None),
    "binomial-k": (combinat.binomial, (5, 2), 1, "k", 0, None),
    "binomial_rat": (binomial_rat, (Fraction(1, 2), 2), 1, "k", 0, None),
    "bernoulli": (combinat.bernoulli, (3,), 0, "n", 0, None),
    "bernoulli_akiyama_tanigawa": (bernoulli_akiyama_tanigawa, (3,), 0, "n", 0, None),
    "bernoulli_poly": (combinat.bernoulli_poly, (3,), 0, "n", 0, None),
    "fubini_direct": (fubini_direct, (3,), 0, "n", 1, None),
    "fubini_rec": (fubini_rec, (3,), 0, "n", 1, None),
    "hfubini_direct": (hfubini_direct, (3,), 0, "n", 1, None),
    "hfubini_rec": (hfubini_rec, (3,), 0, "n", 1, None),
    "psi_poly": (psi_poly, (3,), 0, "n", 1, None),
    "lambda_poly-n": (lambda_poly, (4, 2), 0, "n", 1, None),
    "lambda_poly-nu": (lambda_poly, (4, 2), 1, "nu", 1, 4),
    "remainder_R": (remainder_R, (4,), 0, "n", 2, None),
    "power_sum_poly": (power_sum_poly, (3,), 0, "n", 0, None),
    "power_sum_gn": (power_sum_gn, (3, Fraction(1, 2)), 0, "n", 0, None),
    "monomial": (Polynomial.monomial, (1, 2), 1, "power", 0, None),
    "run_check": (verify.run_check, ("fs-at-minus-one", 3), 1, "max_n", 1, None),
    "run_suite": (verify.run_suite, (3, ["fs-at-minus-one"]), 0, "max_n", 1, None),
}


@pytest.mark.parametrize("fn,args,position,name,low,high", list(_GATED_INDICES.values()),
                         ids=list(_GATED_INDICES))
def test_every_public_index_goes_through_the_gate(fn, args, position, name, low, high):
    def call(value):
        return fn(*args[:position], value, *args[position + 1:])

    call(args[position])
    with pytest.raises(TypeError):
        call(float(args[position]))
    wording = f"{name} must be at least {low}" if high is None else f"{name} must lie in {low}..{high}"
    with pytest.raises(ValueError, match=re.escape(f"{wording}, got {low - 1}") + "$"):
        call(low - 1)
    if high is not None:
        with pytest.raises(ValueError, match=re.escape(f"{wording}, got {high + 1}") + "$"):
            call(high + 1)
