import math
import random
from fractions import Fraction

import pytest

from fubinipoly import combinat, transforms
from fubinipoly.combinat import harmonic
from fubinipoly.exactpoly import Polynomial
from fubinipoly.fubini import fubini_direct, hfubini_direct
from fubinipoly.transforms import (
    binomial_transform,
    euler_hadamard,
    hadamard,
    hfubini_via_derivatives,
)


def _random_seq(rng, length):
    return tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 20)) for _ in range(length))


# --- binomial transform ---------------------------------------------------------

def test_transform_of_constant_ones():
    assert binomial_transform((1,) * 8) == (1,) + (0,) * 7


def test_transform_is_involution():
    rng = random.Random(3)
    assert binomial_transform(()) == ()
    for _ in range(60):
        seq = _random_seq(rng, rng.randint(1, 32))
        assert binomial_transform(binomial_transform(seq)) == seq


def test_transform_preserves_length():
    rng = random.Random(4)
    for length in (0, 1, 5, 17):
        assert len(binomial_transform(_random_seq(rng, length))) == length


def _binomial_transform_by_fraction_steps(seq):
    # The reference for the integer difference-table route: each C(n,k) from
    # math.comb times the entry, summed one Fraction step at a time.
    out = []
    for n in range(len(seq)):
        total = 0
        for k in range(n + 1):
            term = math.comb(n, k) * seq[k]
            total = total - term if k % 2 else total + term
        out.append(total)
    return tuple(out)


def test_transform_matches_fraction_step_oracle_in_value_and_type():
    rng = random.Random(5)
    seqs = [(), (Fraction(2),), (Fraction(0),), (3, -1), (1, 2, Fraction(4, 2), 5),
            (7, 7, Fraction(1, 3), 0, 1)]
    for _ in range(120):
        length = rng.randint(1, 40)
        kind = rng.choice(("rational", "int", "mixed"))
        if kind == "rational":
            seq = _random_seq(rng, length)
        elif kind == "int":
            seq = tuple(rng.randint(-10 ** 9, 10 ** 9) for _ in range(length))
        else:
            seq = tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 20)) if rng.random() < 0.3
                        else rng.randint(-99, 99) for _ in range(length))
        seqs.append(seq)
    for seq in seqs:
        got = binomial_transform(seq)
        want = _binomial_transform_by_fraction_steps(seq)
        assert got == want, seq
        assert [type(t) for t in got] == [type(t) for t in want], seq


def test_transform_of_harmonic_numbers():
    seq = (Fraction(0),) + tuple(harmonic(k) for k in range(1, 65))
    transformed = binomial_transform(seq)
    for n in range(1, 65):
        assert transformed[n] == Fraction(-1, n)


# --- coefficient-wise product ------------------------------------------------------

def test_hadamard_with_all_ones_mask_truncates():
    f = Polynomial([5, -2, 7, 0, 3, 9])
    mask = Polynomial([1, 1, 1])
    assert hadamard(f, mask) == Polynomial([5, -2, 7])


def test_hadamard_with_zero():
    assert hadamard(Polynomial([1, 2, 3]), Polynomial.zero()).is_zero()


def test_hadamard_commutative_and_bilinear():
    rng = random.Random(9)
    for _ in range(40):
        f = Polynomial(_random_seq(rng, rng.randint(0, 8)))
        g = Polynomial(_random_seq(rng, rng.randint(0, 8)))
        h = Polynomial(_random_seq(rng, rng.randint(0, 8)))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        assert hadamard(f, g) == hadamard(g, f)
        assert hadamard(f + h, g) == hadamard(f, g) + hadamard(h, g)
        assert hadamard(f * c, g) == hadamard(f, g) * c


def test_hadamard_of_harmonic_mask_and_fubini():
    for n in range(1, 17):
        mask = Polynomial([0] + [harmonic(v) for v in range(1, n + 1)])
        assert hadamard(mask, fubini_direct(n)) == hfubini_direct(n)


# --- the transform route to the coefficient-wise product ------------------------------

def test_euler_hadamard_constant_case():
    f = Polynomial([Fraction(5, 3)])
    g = Polynomial([Fraction(7, 2), 4, 1])
    assert euler_hadamard(f, g) == Polynomial([Fraction(35, 6)])


def test_euler_hadamard_zero_cases():
    assert euler_hadamard(Polynomial([1, 2]), Polynomial.zero()).is_zero()
    assert euler_hadamard(Polynomial.zero(), Polynomial([1, 2])).is_zero()


def test_euler_hadamard_matches_hadamard_on_random_pairs():
    rng = random.Random(17)
    for _ in range(60):
        f = Polynomial(_random_seq(rng, rng.randint(0, 13)))
        g = Polynomial(_random_seq(rng, rng.randint(0, 13)))
        assert euler_hadamard(f, g) == hadamard(f, g)


# --- derivative route to the harmonic-weighted family -----------------------------------

def test_hfubini_via_derivatives_small():
    assert hfubini_via_derivatives(1) == Polynomial([0, 1])
    assert hfubini_via_derivatives(2) == Polynomial([0, 1, 3])


def test_hfubini_via_derivatives_equals_direct():
    for n in range(1, 41):
        assert hfubini_via_derivatives(n) == hfubini_direct(n)


def _hfubini_via_derivatives_by_fraction_steps(n):
    # The reference for the integer route: each derivative times a Fraction
    # monomial through Polynomial.__mul__, summed as Fraction polynomials.
    deriv = fubini_direct(n)
    result = Polynomial.zero()
    for v in range(1, n + 1):
        deriv = deriv.derivative()
        result = result + Polynomial.monomial(Fraction(1, math.factorial(v) * v)
                                              * (-1) ** (v + 1), v) * deriv
    return result


def test_hfubini_via_derivatives_matches_fraction_step_oracle():
    for n in range(1, 61):
        got = hfubini_via_derivatives(n)
        want = _hfubini_via_derivatives_by_fraction_steps(n)
        assert got == want, n
        # same canonical form: integral coefficients stored as int
        assert [type(c) for c in got] == [type(c) for c in want], n


def _hfubini_via_derivatives_by_chain(n):
    # The reference for coefficient extraction: the whole derivative chain
    # of F_n in integers.  Each row of coefficients of F_n^(v)/v! comes from
    # the last by (j+1) c / v, exact because the quotient is the integer
    # c_(j+v) C(j+v, v); term v is scaled by D/v over D = lcm(1..n) and
    # added shifted by v.
    scaled = list(fubini_direct(n).coefficients)
    den = math.lcm(*range(1, n + 1))
    acc = [0] * (n + 1)
    for v in range(1, n + 1):
        scaled = [(j + 1) * scaled[j + 1] // v for j in range(len(scaled) - 1)]
        weight = den // v if v % 2 else -(den // v)
        for j, c in enumerate(scaled):
            acc[j + v] += weight * c
    return Polynomial([Fraction(a, den) for a in acc])


def test_hfubini_via_derivatives_matches_the_derivative_chain_in_value_and_type():
    for n in range(1, 81):
        got = hfubini_via_derivatives(n)
        want = _hfubini_via_derivatives_by_chain(n)
        assert got == want, n
        assert [type(c) for c in got] == [type(c) for c in want], n


def _hfubini_via_derivatives_by_pascal_rows(coeffs):
    # The reference for the inner sums by one binomial transform: row m of
    # Pascal's triangle rolled from row m - 1 and dotted with the weights
    # (-1)^(v+1) D/v over D = lcm(1..n), then one exact division by D.
    den = math.lcm(*range(1, len(coeffs)))
    weights = [0] + [den // v if v % 2 else -(den // v) for v in range(1, len(coeffs))]
    binom, out = [1], [0]
    for c in coeffs[1:]:
        binom = [1] + [a + b for a, b in zip(binom, binom[1:])] + [1]
        out.append(Fraction(c * sum(b * w for b, w in zip(binom, weights)), den))
    return Polynomial(out)


def test_hfubini_via_derivatives_matches_the_pascal_row_sums_in_value_and_type():
    for n in range(1, 81):
        got = hfubini_via_derivatives(n)
        want = _hfubini_via_derivatives_by_pascal_rows(fubini_direct(n).coefficients)
        assert got == want, n
        assert [type(c) for c in got] == [type(c) for c in want], n


def test_hfubini_via_derivatives_matches_the_pascal_row_sums_on_any_integer_row(monkeypatch):
    # Any F_n the route reads, not only the true one: random integer rows,
    # whose coefficients the division by D leaves as Fractions.
    rng = random.Random(11)
    for n in range(1, 41):
        poly = Polynomial([0] + [rng.randint(-999, 999) for _ in range(n)])
        monkeypatch.setattr(transforms, "fubini_direct", lambda m, poly=poly: poly)
        got = hfubini_via_derivatives(n)
        want = _hfubini_via_derivatives_by_pascal_rows(poly.coefficients)
        assert got == want, n
        assert [type(c) for c in got] == [type(c) for c in want], n


def test_hfubini_via_derivatives_reads_no_harmonic_number():
    clean = {n: hfubini_via_derivatives(n) for n in range(1, 9)}
    direct_4 = hfubini_direct(4)
    with combinat.harmonic_table.override(4, combinat.harmonic(4) + 1):
        assert hfubini_direct(4) != direct_4
        for n, poly in clean.items():
            assert hfubini_via_derivatives(n) == poly, n


def test_hfubini_via_derivatives_rejects_zero():
    with pytest.raises(ValueError):
        hfubini_via_derivatives(0)
