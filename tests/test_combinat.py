import math
import random
import threading
from fractions import Fraction

import pytest

from fubinipoly.combinat import (
    MemoTable,
    bernoulli,
    bernoulli_akiyama_tanigawa,
    bernoulli_poly,
    binomial,
    binomial_rat,
    harmonic,
    sf,
    sf_row,
    stirling2,
)
from fubinipoly.exactpoly import Polynomial


# --- independent oracle: set partitions by direct enumeration -----------------

def _partition_counts(n):
    """counts[k] = number of partitions of {0..n-1} into exactly k blocks,
    by enumerating restricted growth strings."""
    counts = [0] * (n + 1)

    def grow(i, blocks):
        if i == n:
            counts[blocks] += 1
            return
        for b in range(blocks + 1):
            grow(i + 1, blocks + (1 if b == blocks else 0))

    if n == 0:
        counts[0] = 1
    else:
        grow(0, 0)
    return counts


def test_stirling2_against_enumeration():
    for n in range(0, 9):
        counts = _partition_counts(n)
        for k in range(n + 1):
            assert stirling2(n, k) == counts[k]


def test_stirling2_basics():
    assert stirling2(0, 0) == 1
    assert stirling2(1, 1) == 1
    assert stirling2(4, 2) == 7
    for n in range(1, 12):
        assert stirling2(n, 1) == 1
        assert stirling2(n, n) == 1
        assert stirling2(n, 0) == 0


def test_stirling2_rejects_bad_indices():
    with pytest.raises(ValueError):
        stirling2(3, 4)
    with pytest.raises(ValueError):
        stirling2(-1, 0)


def test_sf_is_scaled_stirling2():
    # two independent recurrences must agree
    for n in range(0, 21):
        for k in range(n + 1):
            assert sf(n, k) == math.factorial(k) * stirling2(n, k)


def test_sf_values():
    assert sf(4, 2) == 14
    assert sf(3, 0) == 0
    for n in range(0, 9):
        assert sf(n, n) == math.factorial(n)
    assert sf_row(3) == (0, 1, 6, 6)
    with pytest.raises(ValueError):
        sf(2, 3)


# --- harmonic numbers ----------------------------------------------------------

def test_harmonic_values():
    assert harmonic(1) == 1
    assert harmonic(2) == Fraction(3, 2)
    assert harmonic(4) == Fraction(25, 12)


def test_harmonic_matches_direct_summation():
    total = Fraction(0)
    for n in range(1, 60):
        total += Fraction(1, n)
        assert harmonic(n) == total


def test_harmonic_rejects_zero():
    with pytest.raises(ValueError):
        harmonic(0)
    with pytest.raises(ValueError):
        harmonic(-3)


# --- binomials -------------------------------------------------------------------

def test_binomial():
    assert binomial(5, 2) == 10
    assert binomial(3, 5) == 0
    for n in range(10):
        assert binomial(n, 0) == 1
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_rat():
    for k in range(10):
        assert binomial_rat(-1, k) == (-1) ** k
        assert binomial_rat(Fraction(7, 3), 0) == 1
    assert binomial_rat(Fraction(1, 2), 2) == Fraction(-1, 8)
    for m in range(8):
        for k in range(8):
            assert binomial_rat(m, k) == binomial(m, k)


# --- Bernoulli numbers -------------------------------------------------------------

# classic values, cross-computed by both routes below before freezing
_BERNOULLI_TABLE = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
}


def test_bernoulli_known_values():
    for n, value in _BERNOULLI_TABLE.items():
        assert bernoulli(n) == value
        assert bernoulli_akiyama_tanigawa(n) == value


def test_bernoulli_odd_vanish():
    for k in range(1, 30):
        assert bernoulli(2 * k + 1) == 0


def test_bernoulli_two_routes_agree():
    for n in range(0, 61):
        assert bernoulli(n) == bernoulli_akiyama_tanigawa(n)


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


# --- Bernoulli polynomials -----------------------------------------------------------

def test_bernoulli_poly_base_cases():
    assert bernoulli_poly(0) == Polynomial([1])
    assert bernoulli_poly(1) == Polynomial([Fraction(-1, 2), 1])
    assert bernoulli_poly(2) == Polynomial([Fraction(1, 6), -1, 1])


def test_bernoulli_poly_defining_relations():
    for n in range(1, 16):
        assert bernoulli_poly(n).derivative() == bernoulli_poly(n - 1) * n
        assert bernoulli_poly(n)(0) == bernoulli(n)
        assert bernoulli_poly(n).degree == n


def test_monomial_expansion_in_rising_binomials():
    # x^n = sum_k SF(n,k) C(x,k) as an exact polynomial identity
    binom_polys = [Polynomial.one()]
    for k in range(1, 13):
        binom_polys.append(binom_polys[-1] * Polynomial([-(k - 1), 1]) * Fraction(1, k))
    for n in range(0, 13):
        total = Polynomial.zero()
        for k in range(n + 1):
            total = total + binom_polys[k] * sf(n, k)
        assert total == Polynomial.monomial(1, n)


# --- memo table -------------------------------------------------------------

def test_memo_table_override_never_feeds_later_rows():
    table = MemoTable([0], lambda prev, n: prev + n)
    with table.override(3, 100):
        assert table[3] == 100
        assert table[4] == 10           # grown from the true row 3 = 6
    assert table[3] == 6
    with pytest.raises(RuntimeError):
        with table.override(2, -1):
            raise RuntimeError
    assert table[2] == 3


# --- shared-cache concurrency smoke ----------------------------------------------------

def test_triangle_extension_is_thread_safe():
    results = []
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            acc = []
            for _ in range(200):
                n = rng.randint(0, 80)
                k = rng.randint(0, n)
                acc.append((n, k, sf(n, k)))
            results.append(acc)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for acc in results:
        for n, k, value in acc:
            assert value == sf(n, k)
