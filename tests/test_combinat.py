import math
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction

import pytest

from fubinipoly import combinat
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
    worpitzky_sum,
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


@pytest.mark.parametrize("x", [0.5, 3.0, "1/2", None], ids=repr)
def test_binomial_rat_refuses_inexact_points(x):
    with pytest.raises(TypeError):
        binomial_rat(x, 2)
    with pytest.raises(TypeError):
        binomial_rat(x, 0)


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
    for n in range(0, 201):
        value = bernoulli(n)
        assert type(value) is Fraction, n
        assert value == bernoulli_akiyama_tanigawa(n), n


def test_growing_bernoulli_reads_no_sf_row_and_holds_one_zigzag_row():
    # A fresh interpreter, so no other test has grown the tables.
    script = ("from fubinipoly import combinat\n"
              "combinat.bernoulli(600)\n"
              "print(len(combinat.sf_table._rows),"
              " sum(row is not None for row in combinat.zigzag_table._rows[1:]))\n")
    package_parent = os.path.dirname(os.path.dirname(os.path.abspath(combinat.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": package_parent})
    assert proc.returncode == 0, proc.stderr
    sf_rows, zigzag_rows = map(int, proc.stdout.split())
    assert sf_rows == 1
    assert zigzag_rows <= 1


def _worpitzky_sum_by_fraction_steps(terms):
    # The Fraction-per-step reference: each term normalised by a gcd as it joins.
    total = Fraction(0)
    for v, x in enumerate(terms, 1):
        term = Fraction(x) / (v + 1)
        total += -term if v % 2 else term
    return total


def test_bernoulli_matches_fraction_step_worpitzky_oracle():
    assert type(bernoulli(0)) is Fraction
    for n in range(1, 201):
        value = bernoulli(n)
        assert type(value) is Fraction, n
        assert value == _worpitzky_sum_by_fraction_steps(sf_row(n)[1:]), n


def test_worpitzky_sum_on_random_terms():
    rng = random.Random(17)
    assert worpitzky_sum(()) == 0 and type(worpitzky_sum(())) is Fraction
    for _ in range(200):
        length = rng.randint(1, 30)
        terms = [rng.randint(-10 ** 12, 10 ** 12) if rng.random() < 0.6
                 else Fraction(rng.randint(-999, 999), rng.randint(1, 99)) for _ in range(length)]
        value = worpitzky_sum(terms)
        assert type(value) is Fraction
        assert value == _worpitzky_sum_by_fraction_steps(terms), terms


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


def test_bernoulli_poly_matches_the_fraction_product_form():
    # Each coefficient is formed as one Fraction over B_(n-k)'s denominator;
    # the reference multiplies C(n,k) by the Fraction B_(n-k).  Both give the
    # same reduced values, and the same int where the value is whole.
    for n in range(131):
        want = [math.comb(n, k) * bernoulli(n - k) for k in range(n + 1)]
        got = bernoulli_poly(n).coefficients
        assert got == Polynomial(want).coefficients, n
        assert [type(c) for c in got] == [type(c) for c in Polynomial(want).coefficients], n


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
    # a row another table grows from the replacement is dropped at the end
    doubled = MemoTable([0], lambda prev, n: 2 * table[n])
    with table.override(6, 100):
        assert doubled[6] == 200
    assert doubled[6] == 42


def test_memo_table_rebuilds_a_released_row_from_the_nearest_row_below():
    table = MemoTable([0], lambda prev, n: prev + n)
    assert table[6] == 21
    table.release(5)
    assert table._rows == [0, None, None, None, None, 15, 21]
    assert table[3] == 6
    assert table._rows == [0, 1, 3, 6, None, 15, 21]
    table.release(4)                    # row 4 is not held: row 3 stays to step it from
    assert table._rows == [0, None, None, 6, None, 15, 21]
    table.release(99)                   # past the end: every row but the base and the top
    assert table._rows == [0] + [None] * 5 + [21]
    assert table[8] == 36               # stepped up from row 6, past the end
    assert table._rows == [0] + [None] * 5 + [21, 28, 36]


def test_memo_table_releases_nothing_inside_an_override_block():
    table = MemoTable([0], lambda prev, n: prev + n)
    table[6]
    with table.override(3, 100):
        table.release(7)
        assert table._rows == [0, 1, 3, 100, 10, 15, 21]
    table.release(7)
    assert table[3] == 6


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


def test_reads_racing_a_release_never_see_a_missing_or_wrong_row():
    truth = [sf_row(n) for n in range(61)]
    table = MemoTable([(1,)], combinat._sf_row)
    done = threading.Event()
    errors = []

    def reader(seed):
        rng = random.Random(seed)
        try:
            for _ in range(2000):
                n = rng.randint(0, 60)
                row = table[n]
                if row != truth[n]:
                    errors.append((n, row))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    def releaser():
        rng = random.Random(99)
        while not done.is_set():
            table.release(rng.randint(1, 62))

    readers = [threading.Thread(target=reader, args=(s,)) for s in range(3)]
    release = threading.Thread(target=releaser)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        release.start()
        for t in readers:
            t.start()
        for t in readers:
            t.join(timeout=120)
    finally:
        done.set()
        release.join(timeout=120)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in readers + [release])
    assert errors == []


class _ReleaseOnUnlock:
    """A table lock that, when a read unlocks it, lets a release of every
    row below the top run before the read goes on: the worst interleaving
    for a read that has just built its row."""

    def __init__(self, table):
        self.lock = threading.Lock()
        self.table = table
        self.armed = True

    def __enter__(self):
        self.lock.acquire()

    def __exit__(self, *exc):
        self.lock.release()
        if self.armed:
            self.armed = False
            self.table.release(len(self.table._rows) - 1)


def test_a_read_returns_the_row_it_built_though_a_release_lands_at_once():
    table = MemoTable([0], lambda prev, n: prev + n)
    table[6]
    table.release(6)
    table._lock = _ReleaseOnUnlock(table)
    assert table[5] == 15
    assert table._rows == [0] + [None] * 5 + [21]
