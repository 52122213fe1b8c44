"""Exact combinatorial numbers: Stirling set numbers, their k!-scaled variant,
harmonic numbers, binomial coefficients, Bernoulli numbers and polynomials.

Sign convention: Bernoulli numbers follow the generating function z/(e^z - 1),
so B_1 = -1/2.  Many references use B_1 = +1/2 instead; every special-value
identity in this library depends on the minus convention, so it is fixed here
and cross-checked by two independent algorithms (see :func:`bernoulli` and
:func:`bernoulli_akiyama_tanigawa`).
"""
from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from fractions import Fraction
from typing import Any, Callable, Iterator, List, Sequence

from .exactpoly import Polynomial, Rational, exact, index


class MemoTable:
    """Rows of an exact table, memoized and grown on demand.

    ``table[n]`` returns row n; a missing row m is computed as
    ``extend(table[m - 1], m)`` under this table's own lock, so completed
    rows are never recomputed and are safe to read from any thread.  Rows
    are whatever ``extend`` returns (a tuple of a triangle's row or a single
    number) and must not be mutated.  Indices are not validated here; the
    public functions that read a table do that.
    """

    __slots__ = ("_rows", "_extend", "_lock")
    _all: List["MemoTable"] = []        # every table made, for override to cut back

    def __init__(self, first_rows: Sequence, extend: Callable[[Any, int], Any]):
        self._rows: List = list(first_rows)
        self._extend = extend
        self._lock = threading.Lock()
        MemoTable._all.append(self)

    def __getitem__(self, n: int):
        rows = self._rows
        if n < len(rows):
            return rows[n]
        with self._lock:
            while len(rows) <= n:
                m = len(rows)
                rows.append(self._extend(rows[m - 1], m))
        return rows[n]

    @contextmanager
    def override(self, n: int, value) -> Iterator[None]:
        """Replace row n by ``value`` for the duration of the block, for
        fault-injection tests.  Row n + 1 is grown first, so no later row of
        this table is derived from the replacement.  Rows that any table
        grows inside the block may be, so at its end every table is cut back
        to its length at the start; rows grown before keep their values."""
        self[n + 1]
        lengths = [(table, len(table._rows)) for table in MemoTable._all]
        original = self._rows[n]
        self._rows[n] = value
        try:
            yield
        finally:
            self._rows[n] = original
            for table, length in lengths:
                with table._lock:
                    del table._rows[length:]


def _stirling2_row(prev: Sequence, n: int) -> tuple:
    # S2(n,k) = k*S2(n-1,k) + S2(n-1,k-1)
    return tuple((k * prev[k] if k < n else 0) + (prev[k - 1] if k >= 1 else 0)
                 for k in range(n + 1))


def _sf_row(prev: Sequence, n: int) -> tuple:
    # SF(n,k) = k*(SF(n-1,k) + SF(n-1,k-1))
    return tuple(k * ((prev[k] if k < n else 0) + (prev[k - 1] if k >= 1 else 0))
                 for k in range(n + 1))


def worpitzky_sum(terms: Sequence[Rational]) -> Fraction:
    """The alternating sum sum_{v=1..n} (-1)^v x_v / (v+1) of
    ``terms = (x_1, ..., x_n)``, as one Fraction.

    Each x_v is split by divmod into q (v+1) + r with 0 <= r <= v (for a
    Fraction x_v, q is an int and r a Fraction).  The quotients are summed
    as they are and the remainders over den = lcm(2..n+1), the lcm of the
    denominators v+1, so nothing is reduced by a gcd until the one Fraction
    formed at the end."""
    den = math.lcm(*range(2, len(terms) + 2))
    whole = part = 0
    for v, x in enumerate(terms, 1):
        q, r = divmod(x, v + 1)
        r *= den // (v + 1)
        if v % 2:
            whole, part = whole - q, part - r
        else:
            whole, part = whole + q, part + r
    return Fraction(whole * den + part, den)


def _bernoulli_value(prev: Fraction, n: int) -> Fraction:
    # B_n = sum_{v=1..n} SF(n,v) (-1)^v / (v+1), read from the SF table itself
    return worpitzky_sum(sf_table[n][1:])


stirling2_table = MemoTable([(1,)], _stirling2_row)
sf_table = MemoTable([(1,)], _sf_row)
# Index 0 is an internal base, never exposed.
harmonic_table = MemoTable([Fraction(0)], lambda prev, n: prev + Fraction(1, n))
bernoulli_table = MemoTable([Fraction(1)], _bernoulli_value)


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into k nonempty blocks."""
    n = index(n, 0)
    k = index(k, 0, n, "k")
    return stirling2_table[n][k]


def sf(n: int, k: int) -> int:
    """The scaled Stirling number k! * S2(n, k), counting ordered partitions
    of an n-set into k blocks; computed by its own triangle recurrence."""
    n = index(n, 0)
    k = index(k, 0, n, "k")
    return sf_table[n][k]


def sf_row(n: int) -> tuple:
    """Row n of the scaled-Stirling triangle: (SF(n,0), ..., SF(n,n))."""
    return sf_table[index(n, 0)]


def harmonic(n: int) -> Fraction:
    """Exact n-th harmonic number, the partial sum 1 + 1/2 + ... + 1/n.

    n = 0 is rejected: no formula in this library evaluates H_0.
    """
    return harmonic_table[index(n, 1)]


def binomial(n: int, k: int) -> int:
    """Pascal-triangle binomial coefficient; 0 when k > n."""
    return math.comb(index(n, 0), index(k, 0, name="k"))


def binomial_rat(x: Rational, k: int) -> Fraction:
    """Generalized binomial coefficient x(x-1)...(x-k+1) / k! for rational x."""
    k = index(k, 0, name="k")
    x = exact(x)
    num = Fraction(1)
    for i in range(k):
        num *= x - i
    return num / math.factorial(k)


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with B_1 = -1/2.

    Primary route: B_n = sum_{v=1..n} SF(n,v) * (-1)^v / (v+1) for n >= 1
    (Worpitzky's summation), B_0 = 1.  Values are memoized; the independent
    Akiyama-Tanigawa route exists purely as a cross-check.
    """
    return bernoulli_table[index(n, 0)]


def bernoulli_akiyama_tanigawa(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2) by the Akiyama-Tanigawa algorithm.

    Shares no code or tables with :func:`bernoulli`; the in-place
    transformation natively yields the +1/2 convention, so the result is
    reflected by (-1)^n to match the library's convention.
    """
    n = index(n, 0)
    row = [Fraction(1, j + 1) for j in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(n + 1 - i):
            row[j] = (j + 1) * (row[j] - row[j + 1])
    return -row[0] if n % 2 else row[0]


def bernoulli_poly(n: int) -> Polynomial:
    """Bernoulli polynomial B_n(x) = sum_{k=0..n} C(n,k) B_(n-k) x^k, built
    afresh on each call from the memoized Bernoulli numbers.  It satisfies
    B_0(x) = 1, B_n'(x) = n B_(n-1)(x) and B_n(0) = B_n."""
    n = index(n, 0)
    return Polynomial([math.comb(n, k) * bernoulli_table[n - k] for k in range(n + 1)])
