"""Exact combinatorial numbers: Stirling set numbers, their k!-scaled variant,
harmonic numbers, binomial coefficients, Bernoulli numbers and polynomials.

Sign convention: Bernoulli numbers follow the generating function z/(e^z - 1),
so B_1 = -1/2.  Many references use B_1 = +1/2 instead; every special-value
identity in this library depends on the minus convention, so it is fixed here
and cross-checked by two independent algorithms (see :func:`bernoulli` and
:func:`bernoulli_akiyama_tanigawa`).  :func:`bernoulli` reads the tangent
numbers of Seidel's boustrophedon and no SF row, so the identities that tie
an SF row to B_n compare two tables.
"""
from __future__ import annotations

import itertools
import math
import threading
from contextlib import contextmanager
from fractions import Fraction
from typing import Any, Callable, Iterator, List, Sequence

from .exactpoly import Polynomial, Rational, exact, index


class MemoTable:
    """Rows of an exact table, memoized and grown on demand.

    ``table[n]`` returns row n.  A row that is absent (past the end, or
    released) is stepped as ``extend(table[m - 1], m)`` up from the nearest
    row the table holds below it, under this table's own lock, and every row
    stepped is kept; so a row is computed once until it is released, and is
    safe to read from any thread.  ``release(below)`` drops rows
    1..below - 1 (keeping the highest of them held if row ``below`` is not),
    and a later read rebuilds them: a ``verify`` pass that
    serves no lambda row releases the SF rows below n - 1 as it reaches
    index n, and :func:`bernoulli` keeps one row of the zigzag table.
    Row 0 is the base and is never dropped.  Rows are whatever
    ``extend`` returns (a tuple of a triangle's row or a single number) and
    must not be mutated.  Indices are not validated here; the public
    functions that read a table do that.
    """

    __slots__ = ("_rows", "_extend", "_lock")
    _all: List["MemoTable"] = []        # every table made, for override to cut back
    _overrides = 0                      # override blocks in force; release waits for none

    def __init__(self, first_rows: Sequence, extend: Callable[[Any, int], Any]):
        self._rows: List = list(first_rows)
        self._extend = extend
        self._lock = threading.Lock()
        MemoTable._all.append(self)

    def __getitem__(self, n: int):
        try:
            row = self._rows[n]
        except IndexError:
            row = None
        if row is not None:
            return row
        with self._lock:
            rows = self._rows
            rows += [None] * (n + 1 - len(rows))
            m = n
            while rows[m] is None:
                m -= 1
            row = rows[m]
            for m in range(m + 1, n + 1):
                row = rows[m] = self._extend(row, m)
        return row

    def release(self, below: int) -> None:
        """Drop rows 1..below - 1 until they are read again.  If row
        ``below`` is not held, the highest of them that is stays, so row
        ``below`` is stepped up from it and not from row 0.  While any
        override block is in force nothing is dropped, so no row is rebuilt
        from a replacement."""
        with self._lock:
            rows = self._rows
            stop = min(below, len(rows))
            if below >= len(rows) or rows[below] is None:
                stop = next((m for m in range(stop - 1, 0, -1) if rows[m] is not None), 1)
            if stop > 1 and not MemoTable._overrides:
                rows[1:stop] = [None] * (stop - 1)

    @contextmanager
    def override(self, n: int, value) -> Iterator[None]:
        """Replace row n by ``value`` for the duration of the block, for
        fault-injection tests.  Row n + 1 is grown first, so no later row of
        this table is derived from the replacement, and no table releases a
        row inside the block, so none is rebuilt from it.  Rows that any
        table grows inside the block may be derived from it, so at its end
        every table is cut back to its length at the start; rows grown
        before keep their values."""
        self[n + 1]
        lengths = [(table, len(table._rows)) for table in MemoTable._all]
        original = self._rows[n]
        self._rows[n] = value
        MemoTable._overrides += 1
        try:
            yield
        finally:
            MemoTable._overrides -= 1
            self._rows[n] = original
            for table, length in lengths:
                with table._lock:
                    del table._rows[length:]


def _stirling2_row(prev: tuple, n: int) -> tuple:
    # S2(n,k) = k*S2(n-1,k) + S2(n-1,k-1)
    return tuple([k * c + c_below for k, (c, c_below) in enumerate(zip(prev + (0,), (0,) + prev))])


def _sf_row(prev: tuple, n: int) -> tuple:
    # SF(n,k) = k*(SF(n-1,k) + SF(n-1,k-1))
    return tuple([k * (c + c_below) for k, (c, c_below) in enumerate(zip(prev + (0,), (0,) + prev))])


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


def _zigzag_row(prev: tuple, n: int) -> tuple:
    # Seidel's boustrophedon: row n is the running sums of row n-1 read
    # backwards, from 0; its last entry is the zigzag number E_n.
    return tuple(itertools.accumulate(reversed(prev), initial=0))


def _bernoulli_value(prev: Fraction, n: int) -> Fraction:
    # B_1 = -1/2 and B_n = 0 for odd n > 1, stated; for n = 2k,
    # B_n = (-1)^(k-1) n E_(n-1) / (2^n (2^n - 1)), with the tangent number
    # E_(n-1) read from the zigzag table, which then keeps only that row.
    # Rows n-2 and n-1 are read and released in turn, so each read steps
    # one row and no more than two rows are held at once.
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    for m in (n - 2, n - 1):
        e = zigzag_table[m][-1]
        zigzag_table.release(m)
    return Fraction((-1) ** (n // 2 - 1) * n * e, 2 ** n * (2 ** n - 1))


stirling2_table = MemoTable([(1,)], _stirling2_row)
sf_table = MemoTable([(1,)], _sf_row)
# Index 0 is an internal base, never exposed.
harmonic_table = MemoTable([Fraction(0)], lambda prev, n: prev + Fraction(1, n))
zigzag_table = MemoTable([(1,)], _zigzag_row)
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


def _ordered_partition_count(n: int) -> int:
    """Count ordered set partitions of an n-set, n >= 1, by exhaustive
    enumeration: each set partition as a restricted growth string, then each
    order of its blocks by ``itertools.permutations``.  No memoization, no
    closed form, and no table read: ``verify``'s fubini-numbers compares
    F_n(1) with this count, which shares no code with the SF triangle.
    Every order is a nonempty tuple, so ``map(bool, ...)`` counts the orders
    at C speed, and none is stored."""

    def set_partitions(i: int, blocks: tuple) -> Iterator[tuple]:
        # element i joins one of the blocks opened so far, or opens the next one
        if i == n:
            yield blocks
            return
        for j, block in enumerate(blocks + ((),)):
            yield from set_partitions(i + 1, blocks[:j] + (block + (i,),) + blocks[j + 1:])

    return sum(sum(map(bool, itertools.permutations(blocks))) for blocks in set_partitions(0, ()))


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

    Primary route: B_0 = 1, B_1 = -1/2, B_n = 0 for odd n > 1, and
    B_(2k) = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) for the tangent number
    T_k = E_(2k-1), the last entry of row 2k - 1 of Seidel's boustrophedon
    (Brent and Harvey, arXiv:1108.0286): integers only, one row stepped from
    the one before.  Values are memoized; the independent Akiyama-Tanigawa
    route exists purely as a cross-check.
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
    B_0(x) = 1, B_n'(x) = n B_(n-1)(x) and B_n(0) = B_n.  Each coefficient
    is one Fraction(C(n,k) num, den) of B_(n-k) = num/den, reduced by one
    gcd, or an int where den is 1."""
    n = index(n, 0)
    coeffs = []
    for k in range(n + 1):
        b = bernoulli_table[n - k]
        c = math.comb(n, k) * b.numerator
        coeffs.append(c if b.denominator == 1 else Fraction(c, b.denominator))
    return Polynomial(coeffs)
