"""Named identity checks, executed exactly over a range of n.

Every check compares two independently computed exact values over the
index range it declares; a report carries that range, pass/fail/empty, and
on failure the smallest failing index together with both sides rendered as
self-contained strings.
Randomized checks draw from a seeded generator and record the seed.
"""
from __future__ import annotations

import math
import operator
import random
import time
from contextvars import ContextVar
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .combinat import _ordered_partition_count, bernoulli, harmonic, sf_row, sf_table, worpitzky_sum
from .exactpoly import Polynomial, _fold, format_value, index
from .fubini import fubini_direct, lambda_poly, power_sum_gn, power_sum_poly, psi_from_hfubini
from .transforms import binomial_transform, euler_hadamard, hadamard, hfubini_via_derivatives

DEFAULT_SEED = 0

_MINUS_HALF = Fraction(-1, 2)

# A generator yields one list per index of its check's declared range, in
# ascending order: the (lhs, rhs) pairs of that index (the witness n, or the
# case number for randomized checks), lhs and rhs exact comparables.  So the
# first failing pair is one at the smallest failing index.
Cases = List[Tuple[object, object]]
CaseGen = Callable[[range, random.Random], Iterator[Cases]]


class IdentityCheck(NamedTuple):
    check_id: str
    description: str
    randomized: bool
    indices: Callable[[int], range]   # the indices scanned for a given max_n
    cases: CaseGen


class IdentityReport(NamedTuple):
    check_id: str
    n_min: int
    n_max: int
    status: str                       # "pass" | "fail" | "empty" (no case evaluated)
    witness_n: Optional[int]
    lhs: Optional[str]
    rhs: Optional[str]
    seed: Optional[int]
    elapsed_ms: int

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return self._asdict()


# --- rows shared within a pass -----------------------------------------------

# For the running pass, build -> (n, build(n)): the one row of each kind
# that the checks of a pass share.  It is set only while a pass runs.
_pass_rows: ContextVar[Dict[Callable, Tuple[int, object]]] = ContextVar("fubinipoly_pass_rows")


def _row(build: Callable[[int], object], n: int):
    """build(n), built once and held until the running pass builds another
    row of its kind: every check of a pass reads the rows of the index the
    pass has reached, and no check's range steps by more than two.  A build
    may step row n from row n - 1 of its own kind, read through _row: the
    first read of a kind in a pass recurses down to row 1, at most three
    deep as no range starts above 3, and every later read steps once from
    the held row.  The store lives only as long as its pass, so a
    memo-table override made between passes always reaches the rows."""
    rows = _pass_rows.get()
    held = rows.get(build)
    if held is None or held[0] != n:
        held = rows[build] = n, build(n)
    return held[1]


# --- check bodies ----------------------------------------------------------


def _cases_fs_at_minus_one(ns: range, rng: random.Random) -> Iterator[Cases]:
    for n in ns:
        yield [(fubini_direct(n)(-1), (-1) ** n)]


def _cases_fh_at_minus_one(ns: range, rng: random.Random) -> Iterator[Cases]:
    for n in ns:
        yield [(_fhat(n)(-1), Fraction((-1) ** n * n))]


def _cases_worpitzky_integral(ns: range, rng: random.Random) -> Iterator[Cases]:
    for n in ns:
        yield [(fubini_direct(n).definite_integral(-1, 0), bernoulli(n))]


def _cases_fs_central_value(ns: range, rng: random.Random) -> Iterator[Cases]:
    for n in ns:
        rhs = Fraction(-2) * (2 ** (n + 1) - 1) * bernoulli(n + 1) / (n + 1)
        yield [(fubini_direct(n)(_MINUS_HALF), rhs)]


def _cases_thm_main_integral(ns: range, rng: random.Random) -> Iterator[Cases]:
    for n in ns:
        rhs = -Fraction(n, 2) * bernoulli(n - 1)
        yield [(_fhat(n).definite_integral(-1, 0), rhs)]


def _cases_thm_main_central(ns: range, rng: random.Random) -> Iterator[Cases]:
    for n in ns:
        rhs = -Fraction(n - 1, 2) * fubini_direct(n - 1)(_MINUS_HALF)
        yield [(_fhat(n)(_MINUS_HALF), rhs)]


def _cases_cor_psi_odd(ns: range, rng: random.Random) -> Iterator[Cases]:
    for n in ns:
        yield [(psi_from_hfubini(n, _fhat(n))(_MINUS_HALF), Fraction(0))]


def _delta_plus(c: tuple, j: int, u: tuple) -> list:
    """The coefficients of (delta + j x) f + g, for ``c`` those of f, ``u``
    those of g and delta = (x^2+x) d/dx, the operator of the F recurrence:
    coefficient k is k c_k + (k-1+j) c_(k-1) + u_k."""
    m = max(len(c) + 1, len(u))
    c += (0,) * (m - len(c))
    u += (0,) * (m - len(u))
    return [k * v + (k - 1 + j) * w + a for k, v, w, a in zip(range(m), c, (0,) + c, u)]


def _lambda_entry(n: int, nu: int, c: tuple, below: tuple) -> tuple:
    """The trimmed coefficients of lambda(n, nu) = delta lambda(n-1, nu) +
    lambda(n-1, nu-1) + x [nu == n-1], from those, ``c``, of lambda(n-1, nu)
    and ``below`` of lambda(n-1, nu-1), each () outside row n - 1."""
    out = _delta_plus(c, 0, below)
    if nu == n - 1:
        out[1] += 1
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _served_lambda_row(n: int) -> tuple:
    """(lambda(n, 1), ..., lambda(n, n)) as :func:`lambda_poly` serves them."""
    return tuple(lambda_poly(n, v) for v in range(1, n + 1))


def _lambda_recurrence(n: int) -> Tuple[tuple, Optional[tuple]]:
    """(served row n, miss): the row :func:`_served_lambda_row` holds, and
    for the first entry of rows 1..n that differs from the recurrence the
    report pair ((nu, served), (nu, recurrence)), or None.  Row n is stepped
    by :func:`_lambda_entry` from served row n - 1, which has matched
    already: by induction, the first served entry that differs is the first
    that differs from the recurrence rolled from lambda(1, 1) = 1.  After a
    miss no row is compared again."""
    prev, miss = _row(_lambda_recurrence, n - 1) if n > 1 else ((), None)
    served = _row(_served_lambda_row, n)
    if miss is None:
        c = [()] + [lam.coefficients for lam in prev] + [()]    # row n - 1, () outside it
        for nu, lam in enumerate(served, 1):
            want = (1,) if n == 1 else _lambda_entry(n, nu, c[nu], c[nu - 1])
            if lam.coefficients != want:
                return served, ((nu, lam), (nu, Polynomial(want)))
    return served, miss


def _hfubini_row(n: int) -> Tuple[Polynomial, tuple]:
    """(Fhat_n, (D_1, ..., D_n)): Fhat_n equal to ``fubini.hfubini_direct(n)``
    and D_k = k (H_k - H_(k-1)), which is 1 for the true harmonic numbers.
    Both are stepped from row n - 1 as the running pass holds it, so each
    row is stepped once.  T(n,k) = SF(n,k) H_k obeys T(n,k) = k (T(n-1,k) +
    T(n-1,k-1)) + SF(n-1,k-1) D_k by the SF rule alone, for any values the
    H table holds: one small multiply-add per coefficient and no division."""
    if n == 1:
        prev, steps, d_n = Polynomial.zero(), (), harmonic(1)
    else:
        (prev, steps), d_n = _row(_hfubini_row, n - 1), n * (harmonic(n) - harmonic(n - 1))
    steps += (d_n.numerator if d_n.denominator == 1 else d_n,)
    t = prev.coefficients
    t += (0,) * (n - len(t))
    return Polynomial([0] + [k * (a + b) + s * d for k, a, b, s, d in
                             zip(range(1, n + 1), t[1:] + (0,), t, sf_row(n - 1), steps)]), steps


def _fhat(n: int) -> Polynomial:
    """Fhat_n as the running pass holds it."""
    return _row(_hfubini_row, n)[0]


def _cases_lambda_expansion(ns: range, rng: random.Random) -> Iterator[Cases]:
    # The first served entry that differs from the recurrence is reported as
    # (nu, served) against (nu, recurrence) (:func:`_lambda_recurrence`).
    # Once every row matches, the expansion is proved by the Leibniz rule:
    # F_(k+1) = (delta + x) F_k from F_0 = 1, so
    # Q_m = sum_(j<m) C(m,j) F_(j+1) F_(m-1-j) steps as Q_0 = 0,
    # Q_(m+1) = (delta + 2x) Q_m + F_(m+1), and by the closed form of lambda
    # Fhat_n = F_n - (n-1) F_(n-1) + (x+1) Q_(n-1).  Both run on int
    # coefficients; a Polynomial is built only for a report.
    q, k = (), 0                                            # Q_k
    for n in ns:
        miss = _row(_lambda_recurrence, n)[1]
        if miss:
            yield [miss]
            return
        fhat = _fhat(n)
        while k < n - 1:
            k += 1
            q = tuple(_delta_plus(q, 2, sf_row(k)))
        got = [f + v + w - (n - 1) * g for f, v, w, g in
               zip_longest(sf_row(n), q, (0,) + q, sf_row(n - 1), fillvalue=0)]
        yield [(fhat if got == [*fhat.coefficients] else Polynomial(got), fhat)]


def _cases_lambda_degree_P(ns: range, rng: random.Random) -> Iterator[Cases]:
    for n in ns:
        yield [((v, lam.degree, lam.has_nonneg_int_coeffs()), (v, n - v, True))
               for v, lam in enumerate(_row(_served_lambda_row, n), 1)]


def _cases_lambda_top(ns: range, rng: random.Random) -> Iterator[Cases]:
    # The top two entries of a row of the recurrence read only the top two of
    # the row before, so they are rolled forward alone from lambda(1, 1) = 1.
    top, sub, m = (1,), (), 1                   # coefficients of lambda(m, m), lambda(m, m-1)
    for n in ns:
        while m < n:
            m += 1
            top, sub = _lambda_entry(m, m, (), top), _lambda_entry(m, m - 1, top, sub)
        cases = [(Polynomial(top), Polynomial.one())]
        if n >= 2:
            cases.append((Polynomial(sub), Polynomial.monomial(n - 1, 1)))
        yield cases


def _cases_lambda_reflection(ns: range, rng: random.Random) -> Iterator[Cases]:
    # In every row of the recurrence, lambda(n, nu) = C(n-1, nu-1)
    # lambda(a+2, 1) for nu <= n-2, a = n-1-nu: Pascal's rule, as
    # lambda(m, 1) = delta lambda(m-1, 1).  A positive integer multiple of a
    # member of the class is a member: the factor keeps each coefficient a
    # nonnegative integer and scales both reflection parts, so B = 0, or
    # 2A = B, still holds.  So while the served rows match the recurrence
    # (no miss), only lambda(n, 1) is split at each n: any other entry is a
    # multiple of a lambda(a+2, 1) that this scan split at an earlier index,
    # provided that index is in the scan, and that passed, as a failed split
    # ends the scan.  Every other entry, such as a corrupted one, is split in
    # full.
    for n in ns:
        row, miss = _row(_lambda_recurrence, n)
        yield [((v, (miss is None and 1 < v <= n + 1 - ns.start)
                 or lam.in_reflection_class(_MINUS_HALF)), (v, True))
               for v, lam in enumerate(row[:n - 2], 1)]


_CLOSURE_CASES = 200


def _random_reflection_member(rng: random.Random, m: int) -> Polynomial:
    """A random member of the reflection class at alpha = -m/2, built from the
    generator polynomials 2x+m (odd) and x^2+mx (even) and nonnegative
    constants, so membership holds by construction."""
    if rng.random() < 0.05:
        return Polynomial.zero()
    linear = Polynomial([m, 2])
    quadratic = Polynomial([0, m, 1])
    f = Polynomial([rng.randint(1, 3)])
    for _ in range(rng.randint(0, 3)):
        f = f * rng.choice((linear, quadratic))
    return f


def _cases_semiring_closure(ns: range, rng: random.Random) -> Iterator[Cases]:
    for _ in ns:
        m = rng.randint(0, 4)
        alpha = Fraction(-m, 2)
        f = _random_reflection_member(rng, m)
        g = _random_reflection_member(rng, m)
        cases = [(("product", (f * g).in_reflection_class(alpha)), ("product", True))]
        if (f.degree is not None and g.degree is not None
                and (f.degree - g.degree) % 2 == 0):
            cases.append((("sum", (f + g).in_reflection_class(alpha)), ("sum", True)))
        cases.append((("derivative", f.derivative().in_reflection_class(alpha)),
                      ("derivative", True)))
        if f.degree is not None and f.degree % 2 == 1:
            cases.append((("odd degree value at axis", f(alpha)),
                          ("odd degree value at axis", Fraction(0))))
        yield cases


# lambda(n, nu) for n = 1..4, nu = 1..n, coefficients constant term first.
_GOLDEN_LAMBDA_ROWS = {
    1: ((1,),),
    2: ((0, 1), (1,)),
    3: ((0, 1, 1), (0, 2), (1,)),
    4: ((0, 1, 3, 2), (0, 3, 3), (0, 3), (1,)),
}


def _cases_table_fh_fs(ns: range, rng: random.Random) -> Iterator[Cases]:
    for n in ns:
        expected = tuple(Polynomial(c) for c in _GOLDEN_LAMBDA_ROWS[n])
        yield [(_row(_served_lambda_row, n), expected)]


def _cases_remainder_vanishes(ns: range, rng: random.Random) -> Iterator[Cases]:
    # remainder_R(n)(-1/2), summed term by term: evaluation at -1/2 is a ring
    # homomorphism, so the value is the same without building the polynomial.
    # A polynomial with coefficients c takes the value A / 2^(len(c) - 1) at
    # -1/2, with A = _fold(c, -1, 2) an integer, so the terms are summed in
    # integers over the largest power of two among them (2^n for the true
    # rows) and one Fraction is formed per n.  A term whose F_v(-1/2) is 0, as
    # it is for every even v, adds exactly 0, and its lambda entry is not
    # evaluated.
    f_at = [(_fold(f, -1, 2), len(f) - 1) for f in map(sf_row, range(1, ns.stop - 2))]
    for n in ns:
        terms = [(a * _fold(lam.coefficients, -1, 2), e + len(lam.coefficients) - 1)
                 for (a, e), lam in zip(f_at, _row(_served_lambda_row, n)[:n - 2]) if a]
        top = max((e for _, e in terms), default=0)
        yield [(Fraction(sum(t << (top - e) for t, e in terms), 1 << top), Fraction(0))]


def _cases_drv_fh_bn(ns: range, rng: random.Random) -> Iterator[Cases]:
    for n in ns:
        fhat = _fhat(n)
        total = worpitzky_sum(fhat.coefficients[1:])
        yield [(total, -Fraction(n, 2) * bernoulli(n - 1))]


def _newton_sum(row: tuple) -> list:
    """n! sum_k row[k] C(x,k), n = len(row) - 1, as int coefficients.
    C(x,k) = (x)_k / k! with the integer falling factorial (x)_k =
    x(x-1)...(x-k+1), so the scaled sum is sum_k row[k] (n!/k!) (x)_k.  It is
    summed by Horner's scheme in the Newton basis, (x)_(k+1) = (x)_k (x - k):
    each step multiplies by small ints and adds one row[k] (n!/k!)."""
    n = len(row) - 1
    acc = [row[n]]
    weight = 1      # n!/k!
    for k in range(n - 1, -1, -1):
        weight *= k + 1
        acc = [a - k * b for a, b in zip([0] + acc, acc + [0])]
        acc[0] += row[k] * weight
    return acc


def _gregory_newton_poly(row: tuple) -> Polynomial:
    """sum_k row[k] C(x,k) as a Polynomial, for a report: the sum of
    :func:`_newton_sum` with each coefficient divided by n! once."""
    den = math.factorial(len(row) - 1)
    return Polynomial([Fraction(a, den) for a in _newton_sum(row)])


def _cases_gregory_newton(ns: range, rng: random.Random) -> Iterator[Cases]:
    # By Newton's forward-difference formula the polynomial of degree <= n
    # through (m, m^n), m = 0..n, is sum_k Delta^k 0^n C(x,k), and it is x^n.
    # So the identity holds as polynomials exactly when Delta^k 0^n = SF(n,k)
    # for k = 0..n; the differences are taken in integers by subtraction
    # alone.  Only a row that differs is summed in the Newton basis, so a
    # failure reports that polynomial.
    for n in ns:
        row = sf_row(n)
        want = Polynomial.monomial(1, n)
        diffs = []
        values = [m ** n for m in range(n + 1)]
        while values:
            diffs.append(values[0])
            values = list(map(operator.sub, values[1:], values))
        yield [(want if tuple(diffs) == row else _gregory_newton_poly(row), want)]


def _cases_power_sum_agree(ns: range, rng: random.Random) -> Iterator[Cases]:
    # S_n(x) = sum_k SF(n,k) C(x,k+1) is the Newton sum of (0,) + SF row n,
    # so (n+1)! S_n is an int polynomial of degree n + 1.  power_sum_poly(n),
    # scaled to int coefficients s over their common denominator den, equals
    # it when den divides (n+1)! and s (n+1)!/den is its coefficient list.
    # The 20 seeded points of each n are drawn either way, but evaluated only
    # when the lists differ: each then compares power_sum_poly(n)(x) with
    # power_sum_gn(n, x), and the case after them compares the two polynomials.
    for n in ns:
        xs = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(20)]
        poly = power_sum_poly(n)
        c = poly.coefficients
        den = math.lcm(*(v.denominator for v in c))
        s = [v.numerator * (den // v.denominator) for v in c]
        scale, rest = divmod(math.factorial(n + 1), den)
        if not rest and [v * scale for v in s] == _newton_sum((0,) + sf_row(n)):
            yield [(poly, poly)]
        else:
            yield ([(poly(x), power_sum_gn(n, x)) for x in xs]
                   + [(poly, _gregory_newton_poly((0,) + sf_row(n)))])


_BT_CASES = 100


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-99, 99), rng.randint(1, 20))


def _cases_bt_involution(ns: range, rng: random.Random) -> Iterator[Cases]:
    for _ in ns:
        seq = tuple(_random_rational(rng) for _ in range(rng.randint(1, 32)))
        yield [(binomial_transform(binomial_transform(seq)), seq)]


def _cases_bt_harmonic(ns: range, rng: random.Random) -> Iterator[Cases]:
    seq = (Fraction(0),) + tuple(harmonic(k) for k in range(1, ns.stop))
    transformed = binomial_transform(seq)
    for n in ns:
        yield [(transformed[n], Fraction(-1, n))]


_EULER_CASES = 100


def _random_poly(rng: random.Random, max_degree: int) -> Polynomial:
    length = rng.randint(0, max_degree + 1)
    return Polynomial([_random_rational(rng) if rng.random() < 0.5 else rng.randint(-9, 9)
                       for _ in range(length)])


def _cases_euler_hadamard(ns: range, rng: random.Random) -> Iterator[Cases]:
    for _ in ns:
        f = _random_poly(rng, 12)
        g = _random_poly(rng, 12)
        yield [(euler_hadamard(f, g), hadamard(f, g))]


def _cases_fh_derivative_form(ns: range, rng: random.Random) -> Iterator[Cases]:
    for n in ns:
        yield [(hfubini_via_derivatives(n), _fhat(n))]


def _cases_fubini_numbers(ns: range, rng: random.Random) -> Iterator[Cases]:
    for n in ns:
        yield [(fubini_direct(n)(1), _ordered_partition_count(n))]


# --- registry ---------------------------------------------------------------


def _one_to(max_n: int) -> range:
    return range(1, max_n + 1)


_ALL_CHECKS: Sequence[IdentityCheck] = (
    IdentityCheck("fs-at-minus-one", "F_n(-1) = (-1)^n for n >= 1",
                  False, _one_to, _cases_fs_at_minus_one),
    IdentityCheck("fh-at-minus-one", "Fhat_n(-1) = (-1)^n * n for n >= 1",
                  False, _one_to, _cases_fh_at_minus_one),
    IdentityCheck("worpitzky-integral", "integral of F_n over [-1, 0] equals B_n",
                  False, _one_to, _cases_worpitzky_integral),
    IdentityCheck("fs-central-value", "F_n(-1/2) = -2 (2^(n+1) - 1) B_(n+1) / (n+1)",
                  False, _one_to, _cases_fs_central_value),
    IdentityCheck("thm-main-integral", "integral of Fhat_n over [-1, 0] equals -(n/2) B_(n-1)",
                  False, _one_to, _cases_thm_main_integral),
    IdentityCheck("thm-main-central", "Fhat_n(-1/2) = -((n-1)/2) F_(n-1)(-1/2) for even n",
                  False, lambda m: range(2, m + 1, 2), _cases_thm_main_central),
    IdentityCheck("cor-psi-odd", "psi_n(-1/2) = 0 for odd n",
                  False, lambda m: range(1, m + 1, 2), _cases_cor_psi_odd),
    IdentityCheck("lambda-expansion", "Fhat_n = sum_nu lambda(n,nu) F_nu as polynomials",
                  False, _one_to, _cases_lambda_expansion),
    IdentityCheck("lambda-degree-P", "deg lambda(n,nu) = n - nu with nonnegative integer coefficients",
                  False, _one_to, _cases_lambda_degree_P),
    IdentityCheck("lambda-top", "lambda(n,n) = 1 and lambda(n,n-1) = (n-1) x",
                  False, _one_to, _cases_lambda_top),
    IdentityCheck("lambda-reflection", "lambda(n,nu) lies in the reflection class at -1/2 for n >= 3, nu <= n-2",
                  False, lambda m: range(3, m + 1), _cases_lambda_reflection),
    IdentityCheck("semiring-closure", "reflection classes close under product, parity-matched sum, derivative; odd members vanish at the axis",
                  True, lambda m: range(1, _CLOSURE_CASES + 1), _cases_semiring_closure),
    IdentityCheck("table-fh-fs", "lambda rows for n <= 4 match their pinned golden coefficients",
                  False, lambda m: range(1, min(len(_GOLDEN_LAMBDA_ROWS), m) + 1), _cases_table_fh_fs),
    IdentityCheck("remainder-vanishes", "the lambda-expansion tail of Fhat_n vanishes at -1/2 for even n",
                  False, lambda m: range(2, m + 1, 2), _cases_remainder_vanishes),
    IdentityCheck("drv-fh-bn", "sum_v SF(n,v) H_v (-1)^v/(v+1) = -(n/2) B_(n-1)",
                  False, _one_to, _cases_drv_fh_bn),
    IdentityCheck("gregory-newton", "x^n = sum_k SF(n,k) C(x,k) as polynomials",
                  False, _one_to, _cases_gregory_newton),
    IdentityCheck("power-sum-agree", "Bernoulli-polynomial and finite-difference power sums agree as polynomials",
                  True, _one_to, _cases_power_sum_agree),
    IdentityCheck("bt-involution", "the binomial transform is an involution on random sequences",
                  True, lambda m: range(1, _BT_CASES + 1), _cases_bt_involution),
    IdentityCheck("bt-harmonic", "the binomial transform of (0, H_1, H_2, ...) has n-th entry -1/n",
                  False, _one_to, _cases_bt_harmonic),
    IdentityCheck("euler-hadamard", "the derivative-sum route to the coefficient-wise product matches it on random pairs",
                  True, lambda m: range(1, _EULER_CASES + 1), _cases_euler_hadamard),
    IdentityCheck("fh-derivative-form", "Fhat_n rebuilt from the derivatives of F_n matches Fhat_n stepped by the SF rule",
                  False, _one_to, _cases_fh_derivative_form),
    IdentityCheck("fubini-numbers", "F_n(1) equals the enumerated count of ordered set partitions for n <= 8",
                  False, lambda m: range(1, min(8, m) + 1), _cases_fubini_numbers),
)

CHECKS = {check.check_id: check for check in _ALL_CHECKS}
CHECK_IDS = tuple(check.check_id for check in _ALL_CHECKS)


class _Scan:
    """One check's cases within a pass.  :meth:`pull` takes the list of the
    check's next index and compares its pairs in order; a failing pair is
    kept with its index as the witness, and the scan is done.  A pull that
    raises an ``Exception`` fails the check the same way, at the index
    being pulled, so the other checks of the pass still report: lhs is the
    exception's type and message.  Time spent pulling and comparing is
    charged to the check."""

    def __init__(self, check: IdentityCheck, max_n: int, seed: int):
        self.check = check
        self.seed = seed
        self.ns = check.indices(max_n)
        self.lists = check.cases(self.ns, random.Random(seed))
        self.count = 0
        self.witness: Optional[Tuple[int, object, object]] = None
        self.seconds = 0.0

    def pull(self, n: int) -> None:
        start = time.perf_counter()
        try:
            for lhs, rhs in next(self.lists, ()):
                self.count += 1
                if lhs != rhs:
                    self.witness = n, lhs, rhs
                    break
        except Exception as exc:
            self.witness = n, f"{type(exc).__name__}: {exc}", "no exception"
        self.seconds += time.perf_counter() - start

    def report(self) -> IdentityReport:
        if self.witness is None:
            status, witness_n, lhs, rhs = "pass" if self.count else "empty", None, None, None
        else:
            status, witness_n = "fail", self.witness[0]
            lhs, rhs = format_value(self.witness[1]), format_value(self.witness[2])
        return IdentityReport(self.check.check_id, self.ns.start, self.ns.stop - 1, status,
                              witness_n, lhs, rhs, self.seed if self.check.randomized else None,
                              int(self.seconds * 1000))


def _run_pass(ids: Sequence[str], max_n: int, seed: int) -> List[IdentityReport]:
    """Run the checks named by ``ids`` as one pass over the index.  At each
    n, every check whose range holds n and that has not failed pulls and
    compares that index's cases, in selection order, before the pass moves
    on.  The rows the checks share (:func:`_row`) are built once for the
    pass and dropped with it.  A pass that serves no lambda row reads no SF
    row more than one below the index it has reached, so after the pulls
    at index n it releases the SF rows below n - 1 (keeping the highest of
    them held if row n - 1 is not, as in a pass of thm-main-central alone
    at odd n); served lambda rows read every SF row, so a pass that serves
    them releases none.  A row read after all is rebuilt, so the rule
    costs time if wrong, never a result."""
    rows: Dict[Callable, Tuple[int, object]] = {}
    token = _pass_rows.set(rows)
    try:
        scans = [_Scan(CHECKS[check_id], max_n, seed) for check_id in ids]
        for n in range(min(scan.ns.start for scan in scans), max(scan.ns.stop for scan in scans)):
            for scan in scans:
                if n in scan.ns and scan.witness is None:
                    scan.pull(n)
            if _served_lambda_row not in rows:
                sf_table.release(n - 1)
    finally:
        _pass_rows.reset(token)
    return [scan.report() for scan in scans]


def run_check(check_id: str, max_n: int, *, seed: int = DEFAULT_SEED) -> IdentityReport:
    """Evaluate one registered identity exactly for every index of its
    declared range at max_n, reported as n_min..n_max.  Stops at the first
    failure; generators yield their indices' cases in ascending order, so
    the witness is the smallest failing index.  A check that evaluates no case
    reports "empty", which does not count as a pass."""
    if check_id not in CHECKS:
        raise ValueError(f"unknown check id: {check_id!r}")
    return run_suite(max_n, [check_id], seed=seed)[0]


def run_suite(max_n: int, selection: Union[str, Sequence[str]] = "all", *,
              seed: int = DEFAULT_SEED) -> List[IdentityReport]:
    """Run a selection of checks ("all", ["all"] or a list of ids) as one
    pass and return the reports in selection order; each report is the one
    :func:`run_check` gives, apart from ``elapsed_ms``.  Every id is
    validated, and an empty selection, 'all' among ids or an id given twice
    refused, before anything runs."""
    max_n = index(max_n, 1, name="max_n")
    ids = [selection] if isinstance(selection, str) else list(selection)
    if ids == ["all"]:
        ids = list(CHECK_IDS)
    if not ids:
        raise ValueError("no check selected: name at least one check id or 'all'")
    if "all" in ids:
        raise ValueError("'all' cannot be combined with check ids; give 'all' alone or a list of ids")
    repeated = dict.fromkeys(i for i in ids if ids.count(i) > 1)
    if repeated:
        raise ValueError(f"check id(s) given more than once: {', '.join(repr(r) for r in repeated)}")
    unknown = [i for i in ids if i not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check id(s): {', '.join(repr(u) for u in unknown)}")
    return _run_pass(ids, max_n, seed)
