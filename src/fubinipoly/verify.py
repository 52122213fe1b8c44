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
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .combinat import bernoulli, harmonic, sf_row, worpitzky_sum
from .exactpoly import Polynomial, format_value, index
from .fubini import (
    fubini_direct,
    hfubini_direct,
    lambda_poly,
    power_sum_gn,
    power_sum_poly,
    psi_from_hfubini,
)
from .transforms import binomial_transform, euler_hadamard, hadamard, hfubini_via_derivatives

DEFAULT_SEED = 0

_MINUS_HALF = Fraction(-1, 2)
_ONE_PLUS_4U = Polynomial([1, 4])       # (2x+1)^2 as a polynomial in u = x^2 + x

# (index, lhs, rhs): index is the witness n (or case number for randomized
# checks); lhs/rhs are exact comparables.  A generator yields cases for the
# indices of its check's declared range in ascending order, so the first
# failing case is the one with the smallest index.
Case = Tuple[int, object, object]
CaseGen = Callable[[range, random.Random], Iterator[Case]]


@dataclass(frozen=True)
class IdentityCheck:
    check_id: str
    description: str
    randomized: bool
    indices: Callable[[int], range]   # the indices scanned for a given max_n
    cases: CaseGen


@dataclass(frozen=True)
class IdentityReport:
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
        return asdict(self)


# --- rows shared within a pass -----------------------------------------------

# For the running pass, build -> {n: build(n)}; None outside a pass.
_pass_rows: ContextVar[Optional[Dict[Callable, Dict[int, object]]]] = ContextVar(
    "fubinipoly_pass_rows", default=None)


def _row(build: Callable[[int], object], n: int):
    """build(n), built once and kept while it is among the last
    PASS_ROWS_PER_KIND rows of its kind that the running pass asked for;
    outside a pass, built afresh on every call.  The store lives only as
    long as its pass, so a memo-table override made between passes always
    reaches the rows."""
    store = _pass_rows.get()
    if store is None:
        return build(n)
    rows = store.setdefault(build, {})
    if n not in rows:
        if len(rows) == PASS_ROWS_PER_KIND:
            del rows[min(rows)]
        rows[n] = build(n)
    return rows[n]


# --- check bodies ----------------------------------------------------------


def _cases_fs_at_minus_one(ns: range, rng: random.Random) -> Iterator[Case]:
    for n in ns:
        yield n, fubini_direct(n)(-1), (-1) ** n


def _cases_fh_at_minus_one(ns: range, rng: random.Random) -> Iterator[Case]:
    for n in ns:
        yield n, _row(hfubini_direct, n)(-1), Fraction((-1) ** n * n)


def _cases_worpitzky_integral(ns: range, rng: random.Random) -> Iterator[Case]:
    for n in ns:
        yield n, fubini_direct(n).definite_integral(-1, 0), bernoulli(n)


def _cases_fs_central_value(ns: range, rng: random.Random) -> Iterator[Case]:
    for n in ns:
        rhs = Fraction(-2) * (2 ** (n + 1) - 1) * bernoulli(n + 1) / (n + 1)
        yield n, fubini_direct(n)(_MINUS_HALF), rhs


def _cases_thm_main_integral(ns: range, rng: random.Random) -> Iterator[Case]:
    for n in ns:
        rhs = -Fraction(n, 2) * bernoulli(n - 1)
        yield n, _row(hfubini_direct, n).definite_integral(-1, 0), rhs


def _cases_thm_main_central(ns: range, rng: random.Random) -> Iterator[Case]:
    for n in ns:
        rhs = -Fraction(n - 1, 2) * fubini_direct(n - 1)(_MINUS_HALF)
        yield n, _row(hfubini_direct, n)(_MINUS_HALF), rhs


def _cases_cor_psi_odd(ns: range, rng: random.Random) -> Iterator[Case]:
    for n in ns:
        yield n, psi_from_hfubini(n, _row(hfubini_direct, n))(_MINUS_HALF), Fraction(0)


def _lambda_row(prev: tuple, n: int) -> tuple:
    """Row n of lambda(n, 1..n) by the recurrence from row n - 1: the oracle
    that lambda-expansion holds the served rows to."""
    # lambda(n, nu) = (x^2+x) * lambda(n-1, nu)' + lambda(n-1, nu-1) + x * [nu == n-1]:
    # with c = lambda(n-1, nu), coefficient k is k c_k + (k-1) c_(k-1), plus
    # that of lambda(n-1, nu-1), plus 1 at k = 1 when nu = n-1.
    row = []
    for nu in range(1, n + 1):
        c = prev[nu - 1].coefficients if nu < n else ()
        out = [k * v + (k - 1) * v_below for k, (v, v_below) in enumerate(zip(c + (0,), (0,) + c))]
        if nu >= 2:
            below = prev[nu - 2].coefficients
            out += [0] * (len(below) - len(out))
            out[:len(below)] = map(operator.add, out, below)
        if nu == n - 1:
            out[1] += 1
        row.append(Polynomial(out))
    return tuple(row)


def _served_lambda_row(n: int) -> tuple:
    """(lambda(n, 1), ..., lambda(n, n)) as :func:`lambda_poly` serves them."""
    return tuple(lambda_poly(n, v) for v in range(1, n + 1))


def _k_split(v: int) -> Optional[Tuple[Polynomial, int]]:
    """K_v = F_v / x as (A, e) with K_v = A(u) (2x+1)^e, u = x^2 + x, or
    None when F_v has a constant term or K_v is not of that form.

    x F_v(-1-x) = (-1)^v (1+x) F_v(x), so K_v lies in the reflection class
    at -1/2: its split is (A, 0) for odd v, and (A, 2A), which is
    A(u) (2x+1), for even v.  A split of any other form, which only a
    corrupted SF row can give, is refused rather than assumed."""
    f = fubini_direct(v)
    if f.coefficient(0) != 0:
        return None
    a, b = Polynomial(f.coefficients[1:]).reflection_parts(_MINUS_HALF)
    if b.is_zero():
        return a, 0
    if b == a * 2:
        return a, 1
    return None


def _cases_lambda_expansion(ns: range, rng: random.Random) -> Iterator[Case]:
    # Row n as lambda_poly serves it is first compared entry by entry with
    # row n of the recurrence, rolled forward here from lambda(1, 1) = 1 and
    # kept one row at a time.  Once they match, the expansion is
    #   Fhat_n = F_n + (n-1) x F_(n-1) + (x^3+x^2) sum_(a+b=n-1) C(n-1,b-1) K_a K_b
    # over a, b >= 1, with K_v = F_v / x, since (x+1) F_a F_b = (x^3+x^2) K_a K_b.
    # The pair a < b is formed once with both weights, and K_a K_b is
    # A_a(u) A_b(u) (2x+1)^(e_a+e_b) by _k_split: one product of A parts.  The
    # sum is compared with Fhat_n in reflection parts at -1/2, a linear
    # bijection, and a mismatch is reported rebuilt in the x-basis.  A served
    # row that differs from the recurrence is reported as its first differing
    # entry (nu, served) against (nu, recurrence); a K_v that _k_split
    # refuses, as (v, false) against (v, true).
    splits: List[Optional[Tuple[Polynomial, int]]] = []     # splits[v - 1] of K_v
    oracle, m = (Polynomial.one(),), 1                      # row m of the recurrence
    for n in ns:
        while len(splits) < n - 2:
            splits.append(_k_split(len(splits) + 1))
        while m < n:
            m += 1
            oracle = _lambda_row(oracle, m)
        fhat = _row(hfubini_direct, n)
        served = _row(_served_lambda_row, n)
        mismatch = next((nu for nu, (lam, want) in enumerate(zip(served, oracle), 1)
                         if lam != want), None)
        if mismatch is not None:
            yield n, (mismatch, served[mismatch - 1]), (mismatch, oracle[mismatch - 1])
            continue
        if None in splits:
            refused = splits.index(None) + 1
            yield n, (refused, False), (refused, True)
            continue
        sums = [Polynomial.zero()] * 3      # sums[e]: the pairs with e_a + e_b = e
        for a in range(1, (n - 1) // 2 + 1):
            b = n - 1 - a
            (part_a, e_a), (part_b, e_b) = splits[a - 1], splits[b - 1]
            weight = math.comb(n - 1, b - 1) + (math.comb(n - 1, a - 1) if a < b else 0)
            sums[e_a + e_b] += part_a * part_b * weight
        # (2x+1)^2 = 1 + 4u, so the pairs sum to P(u) + (2x+1) Q(u): parts (P + Q, 2Q).
        # x^3+x^2 = x u and x^2 = u - x, so x u (A(u) + x B(u)) has the parts
        # (u^2 B, u (A - B)): for (P + Q, 2Q), two shifts (u^2 2Q, u (P - Q)).
        p, q = sums[0] + sums[2] * _ONE_PLUS_4U, sums[1]
        tail = (Polynomial((0, 0) + (q * 2).coefficients), Polynomial((0,) + (p - q).coefficients))
        head = fubini_direct(n)
        if n >= 2:
            head += Polynomial.monomial(n - 1, 1) * fubini_direct(n - 1)
        parts = (fhat - head).reflection_parts(_MINUS_HALF)
        if tail == parts:
            yield n, tail, parts
        else:
            yield n, head + Polynomial.from_reflection_parts(*tail, _MINUS_HALF), fhat


def _cases_lambda_degree_P(ns: range, rng: random.Random) -> Iterator[Case]:
    for n in ns:
        for v, lam in enumerate(_row(_served_lambda_row, n), 1):
            yield n, (v, lam.degree, lam.has_nonneg_int_coeffs()), (v, n - v, True)


def _cases_lambda_top(ns: range, rng: random.Random) -> Iterator[Case]:
    for n in ns:
        yield n, lambda_poly(n, n), Polynomial.one()
        if n >= 2:
            yield n, lambda_poly(n, n - 1), Polynomial.monomial(n - 1, 1)


def _cases_lambda_reflection(ns: range, rng: random.Random) -> Iterator[Case]:
    for n in ns:
        for v, lam in enumerate(_row(_served_lambda_row, n)[:n - 2], 1):
            yield n, (v, lam.in_reflection_class(_MINUS_HALF)), (v, True)


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


def _cases_semiring_closure(ns: range, rng: random.Random) -> Iterator[Case]:
    for case in ns:
        m = rng.randint(0, 4)
        alpha = Fraction(-m, 2)
        f = _random_reflection_member(rng, m)
        g = _random_reflection_member(rng, m)
        yield case, ("product", (f * g).in_reflection_class(alpha)), ("product", True)
        if (f.degree is not None and g.degree is not None
                and (f.degree - g.degree) % 2 == 0):
            yield case, ("sum", (f + g).in_reflection_class(alpha)), ("sum", True)
        yield case, ("derivative", f.derivative().in_reflection_class(alpha)), ("derivative", True)
        if f.degree is not None and f.degree % 2 == 1:
            yield case, ("odd degree value at axis", f(alpha)), ("odd degree value at axis", Fraction(0))


# lambda(n, nu) for n = 1..4, nu = 1..n, coefficients constant term first.
_GOLDEN_LAMBDA_ROWS = {
    1: ((1,),),
    2: ((0, 1), (1,)),
    3: ((0, 1, 1), (0, 2), (1,)),
    4: ((0, 1, 3, 2), (0, 3, 3), (0, 3), (1,)),
}


def _cases_table_fh_fs(ns: range, rng: random.Random) -> Iterator[Case]:
    for n in ns:
        expected = tuple(Polynomial(c) for c in _GOLDEN_LAMBDA_ROWS[n])
        yield n, _row(_served_lambda_row, n), expected


def _cases_remainder_vanishes(ns: range, rng: random.Random) -> Iterator[Case]:
    # remainder_R(n)(-1/2), summed term by term: evaluation at -1/2 is a ring
    # homomorphism, so the value is the same without building the polynomial.
    f_at = [None] + [fubini_direct(v)(_MINUS_HALF) for v in range(1, ns.stop - 2)]
    for n in ns:
        row = _row(_served_lambda_row, n)[:n - 2]
        total = sum(lam(_MINUS_HALF) * f_at[v] for v, lam in enumerate(row, 1))
        yield n, total, Fraction(0)


def _cases_drv_fh_bn(ns: range, rng: random.Random) -> Iterator[Case]:
    for n in ns:
        fhat = _row(hfubini_direct, n)
        total = worpitzky_sum([fhat.coefficient(v) for v in range(1, n + 1)])
        yield n, total, -Fraction(n, 2) * bernoulli(n - 1)


def _cases_gregory_newton(ns: range, rng: random.Random) -> Iterator[Case]:
    # C(x,k) = (x)_k / k! with the integer falling factorial
    # (x)_k = x(x-1)...(x-k+1), so n! * sum_k SF(n,k) C(x,k) is the integer
    # polynomial sum_k SF(n,k) (n!/k!) (x)_k.  It is summed by Horner's
    # scheme in the Newton basis, (x)_(k+1) = (x)_k (x - k), and each
    # coefficient is divided by n! once at the end.
    for n in ns:
        row = sf_row(n)
        acc = [row[n]]
        weight = 1      # n!/k!
        for k in range(n - 1, -1, -1):
            weight *= k + 1
            acc = [a - k * b for a, b in zip([0] + acc, acc + [0])]
            acc[0] += row[k] * weight
        den = math.factorial(n)
        yield n, Polynomial([Fraction(a, den) for a in acc]), Polynomial.monomial(1, n)


def _cases_power_sum_agree(ns: range, rng: random.Random) -> Iterator[Case]:
    for n in ns:
        poly = power_sum_poly(n)
        for _ in range(20):
            x = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            yield n, poly(x), power_sum_gn(n, x)


_BT_CASES = 100


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-99, 99), rng.randint(1, 20))


def _cases_bt_involution(ns: range, rng: random.Random) -> Iterator[Case]:
    for case in ns:
        seq = tuple(_random_rational(rng) for _ in range(rng.randint(1, 32)))
        yield case, binomial_transform(binomial_transform(seq)), seq


def _cases_bt_harmonic(ns: range, rng: random.Random) -> Iterator[Case]:
    seq = (Fraction(0),) + tuple(harmonic(k) for k in range(1, ns.stop))
    transformed = binomial_transform(seq)
    for n in ns:
        yield n, transformed[n], Fraction(-1, n)


_EULER_CASES = 100


def _random_poly(rng: random.Random, max_degree: int) -> Polynomial:
    length = rng.randint(0, max_degree + 1)
    return Polynomial([_random_rational(rng) if rng.random() < 0.5 else rng.randint(-9, 9)
                       for _ in range(length)])


def _cases_euler_hadamard(ns: range, rng: random.Random) -> Iterator[Case]:
    for case in ns:
        f = _random_poly(rng, 12)
        g = _random_poly(rng, 12)
        yield case, euler_hadamard(f, g), hadamard(f, g)


def _cases_fh_derivative_form(ns: range, rng: random.Random) -> Iterator[Case]:
    for n in ns:
        yield n, hfubini_via_derivatives(n), _row(hfubini_direct, n)


def _ordered_partition_count(n: int) -> int:
    """Count ordered set partitions of an n-set by exhaustive enumeration:
    recurse over every nonempty first block (as a bitmask), visiting each
    ordered partition exactly once.  No memoization, no closed form."""

    def count(mask: int) -> int:
        if mask == 0:
            return 1
        total = 0
        sub = mask
        while sub:
            total += count(mask & ~sub)
            sub = (sub - 1) & mask
        return total

    return count((1 << n) - 1)


def _cases_fubini_numbers(ns: range, rng: random.Random) -> Iterator[Case]:
    for n in ns:
        yield n, fubini_direct(n)(1), _ordered_partition_count(n)


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
                  False, lambda m: range(1, min(4, m) + 1), _cases_table_fh_fs),
    IdentityCheck("remainder-vanishes", "the lambda-expansion tail of Fhat_n vanishes at -1/2 for even n",
                  False, lambda m: range(2, m + 1, 2), _cases_remainder_vanishes),
    IdentityCheck("drv-fh-bn", "sum_v SF(n,v) H_v (-1)^v/(v+1) = -(n/2) B_(n-1)",
                  False, _one_to, _cases_drv_fh_bn),
    IdentityCheck("gregory-newton", "x^n = sum_k SF(n,k) C(x,k) as polynomials",
                  False, _one_to, _cases_gregory_newton),
    IdentityCheck("power-sum-agree", "Bernoulli-polynomial and finite-difference power sums agree at random rational points",
                  True, _one_to, _cases_power_sum_agree),
    IdentityCheck("bt-involution", "the binomial transform is an involution on random sequences",
                  True, lambda m: range(1, _BT_CASES + 1), _cases_bt_involution),
    IdentityCheck("bt-harmonic", "the binomial transform of (0, H_1, H_2, ...) has n-th entry -1/n",
                  False, _one_to, _cases_bt_harmonic),
    IdentityCheck("euler-hadamard", "the derivative-sum route to the coefficient-wise product matches it on random pairs",
                  True, lambda m: range(1, _EULER_CASES + 1), _cases_euler_hadamard),
    IdentityCheck("fh-derivative-form", "Fhat_n rebuilt from the derivatives of F_n matches the direct sum",
                  False, _one_to, _cases_fh_derivative_form),
    IdentityCheck("fubini-numbers", "F_n(1) equals the enumerated count of ordered set partitions for n <= 8",
                  False, lambda m: range(1, min(8, m) + 1), _cases_fubini_numbers),
)

CHECKS = {check.check_id: check for check in _ALL_CHECKS}
CHECK_IDS = tuple(check.check_id for check in _ALL_CHECKS)

# A pass advances its checks together, index by index (see _run_pass).  At
# index n, a check pulling its next case reads the row of n + its step, and
# a check with several cases at one index keeps its row itself; so as many
# rows of each kind as the largest step serve every read of a pass, and
# each row is built once.
PASS_ROWS_PER_KIND = max(check.indices(1).step for check in _ALL_CHECKS)


class _Scan:
    """One check's cases within a pass: its next case and what it has seen.
    Time spent pulling and comparing its cases is charged to it."""

    def __init__(self, check: IdentityCheck, max_n: int, seed: int):
        self.check = check
        self.seed = seed
        self.ns = check.indices(max_n)
        self._cases = check.cases(self.ns, random.Random(seed))
        self.count = 0
        self.witness: Optional[Case] = None
        start = time.perf_counter()
        self.pending: Optional[Case] = next(self._cases, None)
        self.seconds = time.perf_counter() - start

    def advance(self) -> None:
        """Evaluate every case at the pending index and pull the first case
        past it; on a failing case keep it as the witness and stop."""
        start = time.perf_counter()
        index = self.pending[0]
        while self.pending is not None and self.pending[0] == index:
            self.count += 1
            _, lhs, rhs = self.pending
            if lhs != rhs:
                self.witness, self.pending = self.pending, None
            else:
                self.pending = next(self._cases, None)
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
    """Run the checks named by ``ids`` as one pass over the index: at the
    smallest index any check has left, every check with cases there
    evaluates them all, in selection order, before the pass moves on.  The
    rows the checks share (:func:`_row`) are built once for the pass and
    dropped with it."""
    token = _pass_rows.set({})
    try:
        scans = [_Scan(CHECKS[check_id], max_n, seed) for check_id in ids]
        while live := [scan for scan in scans if scan.pending is not None]:
            index = min(scan.pending[0] for scan in live)
            for scan in live:
                if scan.pending[0] == index:
                    scan.advance()
    finally:
        _pass_rows.reset(token)
    return [scan.report() for scan in scans]


def run_check(check_id: str, max_n: int, *, seed: int = DEFAULT_SEED) -> IdentityReport:
    """Evaluate one registered identity exactly for every index of its
    declared range at max_n, reported as n_min..n_max.  Stops at the first
    failure; generators yield their indices in ascending order, so the
    witness is the smallest failing index.  A check that evaluates no case
    reports "empty", which does not count as a pass."""
    if check_id not in CHECKS:
        raise ValueError(f"unknown check id: {check_id!r}")
    return _run_pass([check_id], index(max_n, 1, name="max_n"), seed)[0]


def run_suite(max_n: int, selection: Union[str, Sequence[str]] = "all", *,
              seed: int = DEFAULT_SEED) -> List[IdentityReport]:
    """Run a selection of checks ("all", ["all"] or a list of ids) as one
    pass and return the reports in selection order; each report is the one
    :func:`run_check` gives, apart from ``elapsed_ms``.  Every id is
    validated, and an empty selection refused, before anything runs."""
    max_n = index(max_n, 1, name="max_n")
    ids = [selection] if isinstance(selection, str) else list(selection)
    if ids == ["all"]:
        ids = list(CHECK_IDS)
    if not ids:
        raise ValueError("no check selected: name at least one check id or 'all'")
    unknown = [i for i in ids if i not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check id(s): {', '.join(repr(u) for u in unknown)}")
    return _run_pass(ids, max_n, seed)
