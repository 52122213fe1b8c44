"""Named identity checks, executed exactly over a range of n.

Every check compares two independently computed exact values over the
index range it declares; a report carries that range, pass/fail/empty, and
on failure the smallest failing index together with both sides rendered as
self-contained strings.
Randomized checks draw from a seeded generator and record the seed.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

from .combinat import bernoulli, harmonic, sf_row
from .exactpoly import Polynomial, format_value
from .fubini import (
    fubini_direct,
    hfubini_direct,
    lambda_poly,
    power_sum_gn,
    power_sum_poly,
    psi_poly,
    remainder_R,
)
from .transforms import binomial_transform, euler_hadamard, hadamard, hfubini_via_derivatives

DEFAULT_SEED = 0

_MINUS_HALF = Fraction(-1, 2)

# (index, lhs, rhs): index is the witness n (or case number for randomized
# checks); lhs/rhs are exact comparables.  A generator yields cases for the
# indices of its check's declared range, in order.
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
        return {
            "check_id": self.check_id,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "status": self.status,
            "witness_n": self.witness_n,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "seed": self.seed,
            "elapsed_ms": self.elapsed_ms,
        }


# --- check bodies ----------------------------------------------------------


def _cases_fs_at_minus_one(ns: range, rng: random.Random) -> Iterator[Case]:
    for n in ns:
        yield n, fubini_direct(n)(-1), (-1) ** n


def _cases_fh_at_minus_one(ns: range, rng: random.Random) -> Iterator[Case]:
    for n in ns:
        yield n, hfubini_direct(n)(-1), Fraction((-1) ** n * n)


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
        yield n, hfubini_direct(n).definite_integral(-1, 0), rhs


def _cases_thm_main_central(ns: range, rng: random.Random) -> Iterator[Case]:
    for n in ns:
        rhs = -Fraction(n - 1, 2) * fubini_direct(n - 1)(_MINUS_HALF)
        yield n, hfubini_direct(n)(_MINUS_HALF), rhs


def _cases_cor_psi_odd(ns: range, rng: random.Random) -> Iterator[Case]:
    for n in ns:
        yield n, psi_poly(n)(_MINUS_HALF), Fraction(0)


def _cases_lambda_expansion(ns: range, rng: random.Random) -> Iterator[Case]:
    fs = [None] + [fubini_direct(v) for v in range(1, ns.stop)]
    for n in ns:
        total = Polynomial.zero()
        for v in range(1, n + 1):
            total = total + lambda_poly(n, v) * fs[v]
        yield n, total, hfubini_direct(n)


def _cases_lambda_degree_P(ns: range, rng: random.Random) -> Iterator[Case]:
    for n in ns:
        for v in range(1, n + 1):
            lam = lambda_poly(n, v)
            yield n, (v, lam.degree, lam.has_nonneg_int_coeffs()), (v, n - v, True)


def _cases_lambda_top(ns: range, rng: random.Random) -> Iterator[Case]:
    for n in ns:
        yield n, lambda_poly(n, n), Polynomial.one()
        if n >= 2:
            yield n, lambda_poly(n, n - 1), Polynomial.monomial(n - 1, 1)


def _cases_lambda_reflection(ns: range, rng: random.Random) -> Iterator[Case]:
    for n in ns:
        for v in range(1, n - 1):
            member = lambda_poly(n, v).in_reflection_class(_MINUS_HALF)
            yield n, (v, member), (v, True)


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
        computed = tuple(lambda_poly(n, v) for v in range(1, n + 1))
        expected = tuple(Polynomial(c) for c in _GOLDEN_LAMBDA_ROWS[n])
        yield n, computed, expected


def _cases_remainder_vanishes(ns: range, rng: random.Random) -> Iterator[Case]:
    for n in ns:
        yield n, remainder_R(n)(_MINUS_HALF), Fraction(0)


def _cases_drv_fh_bn(ns: range, rng: random.Random) -> Iterator[Case]:
    for n in ns:
        row = sf_row(n)
        total = Fraction(0)
        for v in range(1, n + 1):
            term = row[v] * harmonic(v) / (v + 1)
            total += -term if v % 2 else term
        yield n, total, -Fraction(n, 2) * bernoulli(n - 1)


def _cases_gregory_newton(ns: range, rng: random.Random) -> Iterator[Case]:
    binom_polys = [Polynomial.one()]
    for k in range(1, ns.stop):
        binom_polys.append(binom_polys[-1] * Polynomial([-(k - 1), 1]) * Fraction(1, k))
    for n in ns:
        row = sf_row(n)
        total = Polynomial.zero()
        for k in range(n + 1):
            if row[k]:
                total = total + binom_polys[k] * row[k]
        yield n, total, Polynomial.monomial(1, n)


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
        yield n, hfubini_via_derivatives(n), hfubini_direct(n)


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


def run_check(check_id: str, max_n: int, *, exhaustive: bool = False,
              seed: Optional[int] = None) -> IdentityReport:
    """Evaluate one registered identity exactly for every index of its
    declared range at max_n, reported as n_min..n_max.  Stops at the first
    failure unless exhaustive is set; either way the witness is the smallest
    failing index.  A check that evaluates no case reports "empty", which
    does not count as a pass."""
    if check_id not in CHECKS:
        raise ValueError(f"unknown check id: {check_id!r}")
    if max_n < 1:
        raise ValueError(f"max_n must be positive, got {max_n}")
    check = CHECKS[check_id]
    ns = check.indices(max_n)
    effective_seed = DEFAULT_SEED if seed is None else seed
    rng = random.Random(effective_seed)
    cases = 0
    witness: Optional[Case] = None
    start = time.perf_counter()
    for index, lhs, rhs in check.cases(ns, rng):
        cases += 1
        if lhs != rhs:
            if witness is None or index < witness[0]:
                witness = (index, lhs, rhs)
            if not exhaustive:
                break
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    if witness is None:
        status, witness_n, lhs, rhs = "pass" if cases else "empty", None, None, None
    else:
        status, witness_n = "fail", witness[0]
        lhs, rhs = format_value(witness[1]), format_value(witness[2])
    return IdentityReport(check_id, ns.start, ns.stop - 1, status, witness_n, lhs, rhs,
                          effective_seed if check.randomized else None, elapsed_ms)


def run_suite(max_n: int, selection: Union[str, Sequence[str]] = "all", *,
              exhaustive: bool = False, seed: Optional[int] = None) -> List[IdentityReport]:
    """Run a selection of checks (or all of them) and return the reports in
    selection order.  Every id is validated before anything runs."""
    if max_n < 1:
        raise ValueError(f"max_n must be positive, got {max_n}")
    if isinstance(selection, str):
        ids = list(CHECK_IDS) if selection == "all" else [selection]
    else:
        ids = list(selection)
        if ids == ["all"]:
            ids = list(CHECK_IDS)
    unknown = [i for i in ids if i not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check id(s): {', '.join(repr(u) for u in unknown)}")
    return [run_check(i, max_n, exhaustive=exhaustive, seed=seed) for i in ids]
