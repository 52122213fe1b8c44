"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest -s`` or in the captured-output section of a verbose run).  All
comparisons are exact rational equality; there are no tolerances anywhere.
"""
import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from fubinipoly import combinat
from fubinipoly.cli import main
from fubinipoly.combinat import bernoulli, bernoulli_akiyama_tanigawa
from fubinipoly.exactpoly import Polynomial
from fubinipoly.fubini import (
    fubini_direct,
    fubini_rec,
    hfubini_direct,
    hfubini_rec,
    lambda_poly,
)
from fubinipoly.transforms import hfubini_via_derivatives
from fubinipoly.verify import CHECK_IDS, run_check, run_suite

SCALAR_CHECKS = ("worpitzky-integral", "fs-central-value", "thm-main-integral",
                 "thm-main-central", "cor-psi-odd", "drv-fh-bn")

MINUS_HALF = Fraction(-1, 2)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}")


def test_criterion_1_full_suite_and_scalar_checks(capsys):
    with criterion("criterion 1: verify --max-n 64 --checks all exits 0 in under 60 s; "
                   "scalar checks also pass at max-n 120"):
        start = time.perf_counter()
        code = main(["verify", "--max-n", "64", "--checks", "all"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        assert f"{len(CHECK_IDS)}/{len(CHECK_IDS)} checks passed" in out
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
        reports = run_suite(120, list(SCALAR_CHECKS))
        assert all(r.passed for r in reports)


def test_criterion_2_bernoulli_cross_validation():
    with criterion("criterion 2: Worpitzky and Akiyama-Tanigawa Bernoulli routes agree "
                   "exactly for n <= 120; B_1 = -1/2; odd B_n vanish"):
        for n in range(121):
            assert bernoulli(n) == bernoulli_akiyama_tanigawa(n), n
        assert bernoulli(1) == Fraction(-1, 2)
        for n in range(3, 121, 2):
            assert bernoulli(n) == 0, n


def test_criterion_3_golden_connection_rows():
    with criterion("criterion 3: computed lambda rows for n = 1..4 match the pinned "
                   "golden coefficients, including lambda(4,1) = 2x^3+3x^2+x"):
        golden = {
            (1, 1): (1,),
            (2, 1): (0, 1), (2, 2): (1,),
            (3, 1): (0, 1, 1), (3, 2): (0, 2), (3, 3): (1,),
            (4, 1): (0, 1, 3, 2), (4, 2): (0, 3, 3), (4, 3): (0, 3), (4, 4): (1,),
        }
        for (n, nu), coeffs in golden.items():
            assert lambda_poly(n, nu).coefficients == coeffs, (n, nu)
        assert lambda_poly(4, 1) == Polynomial([0, 1, 3, 2])
        report = run_check("table-fh-fs", 4)
        assert report.passed


def _ordered_partition_count_by_enumeration(n):
    """Enumerate every set partition of {0..n-1} (recursive block assignment),
    then walk every ordering of its blocks; each walk step counts one ordered
    partition."""
    partitions = []

    def assign(i, blocks):
        if i == n:
            partitions.append([tuple(b) for b in blocks])
            return
        for b in blocks:
            b.append(i)
            assign(i + 1, blocks)
            b.pop()
        blocks.append([i])
        assign(i + 1, blocks)
        blocks.pop()

    assign(0, [])
    return sum(sum(1 for _ in itertools.permutations(p)) for p in partitions)


def test_criterion_4_oracle_equivalences():
    with criterion("criterion 4: recurrence, direct, and derivative routes agree for "
                   "n <= 64; F_n(1) equals the enumerated ordered-partition count for n <= 8"):
        for n in range(1, 65):
            direct = fubini_direct(n)
            hdirect = hfubini_direct(n)
            assert fubini_rec(n) == direct, n
            assert hfubini_rec(n) == hdirect, n
            assert hfubini_via_derivatives(n) == hdirect, n
        expected_counts = (1, 3, 13, 75, 541, 4683, 47293, 545835)
        for n in range(1, 9):
            enumerated = _ordered_partition_count_by_enumeration(n)
            assert enumerated == expected_counts[n - 1], n
            assert fubini_direct(n)(1) == enumerated, n
        assert run_check("fubini-numbers", 8).passed


def test_criterion_5_reflection_class_suite():
    with criterion("criterion 5: lambda(n,nu) reflection membership for 3 <= n <= 40, "
                   "200 seeded closure cases, odd-degree members vanish at the axis"):
        for n in range(3, 41):
            for nu in range(1, n - 1):
                assert lambda_poly(n, nu).in_reflection_class(MINUS_HALF), (n, nu)
        closure = run_check("semiring-closure", 40)
        assert closure.passed
        assert closure.n_max == 200
        rng = random.Random(2025)
        seen_odd = 0
        for _ in range(200):
            m = rng.randint(0, 4)
            alpha = Fraction(-m, 2)
            f = Polynomial([rng.randint(1, 3)])
            for _ in range(rng.randint(0, 3)):
                f = f * rng.choice((Polynomial([m, 2]), Polynomial([0, m, 1])))
            assert f.in_reflection_class(alpha)
            if f.degree % 2 == 1:
                seen_odd += 1
                assert f(alpha) == 0
        assert seen_odd > 0


def test_criterion_6_transform_suite():
    with criterion("criterion 6: binomial-transform involution (100 seeded sequences), "
                   "harmonic transform identity to n = 64, transform route equals "
                   "coefficient-wise product (100 seeded pairs)"):
        involution = run_check("bt-involution", 64)
        assert involution.passed and involution.n_max == 100
        assert run_check("bt-harmonic", 64).passed
        euler = run_check("euler-hadamard", 64)
        assert euler.passed and euler.n_max == 100


def test_criterion_7_fault_injection():
    with criterion("criterion 7: corrupting one cached SF entry or Bernoulli value "
                   "makes at least one check fail with a witness"):
        combinat.sf(10, 5)
        combinat.bernoulli(10)

        corrupted = list(combinat.sf_row(7))
        corrupted[2] += 1
        with combinat.sf_table.override(7, tuple(corrupted)):
            reports = run_suite(10, ["fs-at-minus-one", "gregory-newton"])
            failed = [r for r in reports if not r.passed]
            assert failed
            for r in failed:
                assert r.witness_n == 7
                assert r.lhs is not None and r.rhs is not None

        with combinat.bernoulli_table.override(6, combinat.bernoulli(6) + Fraction(1, 3)):
            report = run_check("worpitzky-integral", 10)
            assert report.status == "fail"
            assert report.witness_n == 6
            assert report.lhs is not None and report.rhs is not None

        # restored state verifies clean again
        assert all(r.passed for r in run_suite(10, ["fs-at-minus-one",
                                                    "gregory-newton",
                                                    "worpitzky-integral"]))
