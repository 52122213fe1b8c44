import dataclasses
import json
import os
import random
import subprocess
import sys
import textwrap
from contextlib import contextmanager
from fractions import Fraction

import pytest

import fubinipoly
from fubinipoly import combinat, fubini, verify
from fubinipoly.exactpoly import Polynomial
from fubinipoly.verify import (
    CHECK_IDS,
    CHECKS,
    PASS_ROWS_PER_KIND,
    IdentityReport,
    run_check,
    run_suite,
)


def test_registry_ids_are_unique_and_stable():
    assert len(set(CHECK_IDS)) == len(CHECK_IDS)
    # the externally documented ids; the CLI contract depends on these
    assert set(CHECK_IDS) == {
        "fs-at-minus-one", "fh-at-minus-one", "worpitzky-integral",
        "fs-central-value", "thm-main-integral", "thm-main-central",
        "cor-psi-odd", "lambda-expansion", "lambda-degree-P", "lambda-top",
        "lambda-reflection", "semiring-closure", "table-fh-fs",
        "remainder-vanishes", "drv-fh-bn", "gregory-newton",
        "power-sum-agree", "bt-involution", "bt-harmonic", "euler-hadamard",
        "fh-derivative-form", "fubini-numbers",
    }


def test_run_check_pass_report_shape():
    report = run_check("fs-at-minus-one", 16)
    assert isinstance(report, IdentityReport)
    assert report.status == "pass"
    assert report.passed
    assert (report.n_min, report.n_max) == (1, 16)
    assert report.witness_n is None and report.lhs is None and report.rhs is None
    assert report.seed is None  # deterministic check records no seed
    assert report.elapsed_ms >= 0


def test_randomized_check_records_seed():
    assert run_check("bt-involution", 4).seed == 0
    assert run_check("bt-involution", 4, seed=99).seed == 99
    assert run_check("semiring-closure", 4).n_max == 200


def test_bounded_checks_clamp_their_range():
    assert run_check("table-fh-fs", 64).n_max == 4
    assert run_check("fubini-numbers", 64).n_max == 8
    assert run_check("table-fh-fs", 2).n_max == 2


def test_every_check_yields_indices_in_ascending_order():
    # run_check stops at the first failing case; that is the smallest
    # failing index only because every generator scans in ascending order.
    for check in CHECKS.values():
        indices = [case[0] for case in check.cases(check.indices(12), random.Random(0))]
        assert indices == sorted(indices), check.check_id


def test_empty_selection_rejected():
    with pytest.raises(ValueError):
        run_suite(8, [])


def test_unknown_check_id_rejected():
    with pytest.raises(ValueError):
        run_check("no-such-id", 8)
    with pytest.raises(ValueError):
        run_suite(8, ["fs-at-minus-one", "no-such-id"])


def test_bad_max_n_rejected():
    with pytest.raises(ValueError):
        run_check("fs-at-minus-one", 0)
    with pytest.raises(ValueError):
        run_suite(-3, "all")


def test_suite_order_matches_selection():
    ids = ["bt-harmonic", "fs-at-minus-one", "cor-psi-odd"]
    reports = run_suite(8, ids)
    assert [r.check_id for r in reports] == ids


_RANGES_AT_7_AND_8 = {
    "fs-at-minus-one": ((1, 7), (1, 8)),
    "fh-at-minus-one": ((1, 7), (1, 8)),
    "worpitzky-integral": ((1, 7), (1, 8)),
    "fs-central-value": ((1, 7), (1, 8)),
    "thm-main-integral": ((1, 7), (1, 8)),
    "thm-main-central": ((2, 7), (2, 8)),
    "cor-psi-odd": ((1, 7), (1, 8)),
    "lambda-expansion": ((1, 7), (1, 8)),
    "lambda-degree-P": ((1, 7), (1, 8)),
    "lambda-top": ((1, 7), (1, 8)),
    "lambda-reflection": ((3, 7), (3, 8)),
    "semiring-closure": ((1, 200), (1, 200)),
    "table-fh-fs": ((1, 4), (1, 4)),
    "remainder-vanishes": ((2, 7), (2, 8)),
    "drv-fh-bn": ((1, 7), (1, 8)),
    "gregory-newton": ((1, 7), (1, 8)),
    "power-sum-agree": ((1, 7), (1, 8)),
    "bt-involution": ((1, 100), (1, 100)),
    "bt-harmonic": ((1, 7), (1, 8)),
    "euler-hadamard": ((1, 100), (1, 100)),
    "fh-derivative-form": ((1, 7), (1, 8)),
    "fubini-numbers": ((1, 7), (1, 8)),
}


def test_every_check_reports_its_declared_range():
    assert tuple(_RANGES_AT_7_AND_8) == CHECK_IDS
    for bound, col in ((7, 0), (8, 1)):
        for report in run_suite(bound, "all"):
            assert report.passed, report
            assert (report.n_min, report.n_max) == _RANGES_AT_7_AND_8[report.check_id][col], \
                (bound, report.check_id)


def test_check_with_no_cases_is_empty_not_passed():
    report = run_check("lambda-reflection", 2)
    assert report.status == "empty"
    assert not report.passed
    assert (report.n_min, report.n_max) == (3, 2)
    assert report.witness_n is None and report.lhs is None and report.rhs is None


def test_suite_on_minimal_range():
    reports = run_suite(1, ["cor-psi-odd"])
    assert len(reports) == 1
    assert reports[0].passed
    assert (reports[0].n_min, reports[0].n_max) == (1, 1)


def test_full_suite_small_bound_passes():
    reports = run_suite(12, "all")
    assert len(reports) == len(CHECK_IDS)
    assert all(r.passed for r in reports)


def _without_elapsed(reports):
    return [{k: v for k, v in r.to_dict().items() if k != "elapsed_ms"} for r in reports]


def test_reports_are_deterministic_modulo_elapsed():
    first = _without_elapsed(run_suite(10, "all", seed=7))
    second = _without_elapsed(run_suite(10, "all", seed=7))
    assert first == second


@pytest.mark.parametrize("max_n", [40, 60])
def test_one_pass_equals_isolated_runs(max_n):
    assert (_without_elapsed(run_suite(max_n, "all"))
            == _without_elapsed([run_check(i, max_n) for i in CHECK_IDS]))


# --- rows shared within a pass ------------------------------------------------

_ROW_READERS = ["fh-at-minus-one", "thm-main-integral", "thm-main-central", "cor-psi-odd",
                "lambda-expansion", "lambda-reflection", "drv-fh-bn", "fh-derivative-form"]


def test_an_override_between_passes_reaches_the_shared_rows():
    assert all(r.passed for r in run_suite(12, _ROW_READERS))
    with combinat.harmonic_table.override(4, combinat.harmonic(4) + 1):
        fh = run_suite(12, _ROW_READERS)[0]
    assert (fh.status, fh.witness_n, fh.lhs, fh.rhs) == ("fail", 4, "28", "4")
    with _SERVED_LAMBDA.override(6, _lambda_6_1_plus_x(_SERVED_LAMBDA[6])):
        reflection = run_suite(12, _ROW_READERS)[_ROW_READERS.index("lambda-reflection")]
    assert (reflection.witness_n, reflection.lhs) == (6, "(1, false)")
    assert all(r.passed for r in run_suite(12, _ROW_READERS))


def test_cases_outside_a_pass_build_their_own_rows():
    assert all(r.passed for r in run_suite(12, _ROW_READERS))
    assert verify._pass_rows.get() is None
    with combinat.harmonic_table.override(4, combinat.harmonic(4) + 1):
        cases = list(CHECKS["fh-at-minus-one"].cases(range(1, 13), random.Random(0)))
    assert cases[3] == (4, 28, 4)


def test_a_pass_builds_each_row_once_and_keeps_at_most_its_cap(monkeypatch):
    built = {"hfubini_direct": [], "_served_lambda_row": []}
    sizes = []

    def counted(name):
        build = getattr(verify, name)

        def count(n):
            built[name].append(n)
            return build(n)
        return count

    def watched(cases):
        def pull_and_watch(ns, rng):
            for case in cases(ns, rng):
                sizes.append([len(rows) for rows in verify._pass_rows.get().values()])
                yield case
        return pull_and_watch

    for name in built:
        monkeypatch.setattr(verify, name, counted(name))
    for check_id, check in CHECKS.items():
        monkeypatch.setitem(CHECKS, check_id, dataclasses.replace(check, cases=watched(check.cases)))
    assert all(r.passed for r in run_suite(60, "all"))
    assert {name: sorted(ns) for name, ns in built.items()} == {name: list(range(1, 61))
                                                                for name in built}
    assert max(max(s, default=0) for s in sizes) == PASS_ROWS_PER_KIND


# --- fault injection: the suite must notice a single corrupted table entry ----

@pytest.fixture
def poisoned_sf_entry():
    combinat.sf(10, 5)          # warm the triangle
    combinat.bernoulli(10)      # warm dependents before corrupting
    corrupted = list(combinat.sf_row(6))
    corrupted[3] += 1
    with combinat.sf_table.override(6, tuple(corrupted)):
        yield 6


@pytest.fixture
def poisoned_bernoulli_value():
    combinat.bernoulli(10)
    with combinat.bernoulli_table.override(5, combinat.bernoulli(5) + 1):
        yield 5


def test_sf_fault_is_detected(poisoned_sf_entry):
    n = poisoned_sf_entry
    report = run_check("fs-at-minus-one", 12)
    assert report.status == "fail"
    assert report.witness_n == n
    assert report.lhs is not None and report.rhs is not None
    # a second, structurally different check also trips
    assert run_check("gregory-newton", 12).status == "fail"


def test_bernoulli_fault_is_detected(poisoned_bernoulli_value):
    n = poisoned_bernoulli_value
    report = run_check("worpitzky-integral", 12)
    assert report.status == "fail"
    assert report.witness_n == n
    assert report.lhs == "0"        # the clean integral
    assert report.rhs == "1"        # the corrupted cached value


def test_suite_recovers_after_fault_restored():
    reports = run_suite(10, ["fs-at-minus-one", "worpitzky-integral", "gregory-newton"])
    assert all(r.passed for r in reports)


def _bump_third(row):
    return row[:2] + (row[2] + 1,) + row[3:]


@contextmanager
def _patched(module, name, replacement):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, name, replacement)
        yield


class _ServedLambdaRows:
    """The rows lambda(n, 1..n) as verify reads them from lambda_poly, which
    holds no memo table: ``override`` corrupts row n for a block by patching
    ``verify.lambda_poly``, as a memo table's override would."""

    def __getitem__(self, n):
        return verify._served_lambda_row(n)

    def override(self, n, row):
        served = verify.lambda_poly
        return _patched(verify, "lambda_poly",
                        lambda m, nu: row[nu - 1] if m == n and 1 <= nu <= n else served(m, nu))


class _OracleLambdaRows:
    """The rows of the recurrence that lambda-expansion rolls forward by
    ``verify._lambda_row``: ``override`` replaces that function's row n."""

    def __getitem__(self, n):
        row = (Polynomial.one(),)
        for m in range(2, n + 1):
            row = verify._lambda_row(row, m)
        return row

    def override(self, n, row):
        roll = verify._lambda_row
        return _patched(verify, "_lambda_row", lambda prev, m: row if m == n else roll(prev, m))


class _ServedBernoulliPolys:
    """The polynomials B_n(x) as power_sum_poly reads them from
    bernoulli_poly, which holds no memo table: ``override`` corrupts B_n(x)
    for a block by patching ``fubini.bernoulli_poly``."""

    def __getitem__(self, n):
        return fubini.bernoulli_poly(n)

    def override(self, n, poly):
        served = fubini.bernoulli_poly
        return _patched(fubini, "bernoulli_poly", lambda m: poly if m == n else served(m))


_SERVED_LAMBDA = _ServedLambdaRows()
_ORACLE_LAMBDA = _OracleLambdaRows()
_SERVED_BERNOULLI_POLY = _ServedBernoulliPolys()


# One corrupted entry per memo table, and per source of lambda rows; each row
# is (table, index, corruption, a check that reads the entry, the smallest
# index that check can see it at, and the two sides it then reports).
# B_m(x) enters power-sum-agree at n = m - 1; H_v enters Fhat_n for n >= v.
# B_6 enters it at n = 6, as the x term of B_7(x): at n = 5 the constant of
# B_6(x) and the B_6 subtracted from it are the same corrupted value.
# lambda(6,1) + x is read by three checks: the expansion, the reflection test
# (x is not symmetric about -1/2) and the value at -1/2.  lambda-expansion
# reports any served entry that differs from the recurrence as that entry,
# (nu, served) against (nu, recurrence), and sees the same corruption of the
# recurrence's row the same way.
# fh-derivative-form cannot see an SF corruption, by design: both of its
# sides read the same SF row, and the identity holds coefficient by
# coefficient for any row, so only its harmonic side is in the matrix.
def _lambda_6_1_plus_x(row):
    return (row[0] + Polynomial.x(),) + row[1:]


# Corruptions that stay in the reflection class at -1/2, so only the
# expansion can see them: x^2 + x is symmetric (its part B is 0)
# and 2x^3 + 3x^2 + x = (2x+1)(x^2+x) antisymmetric (B = 2A).
def _lambda_6_2_plus_symmetric(row):
    return (row[0], row[1] + Polynomial([0, 1, 1])) + row[2:]


def _lambda_6_1_plus_antisymmetric(row):
    return (row[0] + Polynomial([0, 1, 3, 2]),) + row[1:]


# lambda(6,1) + F_2 and lambda(6,2) - x leave sum_nu lambda(6,nu) F_nu as it
# is, since F_1 = x; only the comparison with the recurrence sees them.
def _lambda_6_compensating(row):
    return (row[0] + fubini.fubini_direct(2), row[1] - Polynomial.x()) + row[2:]


def _lambda_6_plus_one_at(nu):
    def corrupt(row):
        return row[:nu - 1] + (row[nu - 1] + 1,) + row[nu:]
    return corrupt


# lambda(6, nu) + 1, as lambda-expansion reports it: (nu, served) against
# (nu, recurrence).
_LAMBDA_6_PLUS_ONE_ENTRIES = {
    1: ("(1, [1, 1, 15, 50, 60, 24])", "(1, [0, 1, 15, 50, 60, 24])"),
    2: ("(2, [1, 5, 35, 60, 30])", "(2, [0, 5, 35, 60, 30])"),
    3: ("(3, [1, 10, 30, 20])", "(3, [0, 10, 30, 20])"),
    4: ("(4, [1, 10, 10])", "(4, [0, 10, 10])"),
    5: ("(5, [1, 5])", "(5, [0, 5])"),
    6: ("(6, [2])", "(6, [1])"),
}


@pytest.mark.parametrize("table,index,corrupt,check_id,witness,lhs,rhs", [
    (combinat.sf_table, 5, _bump_third, "fs-at-minus-one", 5, "0", "-1"),
    (combinat.sf_table, 5, _bump_third, "gregory-newton", 5,
     "[0, -1/2, 1/2, 0, 0, 1]", "[0, 0, 0, 0, 0, 1]"),
    (combinat.sf_table, 5, _bump_third, "power-sum-agree", 5, "21067599/128", "21043127/128"),
    (combinat.harmonic_table, 4, lambda h: h + 1, "fh-at-minus-one", 4, "28", "4"),
    (combinat.harmonic_table, 4, lambda h: h + 1, "fh-derivative-form", 4,
     "[0, 1, 21, 66, 50]", "[0, 1, 21, 66, 74]"),
    # H_4 + 1/7 has denominator 84, which divides no SF(n, 4), so the routes
    # that divide SF(n, v) by the denominator of H_v take the Fraction product.
    (combinat.harmonic_table, 4, lambda h: h + Fraction(1, 7), "fh-at-minus-one", 4, "52/7", "4"),
    (combinat.harmonic_table, 4, lambda h: h + Fraction(1, 7), "cor-psi-odd", 5, "45/7", "0"),
    (combinat.harmonic_table, 4, lambda h: h + Fraction(1, 7), "drv-fh-bn", 4, "24/35", "0"),
    (combinat.harmonic_table, 4, lambda h: h + Fraction(1, 7), "bt-harmonic", 4, "-3/28", "-1/4"),
    (combinat.bernoulli_table, 6, lambda b: b + Fraction(1, 3), "worpitzky-integral", 6,
     "1/42", "5/14"),
    (combinat.bernoulli_table, 6, lambda b: b + Fraction(1, 3), "power-sum-agree", 6,
     "-293154350/2187", "-293149490/2187"),
    (_SERVED_BERNOULLI_POLY, 5, lambda p: p + 1, "power-sum-agree", 4,
     "24619/125000", "-381/125000"),
    (_SERVED_LAMBDA, 6, _lambda_6_1_plus_x, "lambda-expansion", 6,
     "(1, [0, 2, 15, 50, 60, 24])", "(1, [0, 1, 15, 50, 60, 24])"),
    (_SERVED_LAMBDA, 6, _lambda_6_1_plus_x, "lambda-reflection", 6, "(1, false)", "(1, true)"),
    (_SERVED_LAMBDA, 6, _lambda_6_1_plus_x, "remainder-vanishes", 6, "1/4", "0"),
    (_SERVED_LAMBDA, 6, _lambda_6_2_plus_symmetric, "lambda-expansion", 6,
     "(2, [0, 6, 36, 60, 30])", "(2, [0, 5, 35, 60, 30])"),
    (_SERVED_LAMBDA, 6, _lambda_6_1_plus_antisymmetric, "lambda-expansion", 6,
     "(1, [0, 2, 18, 52, 60, 24])", "(1, [0, 1, 15, 50, 60, 24])"),
    (_SERVED_LAMBDA, 6, _lambda_6_compensating, "lambda-expansion", 6,
     "(1, [0, 2, 17, 50, 60, 24])", "(1, [0, 1, 15, 50, 60, 24])"),
    (_ORACLE_LAMBDA, 6, _lambda_6_1_plus_x, "lambda-expansion", 6,
     "(1, [0, 1, 15, 50, 60, 24])", "(1, [0, 2, 15, 50, 60, 24])"),
] + [
    (_SERVED_LAMBDA, 6, _lambda_6_plus_one_at(nu), "lambda-expansion", 6, lhs, rhs)
    for nu, (lhs, rhs) in _LAMBDA_6_PLUS_ONE_ENTRIES.items()
], ids=["SF", "SF/gregory-newton", "SF/power-sum", "H", "H/derivative-form",
        "H/fh-at-minus-one", "H/cor-psi-odd", "H/drv-fh-bn", "H/bt-harmonic", "B", "B/power-sum",
        "B(x)",
        "lambda", "lambda/reflection", "lambda/remainder", "lambda/symmetric-entry",
        "lambda/antisymmetric-entry", "lambda/compensating", "lambda/oracle"]
    + [f"lambda/entry-{nu}-plus-one" for nu in _LAMBDA_6_PLUS_ONE_ENTRIES])
def test_one_corrupted_table_entry_fails_at_its_smallest_index(table, index, corrupt,
                                                              check_id, witness, lhs, rhs):
    assert run_check(check_id, 12).passed       # also grows every table the check reads
    run_suite(12, "all")                        # and every table any check reads
    with table.override(index, corrupt(table[index])):
        report = run_check(check_id, 12)
        in_pass = run_suite(12, "all")[CHECK_IDS.index(check_id)]
    assert report.status == "fail"
    assert report.witness_n == witness
    assert (report.lhs, report.rhs) == (lhs, rhs)
    assert (in_pass.status, in_pass.witness_n, in_pass.lhs, in_pass.rhs) == ("fail", witness, lhs, rhs)
    assert run_check(check_id, 12).passed


# The matrix above warms every table before it corrupts one.  A fresh
# interpreter grows the other tables inside the override block instead, from
# the replacement; the block's end must drop those rows too.
def _report_in_fresh_interpreter(script):
    """Run ``script`` after a prelude that defines ``report(check_id)`` in a
    fresh interpreter, and return the (status, witness, lhs, rhs) lists it
    printed, one JSON line each."""
    prelude = ("import json\n"
               "from fractions import Fraction\n"
               "from fubinipoly import combinat\n"
               "from fubinipoly.verify import run_check\n"
               "def report(check_id):\n"
               "    r = run_check(check_id, 12)\n"
               "    print(json.dumps([r.status, r.witness_n, r.lhs, r.rhs]))\n")
    package_parent = os.path.dirname(os.path.dirname(os.path.abspath(fubinipoly.__file__)))
    proc = subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(script)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": package_parent})
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_a_cold_bernoulli_override_is_seen_by_power_sum_agree_and_then_undone():
    inside, after = _report_in_fresh_interpreter("""
        with combinat.bernoulli_table.override(6, combinat.bernoulli(6) + Fraction(1, 3)):
            report("power-sum-agree")
        report("power-sum-agree")
        """)
    assert inside == ["fail", 6, "-293154350/2187", "-293149490/2187"]
    assert after == ["pass", None, None, None]


def test_an_override_drops_the_rows_other_tables_grow_from_it():
    inside, after, value = _report_in_fresh_interpreter("""
        row = list(combinat.sf_row(6))
        row[3] += 1
        with combinat.sf_table.override(6, tuple(row)):
            report("worpitzky-integral")    # B_6 grows from the corrupted row
        report("worpitzky-integral")
        print(json.dumps(str(combinat.bernoulli(6))))
        """)
    assert inside == ["pass", None, None, None]
    assert after == ["pass", None, None, None]
    assert value == "1/42"


def test_lambda_expansion_reports_the_served_entry_when_k_does_not_split():
    # With SF(5,2) + 1, K_5 = F_5 / x is no longer A(u) (2x+1)^e.  The served
    # entry lambda(n, n-6) = C(n-1, n-7) (x+1) F_5 reads the same row at every
    # n where K_5 enters a pair, so from n = 7 the entry comparison fails first.
    corrupted = list(combinat.sf_row(5))
    corrupted[2] += 1
    with combinat.sf_table.override(5, tuple(corrupted)):
        assert verify._k_split(5) is None
        served = fubini.lambda_poly(7, 1)
        got = next(CHECKS["lambda-expansion"].cases(range(7, 10), random.Random(0)))
    oracle = _ORACLE_LAMBDA[7][0]
    assert served != oracle
    assert got == (7, (1, served), (1, oracle))


def test_lambda_expansion_reports_a_refused_k_split(monkeypatch):
    # The form of K_v is never assumed: a split that _k_split refuses on clean
    # data fails the check from n = 7, where K_5 first enters a pair.
    k_split = verify._k_split
    monkeypatch.setattr(verify, "_k_split", lambda v: None if v == 5 else k_split(v))
    report = run_check("lambda-expansion", 12)
    assert (report.status, report.witness_n, report.lhs, report.rhs) \
        == ("fail", 7, "(5, false)", "(5, true)")
    assert list(CHECKS["lambda-expansion"].cases(range(7, 10), random.Random(0))) \
        == [(n, (5, False), (5, True)) for n in range(7, 10)]


def test_k_splits_as_a_reflection_member():
    for v in range(1, 61):
        part, e = verify._k_split(v)
        assert e == (v + 1) % 2
        k = Polynomial(fubini.fubini_direct(v).coefficients[1:])
        assert Polynomial.from_reflection_parts(part, part * (2 * e), Fraction(-1, 2)) == k
        assert part.degree == (v - 1) // 2 and part.has_nonneg_int_coeffs()
    with combinat.sf_table.override(5, (1,) + combinat.sf_row(5)[1:]):
        assert verify._k_split(5) is None       # F_5 with a constant term


def _gregory_newton_cases_by_fraction_steps(ns):
    # The reference for the integer route: the C(x,k) as Fraction-coefficient
    # polynomials, summed one Polynomial addition at a time.
    binom_polys = [Polynomial.one()]
    for k in range(1, ns.stop):
        binom_polys.append(binom_polys[-1] * Polynomial([-(k - 1), 1]) * Fraction(1, k))
    for n in ns:
        row = combinat.sf_row(n)
        total = Polynomial.zero()
        for k in range(n + 1):
            if row[k]:
                total = total + binom_polys[k] * row[k]
        yield n, total, Polynomial.monomial(1, n)


def test_gregory_newton_cases_match_fraction_step_oracle():
    ns = range(1, 61)
    got = list(CHECKS["gregory-newton"].cases(ns, random.Random(0)))
    want = list(_gregory_newton_cases_by_fraction_steps(ns))
    assert got == want
    for (_, lhs, _), (_, ref, _) in zip(got, want):
        assert [type(c) for c in lhs] == [type(c) for c in ref]


def _drv_fh_bn_cases_by_fraction_steps(ns):
    # The reference for the one-denominator sum: each term SF(n,v) H_v / (v+1)
    # a Fraction, added one gcd-normalised step at a time.
    for n in ns:
        row = combinat.sf_row(n)
        total = Fraction(0)
        for v in range(1, n + 1):
            term = row[v] * combinat.harmonic(v) / (v + 1)
            total += -term if v % 2 else term
        yield n, total, -Fraction(n, 2) * combinat.bernoulli(n - 1)


def test_drv_fh_bn_cases_match_fraction_step_oracle():
    ns = range(1, 61)
    got = list(CHECKS["drv-fh-bn"].cases(ns, random.Random(0)))
    want = list(_drv_fh_bn_cases_by_fraction_steps(ns))
    assert got == want
    for (_, lhs, _), (_, ref, _) in zip(got, want):
        assert type(lhs) is type(ref) is Fraction
    with combinat.harmonic_table.override(4, combinat.harmonic(4) + Fraction(1, 7)):
        ns = range(1, 13)
        assert (list(CHECKS["drv-fh-bn"].cases(ns, random.Random(0)))
                == list(_drv_fh_bn_cases_by_fraction_steps(ns)))
