import json
import math
import os
import random
import subprocess
import sys
import textwrap
from contextlib import contextmanager, nullcontext
from fractions import Fraction

import pytest

import fubinipoly
from fubinipoly import combinat, fubini, transforms, verify
from fubinipoly.cli import main
from fubinipoly.exactpoly import Polynomial, format_value
from fubinipoly.verify import (
    CHECK_IDS,
    CHECKS,
    IdentityCheck,
    IdentityReport,
    run_check,
    run_suite,
)


@contextmanager
def _a_pass():
    """The row store of a pass, opened as ``_run_pass`` opens it: case
    generators and ``verify._row`` read shared rows only within a pass."""
    token = verify._pass_rows.set({})
    try:
        yield
    finally:
        verify._pass_rows.reset(token)


def _flat(ns, lists):
    """The per-index lists of a case generator over ``ns`` as (n, lhs, rhs)."""
    return [(n, lhs, rhs) for n, pairs in zip(ns, lists) for lhs, rhs in pairs]


def _cases(check_id, ns):
    """The cases of a check over ``ns``, pulled in a pass of their own."""
    with _a_pass():
        return _flat(ns, CHECKS[check_id].cases(ns, random.Random(0)))


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
    # failing index only because every generator yields one list of
    # (lhs, rhs) pairs per index of its range, in ascending order.
    for check in CHECKS.values():
        ns = check.indices(12)
        with _a_pass():
            lists = list(check.cases(ns, random.Random(0)))
        assert len(lists) == len(ns), check.check_id
        assert all(len(pair) == 2 for pairs in lists for pair in pairs), check.check_id


def test_empty_selection_rejected():
    with pytest.raises(ValueError):
        run_suite(8, [])


def test_unknown_check_id_rejected():
    with pytest.raises(ValueError):
        run_check("no-such-id", 8)
    with pytest.raises(ValueError):
        run_suite(8, ["fs-at-minus-one", "no-such-id"])


def test_all_combined_with_check_ids_is_refused_before_any_check_runs(monkeypatch):
    monkeypatch.setattr(verify, "_run_pass", lambda *args: pytest.fail("a check ran"))
    for selection in (["all", "fs-at-minus-one"], ["fs-at-minus-one", "all"]):
        with pytest.raises(ValueError, match="^'all' cannot be combined with check ids"):
            run_suite(8, selection)


def test_a_repeated_check_id_is_refused_before_any_check_runs(monkeypatch):
    monkeypatch.setattr(verify, "_run_pass", lambda *args: pytest.fail("a check ran"))
    with pytest.raises(ValueError, match=r"^check id\(s\) given more than once: 'fs-at-minus-one'$"):
        run_suite(5, ["fs-at-minus-one", "fs-at-minus-one"])
    with pytest.raises(ValueError, match=r"more than once: 'lambda-top', 'fs-at-minus-one'$"):
        run_suite(5, ["lambda-top", "fs-at-minus-one", "lambda-top", "fs-at-minus-one", "fs-at-minus-one"])


def test_bad_max_n_rejected():
    with pytest.raises(ValueError):
        run_check("fs-at-minus-one", 0)
    with pytest.raises(ValueError):
        run_suite(-3, "all")


def test_reports_and_checks_are_immutable_named_tuples():
    report = run_check("bt-involution", 4)
    check = CHECKS["bt-involution"]
    for record, field in ((report, "status"), (check, "cases")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert IdentityCheck._fields == ("check_id", "description", "randomized", "indices", "cases")
    assert IdentityReport._fields == ("check_id", "n_min", "n_max", "status", "witness_n",
                                      "lhs", "rhs", "seed", "elapsed_ms")
    assert report == IdentityReport(**report.to_dict())
    changed = check._replace(randomized=False)
    assert not changed.randomized and changed._replace(randomized=True) == check


def test_report_dict_keys_are_the_fields_in_order_and_those_of_a_json_report(capsys):
    assert main(["verify", "--max-n", "4", "--checks", "bt-involution", "--format", "json"]) == 0
    json_report, = json.loads(capsys.readouterr().out)["reports"]
    assert list(run_check("bt-involution", 4).to_dict()) == list(IdentityReport._fields) \
        == list(json_report)


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
    with _SERVED_LAMBDA.override(6, _lambda_1_plus_x(_SERVED_LAMBDA[6])):
        reflection = run_suite(12, _ROW_READERS)[_ROW_READERS.index("lambda-reflection")]
    assert (reflection.witness_n, reflection.lhs) == (6, "(1, false)")
    assert all(r.passed for r in run_suite(12, _ROW_READERS))


# Fhat_n, with its harmonic steps (D_1, ..., D_n), is stepped from row n - 1,
# so a pass in which a check that steps by 2 (thm-main-central) comes before
# one that steps by 1 (fh-at-minus-one) must still step each row once,
# holding one (n, row) pair per kind at an index the pass has reached.
def test_a_pass_builds_each_row_once_and_keeps_at_most_its_cap(monkeypatch):
    built = {"_hfubini_row": [], "_served_lambda_row": []}
    direct = []
    held = []

    def counted(name):
        build = getattr(verify, name)

        def count(n):
            built[name].append(n)
            return build(n)
        return count

    def watched(cases):
        def pull_and_watch(ns, rng):
            for n, case in zip(ns, cases(ns, rng)):
                held.extend((n, at) for at, _ in verify._pass_rows.get().values())
                yield case
        return pull_and_watch

    for name in built:
        monkeypatch.setattr(verify, name, counted(name))
    monkeypatch.setattr(fubini, "hfubini_direct", direct.append)
    for check_id, check in CHECKS.items():
        monkeypatch.setitem(CHECKS, check_id, check._replace(cases=watched(check.cases)))
    for selection, kinds in (("all", set(built)),
                             (["thm-main-central", "fh-at-minus-one"], {"_hfubini_row"})):
        for ns in built.values():
            ns.clear()
        held.clear()
        assert all(r.passed for r in run_suite(60, selection))
        assert {name: sorted(ns) for name, ns in built.items()} == {
            name: list(range(1, 61)) if name in kinds else [] for name in built}, selection
        # The random checks scan 1..200 whatever max_n is.
        assert held and all(min(n, 60) - 2 <= at <= n for n, at in held)
    assert direct == []


def _same_rows(got, want):
    return got == want and [type(c) for c in got.coefficients] == [type(c) for c in want.coefficients]


def _rolled_rows_of_a_pass(max_n):
    with _a_pass():
        return [verify._fhat(n) for n in range(1, max_n + 1)]


def test_the_rolled_fhat_rows_equal_the_direct_sum_in_value_and_type():
    rows = _rolled_rows_of_a_pass(300)
    assert all(_same_rows(row, fubini.hfubini_direct(n)) for n, row in enumerate(rows, 1))
    # H_4 + 1/7 = 187/84, so SF(n, 4) H_4 is a Fraction unless 7 divides SF(n, 4).
    with combinat.harmonic_table.override(4, combinat.harmonic(4) + Fraction(1, 7)):
        rows = _rolled_rows_of_a_pass(40)
        want = [fubini.hfubini_direct(n) for n in range(1, 41)]
        assert all(_same_rows(row, w) for row, w in zip(rows, want))
        assert any(type(row.coefficient(4)) is Fraction for row in rows)


def test_a_pass_that_steps_by_two_builds_rows_at_most_two_deep(monkeypatch):
    # thm-main-central and cor-psi-odd read Fhat_n at every other n, so each
    # read steps row n from row n - 1, which steps from the held row n - 2.
    # Rows 1..n - 1 of a pass at 600 nested in one another would pass the
    # recursion limit.
    depth, deepest = [0], []
    build = verify._hfubini_row

    def nested(n):
        depth[0] += 1
        deepest[-1] = max(deepest[-1], depth[0])
        try:
            return build(n)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(verify, "_hfubini_row", nested)
    for check_id in ("thm-main-central", "cor-psi-odd"):
        deepest.append(0)
        assert run_suite(600, [check_id])[0].passed, check_id
    assert deepest == [2, 2]


def test_a_pass_pulls_cases_in_index_order_ties_in_selection_order(monkeypatch):
    # At each index, in selection order, each check whose range holds it
    # pulls that index's cases; no check pulls ahead of the pass.  This order
    # decides which pass rows are built when, and so that one row per kind
    # is enough.
    pulls = []

    def logged(check):
        def cases(ns, rng):
            for n, pairs in zip(ns, check.cases(ns, rng)):
                pulls.append((check.check_id, n))
                yield pairs
        return check._replace(cases=cases)

    for check_id, check in CHECKS.items():
        monkeypatch.setitem(CHECKS, check_id, logged(check))
    assert all(r.passed for r in run_suite(6, ["thm-main-central", "fs-at-minus-one", "cor-psi-odd"]))
    assert pulls == [
        ("fs-at-minus-one", 1), ("cor-psi-odd", 1), ("thm-main-central", 2),
        ("fs-at-minus-one", 2), ("fs-at-minus-one", 3), ("cor-psi-odd", 3),
        ("thm-main-central", 4), ("fs-at-minus-one", 4), ("fs-at-minus-one", 5),
        ("cor-psi-odd", 5), ("thm-main-central", 6), ("fs-at-minus-one", 6),
    ]


def test_a_shared_row_is_built_by_its_first_reader_at_its_index(monkeypatch):
    # remainder-vanishes comes later in the selection, so every served
    # lambda row is built while lambda-expansion pulls the cases of its
    # index, and is charged to it.
    built, pulling = [], []
    served = verify._served_lambda_row

    def pulled_by(check):
        def cases(ns, rng):
            lists = check.cases(ns, rng)
            while True:
                pulling[:] = [check.check_id]
                pairs = next(lists, None)
                if pairs is None:
                    return
                yield pairs
        return check._replace(cases=cases)

    monkeypatch.setattr(verify, "_served_lambda_row", lambda n: built.append((n, *pulling)) or served(n))
    for check_id in ("lambda-expansion", "remainder-vanishes"):
        monkeypatch.setitem(CHECKS, check_id, pulled_by(CHECKS[check_id]))
    assert all(r.passed for r in run_suite(12, ["lambda-expansion", "remainder-vanishes"]))
    assert built == [(n, "lambda-expansion") for n in range(1, 13)]


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


# A pass that serves no lambda row releases the SF rows below n - 1 as it
# reaches index n; one that serves them releases none.
_VALUE_CHECKS = ["fs-at-minus-one", "fh-at-minus-one", "worpitzky-integral", "fs-central-value",
                 "thm-main-integral", "thm-main-central", "cor-psi-odd", "drv-fh-bn", "bt-harmonic"]


def _sf_rows_held(top):
    return [n for n, row in enumerate(combinat.sf_table._rows[:top + 1]) if row is not None]


def test_a_value_pass_keeps_a_window_of_sf_rows_and_rebuilds_the_rest_true():
    assert all(r.passed for r in run_suite(300, _VALUE_CHECKS))
    held = _sf_rows_held(301)
    assert held[0] == 0 and len(held) <= 5 and min(held[1:]) >= 297
    row = (1,)
    for m in range(1, 302):
        row = combinat._sf_row(row, m)
        assert combinat.sf_row(m) == row
    assert run_check("lambda-reflection", 60).passed


def test_a_value_pass_that_steps_by_two_builds_each_sf_row_once(monkeypatch):
    # Alone, thm-main-central has built SF rows only up to n - 2 at odd n;
    # the pass keeps that row, so row n - 1 is stepped from it, not from 0.
    combinat.sf_table.release(10 ** 6)      # all but the base and the top
    built = []
    extend = combinat.sf_table._extend
    monkeypatch.setattr(combinat.sf_table, "_extend", lambda row, m: built.append(m) or extend(row, m))
    assert run_suite(200, ["thm-main-central"])[0].passed
    assert built and len(built) == len(set(built))


def test_a_pass_that_serves_lambda_rows_keeps_every_sf_row():
    run_suite(60, _VALUE_CHECKS)
    assert all(r.passed for r in run_suite(60, "all"))
    assert _sf_rows_held(60) == list(range(61))


def test_a_value_pass_inside_an_override_block_keeps_the_replaced_sf_row():
    row = combinat.sf_row(5)
    with combinat.sf_table.override(5, row[:3] + (row[3] + 1,) + row[4:]):
        assert run_suite(40, ["bt-harmonic"])[0].passed
        report = run_check("fs-at-minus-one", 12)
    assert (report.status, report.witness_n) == ("fail", 5)
    assert run_check("fs-at-minus-one", 12).passed


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
    """The rows of the recurrence, built entry by entry by
    ``verify._lambda_entry``.  lambda-expansion steps only lambda(n, 1) by
    it, from the served row before it, and holds each entry nu >= 2 to
    Pascal's ratio with that row; lambda-top rolls the top two entries
    forward by it.  ``override`` makes that function serve row n, so it
    reaches lambda-expansion only at nu = 1, and lambda-top."""

    def __getitem__(self, n):
        row = (Polynomial.one(),)
        for m in range(2, n + 1):
            row = tuple(Polynomial(verify._lambda_entry(m, nu, row[nu - 1].coefficients if nu < m else (),
                                                         row[nu - 2].coefficients if nu >= 2 else ()))
                        for nu in range(1, m + 1))
        return row

    def override(self, n, row):
        entry = verify._lambda_entry
        return _patched(verify, "_lambda_entry",
                        lambda m, nu, c, below: row[nu - 1].coefficients if m == n else entry(m, nu, c, below))


class _ServedBernoulliPolys:
    """The polynomials B_n(x) as power_sum_poly reads them from
    bernoulli_poly, which holds no memo table: ``override`` corrupts B_n(x)
    for a block by patching ``fubini.bernoulli_poly``."""

    def __getitem__(self, n):
        return fubini.bernoulli_poly(n)

    def override(self, n, poly):
        served = fubini.bernoulli_poly
        return _patched(fubini, "bernoulli_poly", lambda m: poly if m == n else served(m))


class _DerivativeSideFubini:
    """F_n as hfubini_via_derivatives reads it, through
    ``transforms.fubini_direct``: ``override`` corrupts F_n for a block on
    the derivative side of fh-derivative-form alone, by patching that name;
    the direct side still reads the SF table."""

    def __getitem__(self, n):
        return transforms.fubini_direct(n)

    def override(self, n, poly):
        served = transforms.fubini_direct
        return _patched(transforms, "fubini_direct", lambda m: poly if m == n else served(m))


_SERVED_LAMBDA = _ServedLambdaRows()
_ORACLE_LAMBDA = _OracleLambdaRows()
_SERVED_BERNOULLI_POLY = _ServedBernoulliPolys()
_DERIVATIVE_SIDE_F = _DerivativeSideFubini()


# One corrupted entry per memo table, per source of lambda rows, and of F_n
# as the derivative route reads it; each row is (table, index, corruption, a
# check that reads the entry, the smallest index that check can see it at,
# and the two sides it then reports).
# B_m(x) enters power-sum-agree at n = m - 1; H_v enters Fhat_n for n >= v.
# B_6 enters it at n = 6, as the x term of B_7(x): at n = 5 the constant of
# B_6(x) and the B_6 subtracted from it are the same corrupted value.
# lambda(6,1) + x is read by three checks: the expansion, the reflection test
# (x is not symmetric about -1/2) and the value at -1/2.  lambda-expansion
# compares served row 1 with lambda(1,1) = 1, and each entry of row n >= 2
# with served row n - 1, which has matched already: lambda(n,1) with its
# entry stepped by the recurrence, and each entry nu >= 2 by Pascal's ratio
# (nu-1) lambda(n,nu) = (n-1) lambda(n-1,nu-1), which only the recurrence's
# entry satisfies.  It reports the first served entry that differs, (nu,
# served) against (nu, recurrence), stepping the recurrence's entry for
# that report alone, so the lambda(6, nu) + 1 rows keep their strings.  A
# corruption of the recurrence's row 6 reaches it only at nu = 1, which it
# sees the same way.  The base of that induction is held by lambda(1,1) + 1
# at 1 and lambda(2,1) + x at 2.  lambda-top rolls only the top two entries
# of the recurrence forward, so it sees lambda(6,5) + 1 there.
# SF row a enters lambda-reflection first at n = a + 2, as the served
# lambda(a+2, 1) = (x+1) F_a: with row 5 corrupted, that entry misses the
# recurrence, so it is split in full and fails.
# A pass steps Fhat_n from SF row n - 1, so fh-at-minus-one,
# thm-main-integral and drv-fh-bn, which read SF row n only through Fhat_n,
# see a corrupted SF row m at m + 1.  fh-derivative-form reads SF row n on
# its derivative side, so it sees the corruption at m: SF(5,2) + 1 = 31
# gives 31 H_2 = 93/2 at x^2, against the 30 H_2 = 45 stepped from row 4.
# lambda-expansion reads SF row n as F_n in its expansion of Fhat_n, so it
# sees the same corruption at m as SF(5,2) + 1 = 46 at x^2, and H_4 + 1 at
# 4 as the clean expansion against the corrupted Fhat_4.
# The matrix also holds its harmonic side, and F_5 corrupted on its
# derivative side alone: 151 x^3 there gives 151 H_3 = 1661/6, which the
# derivative route forms as a Fraction.
def _lambda_1_plus_x(row):
    return (row[0] + Polynomial.x(),) + row[1:]


# lambda(6,2) + x^5 has degree 5, not 6 - 2: only lambda-degree-P reads the
# degree of a served entry.
def _lambda_6_2_plus_x5(row):
    return (row[0], row[1] + Polynomial.monomial(1, 5)) + row[2:]


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


def _lambda_plus_one_at(nu):
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
    (combinat.sf_table, 5, _bump_third, "lambda-reflection", 7, "(1, false)", "(1, true)"),
    (combinat.sf_table, 5, _bump_third, "fh-derivative-form", 5,
     "[0, 1, 93/2, 275, 500, 274]", "[0, 1, 45, 275, 500, 274]"),
    (combinat.sf_table, 5, _bump_third, "fh-at-minus-one", 6, "5", "6"),
    (combinat.sf_table, 5, _bump_third, "lambda-expansion", 5,
     "[0, 1, 46, 275, 500, 274]", "[0, 1, 45, 275, 500, 274]"),
    (combinat.harmonic_table, 4, lambda h: h + 1, "fh-at-minus-one", 4, "28", "4"),
    (combinat.harmonic_table, 4, lambda h: h + 1, "fh-derivative-form", 4,
     "[0, 1, 21, 66, 50]", "[0, 1, 21, 66, 74]"),
    (combinat.harmonic_table, 4, lambda h: h + 1, "lambda-expansion", 4,
     "[0, 1, 21, 66, 50]", "[0, 1, 21, 66, 74]"),
    (_DERIVATIVE_SIDE_F, 5, lambda f: f + Polynomial.monomial(1, 3), "fh-derivative-form", 5,
     "[0, 1, 45, 1661/6, 500, 274]", "[0, 1, 45, 275, 500, 274]"),
    # H_4 + 1/7 has denominator 84, which divides neither SF(4, 4) = 24 nor
    # SF(5, 4) = 240 (it first divides SF(7, 4)), so at these witnesses
    # SF(n, 4) H_4 is a Fraction.
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
    (_SERVED_LAMBDA, 6, _lambda_1_plus_x, "lambda-expansion", 6,
     "(1, [0, 2, 15, 50, 60, 24])", "(1, [0, 1, 15, 50, 60, 24])"),
    (_SERVED_LAMBDA, 6, _lambda_1_plus_x, "lambda-reflection", 6, "(1, false)", "(1, true)"),
    (_SERVED_LAMBDA, 6, _lambda_1_plus_x, "remainder-vanishes", 6, "1/4", "0"),
    (_SERVED_LAMBDA, 6, _lambda_6_2_plus_x5, "lambda-degree-P", 6, "(2, 5, true)", "(2, 4, true)"),
    (_SERVED_LAMBDA, 6, _lambda_6_2_plus_symmetric, "lambda-expansion", 6,
     "(2, [0, 6, 36, 60, 30])", "(2, [0, 5, 35, 60, 30])"),
    (_SERVED_LAMBDA, 6, _lambda_6_1_plus_antisymmetric, "lambda-expansion", 6,
     "(1, [0, 2, 18, 52, 60, 24])", "(1, [0, 1, 15, 50, 60, 24])"),
    (_SERVED_LAMBDA, 6, _lambda_6_compensating, "lambda-expansion", 6,
     "(1, [0, 2, 17, 50, 60, 24])", "(1, [0, 1, 15, 50, 60, 24])"),
    (_ORACLE_LAMBDA, 6, _lambda_1_plus_x, "lambda-expansion", 6,
     "(1, [0, 1, 15, 50, 60, 24])", "(1, [0, 2, 15, 50, 60, 24])"),
    (_SERVED_LAMBDA, 1, _lambda_plus_one_at(1), "lambda-expansion", 1, "(1, [2])", "(1, [1])"),
    (_SERVED_LAMBDA, 2, _lambda_1_plus_x, "lambda-expansion", 2, "(1, [0, 2])", "(1, [0, 1])"),
    (_ORACLE_LAMBDA, 6, _lambda_plus_one_at(5), "lambda-top", 6, "[1, 5]", "[0, 5]"),
] + [
    (_SERVED_LAMBDA, 6, _lambda_plus_one_at(nu), "lambda-expansion", 6, lhs, rhs)
    for nu, (lhs, rhs) in _LAMBDA_6_PLUS_ONE_ENTRIES.items()
], ids=["SF", "SF/gregory-newton", "SF/power-sum", "SF/lambda-reflection", "SF/fh-derivative-form",
        "SF/fh-at-minus-one", "SF/lambda-expansion", "H", "H/derivative-form", "H/lambda-expansion",
        "F/derivative-side",
        "H/fh-at-minus-one", "H/cor-psi-odd", "H/drv-fh-bn", "H/bt-harmonic", "B", "B/power-sum",
        "B(x)",
        "lambda", "lambda/reflection", "lambda/remainder", "lambda/degree-P", "lambda/symmetric-entry",
        "lambda/antisymmetric-entry", "lambda/compensating", "lambda/oracle", "lambda/row-1", "lambda/row-2",
        "lambda/oracle-top"]
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


# The three randomized checks read no table; each is shown to fail under a
# fault in the kernel it exercises.  The transform keeps its length: one that
# dropped its last entry would make bt-harmonic index past the end.
_POLYNOMIAL_MUL = Polynomial.__mul__
_BINOMIAL_TRANSFORM = verify.binomial_transform


def _mul_skipping_a_cross_term(f, g):
    """Polynomial.__mul__ without the term f_1 g_0 of x."""
    if not isinstance(g, Polynomial):
        return _POLYNOMIAL_MUL(f, g)
    out = [0] * (len(f.coefficients) + len(g.coefficients) - 1)
    for i, a in enumerate(f.coefficients):
        for j, b in enumerate(g.coefficients):
            if (i, j) != (1, 0):
                out[i + j] += a * b
    return Polynomial(out)


def _derivative_dropping_its_top_term(f):
    return Polynomial([i * c for i, c in enumerate(f.coefficients)][1:-1])


# The first random sequence of bt-involution at seed 0, less its last entry.
_BT_CASE_1_HEAD = ("(95/14, -89/9, 31/16, 2/5, 23/12, 50/7, 6, -27/5, 47/2, 59/9, 37/20, -31/5, "
                   "-74/3, 76/11, 7/6, -37/6, 12/11, 57/7, 21/8, 14/17, -33/2, 41, -76/13, 82")


@pytest.mark.parametrize("owner,name,mutant,check_id,witness,lhs,rhs", [
    (Polynomial, "__mul__", _mul_skipping_a_cross_term, "semiring-closure", 8,
     "(product, false)", "(product, true)"),
    (verify, "binomial_transform", lambda seq: _BINOMIAL_TRANSFORM(seq)[:-1] + (0,),
     "bt-involution", 1, _BT_CASE_1_HEAD + ", 0)", _BT_CASE_1_HEAD + ", 57/16)"),
    (Polynomial, "derivative", _derivative_dropping_its_top_term, "euler-hadamard", 1,
     "[-4, 1271/16, -33/8, -44/17, 188/3, -2323/64, -14]",
     "[-4, 1271/16, -33/8, -44/17, 256/3, -23/4, -28]"),
], ids=["mul-skips-a-cross-term", "transform-zeroes-its-last-entry", "derivative-drops-its-top-term"])
def test_one_kernel_mutation_fails_its_randomized_check(owner, name, mutant, check_id,
                                                       witness, lhs, rhs):
    assert run_check(check_id, 12).passed
    with _patched(owner, name, mutant):
        report = run_check(check_id, 12)
        in_pass = run_suite(12, "all")[CHECK_IDS.index(check_id)]
    assert (report.status, report.witness_n, report.lhs, report.rhs) == ("fail", witness, lhs, rhs)
    assert in_pass._replace(elapsed_ms=0) == report._replace(elapsed_ms=0)
    assert run_check(check_id, 12).passed


# The sweep: one corrupted entry at a time, each of which must fail at least
# one check of a full pass at bound 6.  It covers every entry of SF rows
# 1..6 (+1), every H_1..H_6 (+1 and +1/7) and every B_0..B_6 (+1/3).  Two
# kinds of entry escape every check and are left out: the S2 rows, which no
# check reads (they wait for an sf-stirling check), and SF row 0, which only
# seeds row 1.
def _swept_corruptions():
    for n in range(1, 7):
        for k in range(n + 1):
            yield pytest.param(combinat.sf_table, n, lambda row, k=k: row[:k] + (row[k] + 1,) + row[k + 1:],
                               id=f"SF({n},{k})+1")
    for n in range(1, 7):
        for delta in (1, Fraction(1, 7)):
            yield pytest.param(combinat.harmonic_table, n, lambda h, delta=delta: h + delta,
                               id=f"H_{n}+{delta}")
    for n in range(7):
        yield pytest.param(combinat.bernoulli_table, n, lambda b: b + Fraction(1, 3), id=f"B_{n}+1/3")


@pytest.mark.parametrize("table,index,corrupt", _swept_corruptions())
def test_every_sf_h_and_b_entry_up_to_6_is_caught_by_some_check(table, index, corrupt):
    run_suite(6, "all")                         # grows every table a check reads
    with table.override(index, corrupt(table[index])):
        failed = [r.check_id for r in run_suite(6, "all") if r.status == "fail"]
    assert failed


# A case that raises fails its own check, and the other checks of the pass
# still report.  The witness is the index being pulled.
def test_a_check_that_raises_fails_alone_and_the_pass_goes_on(capsys):
    # A transform that drops its last entry makes bt-harmonic read past the
    # end at n = 12; bt-involution fails on the shorter round trip.
    with _patched(verify, "binomial_transform", lambda seq: _BINOMIAL_TRANSFORM(seq)[:-1]):
        code = main(["verify", "--max-n", "12"])
        report = run_check("bt-harmonic", 12)
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert len(lines) == len(CHECK_IDS) + 1 and lines[-1] == "20/22 checks passed"
    assert ("fail bt-harmonic  n=1..12  witness n=12: "
            "lhs=IndexError: tuple index out of range rhs=no exception") in lines
    assert (report.status, report.witness_n, report.lhs, report.rhs) \
        == ("fail", 12, "IndexError: tuple index out of range", "no exception")


# A check with several cases at one index yields them as one list, so a case
# that raises among them is reported at its own index, not at the next one.
# power-sum-agree builds its one case at n = 5 from the Newton sum of SF row
# 5, which raises there.  Each mutant is made afresh for each run.
def _newton_sum_raising_at_5():
    served = verify._newton_sum

    def _newton_sum(row):
        if row[1:] == combinat.sf_row(5):
            raise ArithmeticError("Newton sum at n = 5")
        return served(row)
    return _newton_sum


def _has_nonneg_int_coeffs_raising_on_lambda_4_2():
    served = Polynomial.has_nonneg_int_coeffs

    def has_nonneg_int_coeffs(self):
        if self.coefficients == (0, 3, 3):
            raise ArithmeticError("lambda(4, 2)")
        return served(self)
    return has_nonneg_int_coeffs


@pytest.mark.parametrize("owner,name,make_mutant,check_id,witness,lhs", [
    (verify, "_newton_sum", _newton_sum_raising_at_5, "power-sum-agree", 5,
     "ArithmeticError: Newton sum at n = 5"),
    (Polynomial, "has_nonneg_int_coeffs", _has_nonneg_int_coeffs_raising_on_lambda_4_2,
     "lambda-degree-P", 4, "ArithmeticError: lambda(4, 2)"),
], ids=["power-sum-agree", "lambda-degree-P"])
def test_a_case_that_raises_among_several_at_one_index_is_reported_at_that_index(
        owner, name, make_mutant, check_id, witness, lhs):
    with _patched(owner, name, make_mutant()):
        report = run_check(check_id, 8)
    with _patched(owner, name, make_mutant()):
        in_pass = run_suite(8, "all")[CHECK_IDS.index(check_id)]
    assert (report.status, report.witness_n, report.lhs, report.rhs) \
        == ("fail", witness, lhs, "no exception")
    assert in_pass._replace(elapsed_ms=0) == report._replace(elapsed_ms=0)


def test_a_check_whose_setup_raises_fails_at_its_first_index_and_the_pass_goes_on():
    # bt-harmonic transforms its whole sequence before its first list, and
    # bt-involution transforms at its first case; every other check passes.
    def refusing(seq):
        raise ArithmeticError("no transform")

    with _patched(verify, "binomial_transform", refusing):
        reports = run_suite(12, "all")
    failed = {r.check_id: (r.status, r.witness_n, r.lhs, r.rhs) for r in reports if not r.passed}
    assert failed == {check_id: ("fail", 1, "ArithmeticError: no transform", "no exception")
                      for check_id in ("bt-involution", "bt-harmonic")}
    assert len(reports) == len(CHECK_IDS)


def test_a_value_error_inside_a_check_is_its_failure_not_a_usage_error(capsys):
    psi = verify.psi_from_hfubini

    def refusing(n, fhat):
        if n == 7:
            raise ValueError("psi refused")
        return psi(n, fhat)

    with _patched(verify, "psi_from_hfubini", refusing):
        code = main(["verify", "--max-n", "12"])
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert (code, err) == (1, "")
    assert lines[-1] == "21/22 checks passed"
    assert "fail cor-psi-odd  n=1..12  witness n=7: lhs=ValueError: psi refused rhs=no exception" in lines


def test_an_interrupt_inside_a_check_still_ends_the_pass():
    def interrupted(n, fhat):
        raise KeyboardInterrupt

    with _patched(verify, "psi_from_hfubini", interrupted):
        with pytest.raises(KeyboardInterrupt):
            run_suite(4, "all")


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
    # E_5 = 16 -> 17 gives B_6 = 6 * 17 / (2^6 (2^6 - 1)) = 17/672.
    inside, after, value = _report_in_fresh_interpreter("""
        row = combinat.zigzag_table[5]
        with combinat.zigzag_table.override(5, row[:-1] + (row[-1] + 1,)):
            report("worpitzky-integral")    # B_6 grows from the corrupted row
        report("worpitzky-integral")
        print(json.dumps(str(combinat.bernoulli(6))))
        """)
    assert inside == ["fail", 6, "1/42", "17/672"]
    assert after == ["pass", None, None, None]
    assert value == "1/42"


def test_a_cold_sf_override_fails_worpitzky_integral():
    # B_n reads no SF row, so the integral of the corrupted F_6 is compared
    # with the true B_6: SF(6,3) + 1 adds (-1)^3 / 4 to 1/42.
    inside, = _report_in_fresh_interpreter("""
        row = list(combinat.sf_row(6))
        row[3] += 1
        with combinat.sf_table.override(6, tuple(row)):
            report("worpitzky-integral")
        """)
    assert inside == ["fail", 6, "-19/84", "1/42"]


def test_lambda_expansion_reports_the_served_entry_under_a_corrupted_sf_row():
    # With SF(5,2) + 1, the served entry lambda(n, n-6) = C(n-1, n-7) (x+1) F_5
    # reads the corrupted row at every n >= 7, so from n = 7 the entry
    # comparison fails first.
    corrupted = list(combinat.sf_row(5))
    corrupted[2] += 1
    with combinat.sf_table.override(5, tuple(corrupted)):
        served = fubini.lambda_poly(7, 1)
        got = _cases("lambda-expansion", range(7, 10))
    oracle = _ORACLE_LAMBDA[7][0]
    assert served != oracle
    assert got == [(7, (1, served), (1, oracle))]


def _lambda_expansion_by_pair_products(n):
    # The reference for the Leibniz step: the paper's expansion with the
    # closed form of lambda, one product F_a F_b per pair a + b = n-1:
    # F_n + (n-1) x F_(n-1) + (x+1) sum_(a,b>=1) C(n-1,b-1) F_a F_b.
    f = fubini.fubini_direct
    pairs = Polynomial.zero()
    for a in range(1, n - 1):
        b = n - 1 - a
        pairs += f(a) * f(b) * math.comb(n - 1, b - 1)
    return f(n) + Polynomial.monomial(n - 1, 1) * f(n - 1) + Polynomial([1, 1]) * pairs


def test_lambda_expansion_matches_the_pair_products_and_fhat():
    cases = _cases("lambda-expansion", range(2, 151))
    assert [n for n, _, _ in cases] == list(range(2, 151))
    for n, expansion, fhat in cases:
        if n <= 60:
            assert expansion == _lambda_expansion_by_pair_products(n), n
        assert expansion == fhat == fubini.hfubini_direct(n), n


def _lambda_6_2_doubled(row):
    return (row[0], row[1] * 2) + row[2:]


@contextmanager
def _counted_reflection_tests():
    calls = []
    test = Polynomial.in_reflection_class

    def counted(self, alpha):
        calls.append(self)
        return test(self, alpha)

    with _patched(Polynomial, "in_reflection_class", counted):
        yield calls


def test_lambda_reflection_splits_each_p_a_once_on_clean_data():
    # One split of lambda(n, 1) = (x+1) F_(n-2) for each n in 3..40; every
    # served row then matches the recurrence, so each other entry is a
    # multiple C(n-1, nu-1) lambda(n+1-nu, 1) of one split before it.
    assert run_check("lambda-reflection", 40).passed
    with _counted_reflection_tests() as calls:
        assert run_check("lambda-reflection", 40).passed
    assert len(calls) == 38
    # A scan from 7 has split no lambda(m, 1) with m < 7, so in each row it
    # also splits the four entries nu = n-5..n-2 that are multiples of one.
    with _counted_reflection_tests() as calls:
        _cases("lambda-reflection", range(7, 41))
    assert len(calls) == (1 + 4) * 34


@pytest.mark.parametrize("table,index,corrupt", [
    (None, None, None),
    (combinat.sf_table, 5, _bump_third),
    (_SERVED_LAMBDA, 6, _lambda_1_plus_x),
    (_SERVED_LAMBDA, 6, _lambda_6_2_doubled),
    (_SERVED_LAMBDA, 6, _lambda_6_2_plus_symmetric),
], ids=["clean", "SF", "lambda-plus-x", "lambda-doubled", "lambda-plus-symmetric"])
def test_lambda_reflection_verdicts_match_a_full_split(table, index, corrupt):
    # Also from 7: a scan takes an entry as a multiple only of a
    # lambda(m, 1) it has split itself.
    run_check("lambda-reflection", 40)      # grows the SF rows before any override
    for start in (3, 7):
        with table.override(index, corrupt(table[index])) if table else nullcontext():
            cases = _cases("lambda-reflection", range(start, 41))
            want = [(n, (v, lam.in_reflection_class(Fraction(-1, 2))), (v, True))
                    for n in range(start, 41) for v, lam in enumerate(_SERVED_LAMBDA[n][:n - 2], 1)]
        assert cases == want, start


def test_an_in_class_substitute_is_split_and_passes_the_reflection_test():
    # 2 lambda(6,2) is in the class but misses the recurrence, so from row 6
    # on every entry is split in full: one split for each of rows 3..5, then
    # the n - 2 entries of each of rows 6..12.  Only lambda-expansion's
    # report shows the miss.
    assert run_check("lambda-reflection", 12).passed
    with _SERVED_LAMBDA.override(6, _lambda_6_2_doubled(_SERVED_LAMBDA[6])):
        with _counted_reflection_tests() as calls:
            reflection = run_check("lambda-reflection", 12)
        expansion = run_check("lambda-expansion", 12)
    assert reflection.passed
    assert len(calls) == 3 + sum(n - 2 for n in range(6, 13))
    assert (expansion.status, expansion.witness_n, expansion.lhs, expansion.rhs) \
        == ("fail", 6, "(2, [0, 10, 70, 120, 60])", "(2, [0, 5, 35, 60, 30])")


def _calls_of(module, name, selection, max_n):
    calls = []
    original = getattr(module, name)
    with _patched(module, name, lambda *args: calls.append(args) or original(*args)):
        assert all(r.passed for r in run_suite(max_n, selection))
    return len(calls)


def test_a_full_pass_steps_each_lambda_entry_once():
    # Each served entry is compared once, in the pass row that
    # lambda-expansion and lambda-reflection share; only lambda-top steps
    # entries of its own.
    alone = _calls_of(verify, "_lambda_entry", ["lambda-expansion", "lambda-top"], 40)
    assert alone and _calls_of(verify, "_lambda_entry", "all", 40) == alone


def test_the_lambda_recurrence_row_steps_only_lambda_n_1_on_clean_data():
    # Every entry nu >= 2 is held to Pascal's ratio with served row n - 1;
    # the recurrence is stepped for lambda(n, 1) alone, and row 1 is compared
    # with lambda(1, 1) = 1.
    calls = []
    entry = verify._lambda_entry
    with _patched(verify, "_lambda_entry", lambda n, nu, c, below: calls.append((n, nu)) or entry(n, nu, c, below)):
        assert run_check("lambda-expansion", 40).passed
    assert calls == [(n, 1) for n in range(2, 41)]


def _miss_by_stepping_every_entry(top):
    """The reference for the ratio: the first served entry of rows 1..top
    that differs from its entry of the recurrence, stepped by
    ``verify._lambda_entry`` from the served row before it, as
    (n, (nu, served), (nu, recurrence)), or None."""
    prev = ()
    for n in range(1, top + 1):
        row = _SERVED_LAMBDA[n]
        c = [()] + [lam.coefficients for lam in prev] + [()]
        for nu, lam in enumerate(row, 1):
            want = (1,) if n == 1 else verify._lambda_entry(n, nu, c[nu], c[nu - 1])
            if lam.coefficients != want:
                return n, (nu, lam), (nu, Polynomial(want))
        prev = row
    return None


def test_the_ratio_misses_where_stepping_every_entry_misses():
    # Every corruption lambda(n, nu) + x^k that keeps the degree or raises
    # it by one, for n <= 10.
    for n in range(1, 11):
        for nu in range(1, n + 1):
            row = _SERVED_LAMBDA[n]
            for k in range(n - nu + 2):
                corrupted = row[:nu - 1] + (row[nu - 1] + Polynomial.monomial(1, k),) + row[nu:]
                with _SERVED_LAMBDA.override(n, corrupted):
                    want = _miss_by_stepping_every_entry(10)
                    got = _cases("lambda-expansion", range(1, 11))[-1]
                assert want[:2] == (n, (nu, corrupted[nu - 1])), (n, nu, k)
                assert got == want, (n, nu, k)
                assert [format_value(side) for side in got[1:]] == [format_value(side) for side in want[1:]]


def test_lambda_reflection_reads_no_sf_row():
    assert _calls_of(verify, "sf_row", ["lambda-reflection"], 40) == 0


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
    got = _cases("gregory-newton", ns)
    want = list(_gregory_newton_cases_by_fraction_steps(ns))
    assert got == want
    for (_, lhs, _), (_, ref, _) in zip(got, want):
        assert [type(c) for c in lhs] == [type(c) for c in ref]


def test_gregory_newton_differences_and_newton_sum_agree_on_pass_and_fail(monkeypatch):
    # The check sums the Newton basis only where the differences of
    # (0^n, ..., n^n) differ from SF row n; both routes must give the same
    # verdict on the true rows and on rows with entries moved.
    summed = []
    newton = verify._gregory_newton_poly
    monkeypatch.setattr(verify, "_gregory_newton_poly", lambda row: summed.append(row) or newton(row))
    rng = random.Random(5)
    for n in range(1, 61):
        row = combinat.sf_row(n)
        ks = {0, n, rng.randint(0, n)}
        rows = [row] + [row[:k] + (row[k] + d,) + row[k + 1:] for k in ks for d in (1, -2)]
        j, k = rng.sample(range(n + 1), 2)
        rows.append(tuple(c + (j == i) - (k == i) for i, c in enumerate(row)))
        for got in rows:
            summed.clear()
            with combinat.sf_table.override(n, got):
                [(_, lhs, rhs)] = _cases("gregory-newton", range(n, n + 1))
            assert bool(summed) == (newton(got) != Polynomial.monomial(1, n)) == (got != row)
            assert (lhs == rhs) == (got == row)


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
    got = _cases("drv-fh-bn", ns)
    want = list(_drv_fh_bn_cases_by_fraction_steps(ns))
    assert got == want
    for (_, lhs, _), (_, ref, _) in zip(got, want):
        assert type(lhs) is type(ref) is Fraction
    with combinat.harmonic_table.override(4, combinat.harmonic(4) + Fraction(1, 7)):
        ns = range(1, 13)
        assert _cases("drv-fh-bn", ns) == list(_drv_fh_bn_cases_by_fraction_steps(ns))


def _remainder_vanishes_cases_by_fraction_terms(ns):
    # The reference for the integer sum over one power of two: every term
    # lambda(n,v)(-1/2) F_v(-1/2) a Fraction by Polynomial.__call__, none
    # skipped, added one gcd-normalised step at a time.
    half = Fraction(-1, 2)
    for n in ns:
        terms = [lam(half) * fubini.fubini_direct(v)(half)
                 for v, lam in enumerate(_SERVED_LAMBDA[n][:n - 2], 1)]
        yield n, sum(terms, Fraction(0)), Fraction(0)


def _lambda_1_zeroed(row):
    return (Polynomial.zero(),) + row[1:]


def test_remainder_vanishes_cases_match_fraction_term_oracle():
    ns = range(2, 61, 2)
    got = _cases("remainder-vanishes", ns)
    assert got == list(_remainder_vanishes_cases_by_fraction_terms(ns))
    assert all(type(lhs) is Fraction for _, lhs, _ in got)


# lambda(n, v) = C (x+1) F_(n-1-v) vanishes at -1/2 for odd v and even n, and
# F_v(-1/2) for even v, so every true term is 0: lambda(8,1) zeroed and
# lambda(6,2) + x^5 (F_2(-1/2) = 0) leave the sum 0, the others do not.
@pytest.mark.parametrize("table,index,corrupt,nonzero", [
    (_SERVED_LAMBDA, 6, _lambda_1_plus_x, True),
    (_SERVED_LAMBDA, 6, _lambda_6_2_plus_x5, False),
    (_SERVED_LAMBDA, 8, _lambda_1_zeroed, False),
    (_SERVED_LAMBDA, 8, _lambda_plus_one_at(3), True),
    (combinat.sf_table, 4, lambda row: row[:2] + (row[2] + 1,) + row[3:], True),
], ids=["lambda-plus-x", "lambda-plus-x5", "lambda-zeroed", "lambda-plus-one", "SF(4,2)+1"])
def test_remainder_vanishes_cases_match_fraction_term_oracle_on_corrupted_rows(table, index, corrupt,
                                                                              nonzero):
    # Corrupted entries of other degrees, a zero entry, and F_4(-1/2) made
    # nonzero, so that a term of even v is summed too.
    ns = range(2, 17, 2)
    run_check("remainder-vanishes", 16)     # grows the SF rows before any override
    with table.override(index, corrupt(table[index])):
        got = _cases("remainder-vanishes", ns)
        want = list(_remainder_vanishes_cases_by_fraction_terms(ns))
    assert got == want
    assert any(lhs != 0 for _, lhs, _ in got) == nonzero


def _power_sum_points(ns, rng):
    """The 20 points power-sum-agree draws from ``rng`` at each n of ``ns``,
    by n: they are drawn whether or not they are evaluated."""
    return {n: [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(20)] for n in ns}


def _newton_power_sum(n):
    """sum_k SF(n,k) C(x,k+1) by Polynomial arithmetic, with C(x,k+1) =
    C(x,k) (x-k)/(k+1): the route power-sum-agree compares power_sum_poly
    with, built here without the Newton-basis Horner of verify."""
    total, binom = Polynomial.zero(), Polynomial.one()
    for k, s in enumerate(combinat.sf_row(n)):
        binom = binom * Polynomial([Fraction(-k, k + 1), Fraction(1, k + 1)])
        total = total + binom * s
    return total


def _power_sum_agree_expected(points, pairs):
    """The cases of power-sum-agree as (n, lhs, rhs), where ``pairs(n, x)``
    is the oracle's pair at a point: one case (power_sum_poly(n),
    power_sum_poly(n)) at an n where it equals the Newton form, and
    otherwise the oracle's pair at each drawn point of n followed by
    power_sum_poly(n) against the Newton form."""
    out = []
    for n, xs in points.items():
        poly, newton = verify.power_sum_poly(n), _newton_power_sum(n)
        if poly == newton:
            out.append((n, poly, poly))
        else:
            out += [(n, *pairs(n, x)) for x in xs] + [(n, poly, newton)]
    return out


def test_power_sum_agree_cases_are_the_unscaled_values():
    def unscaled(n, x):
        return fubini.power_sum_poly(n)(x), fubini.power_sum_gn(n, x)

    ns = range(1, 41)
    assert _cases("power-sum-agree", ns) == _power_sum_agree_expected(
        _power_sum_points(ns, random.Random(0)), unscaled)
    with _SERVED_BERNOULLI_POLY.override(5, _SERVED_BERNOULLI_POLY[5] + 1):
        ns = range(1, 9)
        got = _cases("power-sum-agree", ns)
        assert got == _power_sum_agree_expected(_power_sum_points(ns, random.Random(0)), unscaled)
    assert {n for n, lhs, rhs in got if lhs != rhs} == {4}


def _power_sum_by_scaled_fraction(n, x):
    # A reference for power_sum_poly(n)(x) by another route: the polynomial
    # scaled to ints, evaluated at the point and divided by den as a Fraction.
    c = verify.power_sum_poly(n).coefficients
    den = math.lcm(*(v.denominator for v in c))
    scaled = Polynomial([v.numerator * (den // v.denominator) for v in c])
    return Fraction(scaled(x), den), fubini.power_sum_gn(n, x)


class _EveryThirdNumeratorZero(random.Random):
    """A seeded generator whose every third draw from -40..40 is 0, so that
    power-sum-agree meets the point x = 0; ``zeros`` counts the draws of 0."""

    def __init__(self, seed):
        super().__init__(seed)
        self.numerators = self.zeros = 0

    def randint(self, a, b):
        value = super().randint(a, b)
        if (a, b) == (-40, 40):
            self.numerators += 1
            value = 0 if self.numerators % 3 == 0 else value
            self.zeros += value == 0
        return value


def _recording_gn(evaluated):
    served = verify.power_sum_gn

    def recording_gn(n, x):
        evaluated.append((n, x))
        return served(n, x)
    return _patched(verify, "power_sum_gn", recording_gn)


@pytest.mark.parametrize("make_rng", [random.Random, _EveryThirdNumeratorZero], ids=["seeded", "zeros"])
@pytest.mark.parametrize("corrupted", [False, True], ids=["true", "B(x)"])
def test_power_sum_agree_cases_match_the_scaled_fraction_oracle(make_rng, corrupted):
    # One agreeing case per n where the polynomials agree, and at the n where
    # they differ Fraction(scaled(x), den) against power_sum_gn(n, x) at each
    # drawn point, then the two polynomials.  Only that n evaluates points.
    ns = range(1, 41)
    evaluated = []
    corruption = (_SERVED_BERNOULLI_POLY.override(5, _SERVED_BERNOULLI_POLY[5] + 1) if corrupted
                  else nullcontext())
    rng = make_rng(0)
    with corruption, _recording_gn(evaluated), _a_pass():
        got = _flat(ns, CHECKS["power-sum-agree"].cases(ns, rng))
        want = _power_sum_agree_expected(_power_sum_points(ns, make_rng(0)), _power_sum_by_scaled_fraction)
    assert got == want
    assert {n for n, lhs, rhs in got if lhs != rhs} == ({4} if corrupted else set())
    assert evaluated == ([(4, x) for x in _power_sum_points(ns, make_rng(0))[4]] if corrupted else [])
    if make_rng is _EveryThirdNumeratorZero:
        assert rng.zeros >= 20 * len(ns) // 3


# Seed 0 draws these points at n = 24 after 23 * 20 points for n = 1..23.
# power_sum_poly(24) plus the product of (x - x_i) over them agrees with the
# Newton route at every drawn point, but it is a different polynomial of
# degree 25: 20 points cannot tell the two apart.
def _power_sum_24_plus_drawn_product(make_rng):
    product = Polynomial.one()
    for x in _power_sum_points(range(1, 25), make_rng(0))[24]:
        product = product * Polynomial([-x, 1])
    served = verify.power_sum_poly
    return _patched(verify, "power_sum_poly", lambda n: served(n) + product if n == 24 else served(n))


def test_power_sum_agree_fails_where_only_the_drawn_points_agree():
    true_poly = fubini.power_sum_poly(24)
    with _power_sum_24_plus_drawn_product(random.Random):
        corrupted = verify.power_sum_poly(24)
        report = run_check("power-sum-agree", 30)
    assert corrupted != true_poly
    assert (report.status, report.witness_n) == ("fail", 24)
    assert (report.lhs, report.rhs) == (format_value(corrupted), format_value(true_poly))


@pytest.mark.parametrize("make_rng", [random.Random, _EveryThirdNumeratorZero], ids=["seeded", "zeros"])
def test_power_sum_agree_evaluates_every_drawn_point_that_agrees(make_rng):
    # At n = 24 all 20 points agree, x = 0 among them, so all are compared,
    # and the two polynomials follow them as the failing case.  The zeros
    # generator draws other points, whose product is added instead.
    ns = range(1, 25)
    evaluated = []
    with _power_sum_24_plus_drawn_product(make_rng), _recording_gn(evaluated), _a_pass():
        got = _flat(ns, CHECKS["power-sum-agree"].cases(ns, make_rng(0)))
        xs = _power_sum_points(ns, make_rng(0))[24]
        want = [(24, *_power_sum_by_scaled_fraction(24, x)) for x in xs]
        corrupted = verify.power_sum_poly(24)
    at_24 = [case for case in got if case[0] == 24]
    assert at_24 == want + [(24, corrupted, fubini.power_sum_poly(24))]
    assert all(lhs == rhs for _, lhs, rhs in want)
    assert evaluated == [(24, x) for x in xs]
    assert 0 in xs      # both generators draw x = 0 at n = 24


def test_a_passing_power_sum_agree_evaluates_no_point():
    calls = []
    served = verify.power_sum_gn
    with _patched(verify, "power_sum_gn", lambda n, x: calls.append((n, x)) or served(n, x)):
        report = run_check("power-sum-agree", 40)
    assert report.passed
    assert calls == []
