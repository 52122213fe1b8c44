from fractions import Fraction

import pytest

from fubinipoly import combinat, fubini
from fubinipoly.exactpoly import Polynomial
from fubinipoly.verify import (
    CHECK_IDS,
    CHECKS,
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


def test_reports_are_deterministic_modulo_elapsed():
    def strip(reports):
        return [{k: v for k, v in r.to_dict().items() if k != "elapsed_ms"} for r in reports]

    first = strip(run_suite(10, "all", seed=7))
    second = strip(run_suite(10, "all", seed=7))
    assert first == second


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


def test_sf_fault_witness_is_smallest_even_when_exhaustive(poisoned_sf_entry):
    short = run_check("fs-at-minus-one", 12)
    full = run_check("fs-at-minus-one", 12, exhaustive=True)
    assert short.witness_n == full.witness_n == poisoned_sf_entry


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


# One corrupted entry per memo table; each row is (table, index, corruption,
# a check that reads the entry, the smallest index that check can see it at).
# B_m(x) enters power-sum-agree at n = m - 1; H_v enters Fhat_n for n >= v.
@pytest.mark.parametrize("table,index,corrupt,check_id,witness", [
    (combinat.sf_table, 5, _bump_third, "fs-at-minus-one", 5),
    (combinat.harmonic_table, 4, lambda h: h + 1, "fh-at-minus-one", 4),
    (combinat.bernoulli_table, 6, lambda b: b + Fraction(1, 3), "worpitzky-integral", 6),
    (combinat.bernoulli_poly_table, 5, lambda p: p + 1, "power-sum-agree", 4),
    (fubini.lambda_table, 6, lambda row: (row[0] + Polynomial.x(),) + row[1:],
     "lambda-expansion", 6),
], ids=["SF", "H", "B", "B(x)", "lambda"])
def test_one_corrupted_table_entry_fails_at_its_smallest_index(table, index, corrupt,
                                                              check_id, witness):
    assert run_check(check_id, 12).passed       # also grows every table the check reads
    with table.override(index, corrupt(table[index])):
        report = run_check(check_id, 12, exhaustive=True)
    assert report.status == "fail"
    assert report.witness_n == witness
    assert run_check(check_id, 12).passed
