import json
import math
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import fubinipoly
from fubinipoly import cli, combinat, fubini
from fubinipoly.cli import main
from fubinipoly.exactpoly import format_value, json_value


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- compute ----------------------------------------------------------------

def test_compute_fubini_coefficients(capsys):
    code, out, _ = run_cli(["compute", "fubini", "--n", "3"], capsys)
    assert code == 0
    assert out.strip() == "[0, 1, 6, 6]"


def test_compute_hfubini_at_point(capsys):
    for at in (["--at", "-1/2"], ["--at=-1/2"]):
        code, out, _ = run_cli(["compute", "hfubini", "--n", "2"] + at, capsys)
        assert code == 0
        assert out.strip() == "1/4"


def test_compute_lambda(capsys):
    code, out, _ = run_cli(["compute", "lambda", "--n", "4", "--nu", "1"], capsys)
    assert code == 0
    assert out.strip() == "[0, 1, 3, 2]"


def test_compute_lambda_requires_nu(capsys):
    code, _, err = run_cli(["compute", "lambda", "--n", "4"], capsys)
    assert code == 2
    assert "nu" in err


def test_compute_lambda_refuses_nu_outside_one_to_n(capsys):
    for nu in ("0", "5", "9", "-1"):
        code, out, err = run_cli(["compute", "lambda", "--n", "4", "--nu", nu], capsys)
        assert (code, out) == (2, ""), nu
        assert f"error: nu must lie in 1..4, got {nu}" in err
    # an invalid n is still reported as such, and the library refuses nu too
    code, _, err = run_cli(["compute", "lambda", "--n", "0", "--nu", "9"], capsys)
    assert code == 2 and "error: n must be at least 1, got 0" in err
    with pytest.raises(ValueError, match=r"nu must lie in 1\.\.4, got 9"):
        fubini.lambda_poly(4, 9)


def test_compute_scalar_families(capsys):
    assert run_cli(["compute", "stirling", "--n", "4", "--nu", "2"], capsys)[:2] == (0, "7\n")
    assert run_cli(["compute", "sf", "--n", "4", "--nu", "2"], capsys)[:2] == (0, "14\n")
    assert run_cli(["compute", "harmonic", "--n", "2"], capsys)[:2] == (0, "3/2\n")


def test_compute_rejects_nu_on_families_that_ignore_it(capsys):
    for family in ("fubini", "hfubini", "psi", "bernoulli", "power-sum", "harmonic"):
        code, out, err = run_cli(["compute", family, "--n", "3", "--nu", "2"], capsys)
        assert (code, out) == (2, ""), family
        assert f"--nu does not apply to family '{family}'" in err


def test_compute_scalar_family_rejects_at(capsys):
    code, _, err = run_cli(["compute", "harmonic", "--n", "2", "--at", "1"], capsys)
    assert code == 2


def test_compute_bernoulli_polynomial_and_value(capsys):
    code, out, _ = run_cli(["compute", "bernoulli", "--n", "2"], capsys)
    assert (code, out.strip()) == (0, "[1/6, -1, 1]")
    code, out, _ = run_cli(["compute", "bernoulli", "--n", "2", "--at", "0"], capsys)
    assert (code, out.strip()) == (0, "1/6")


def test_compute_power_sum(capsys):
    code, out, _ = run_cli(["compute", "power-sum", "--n", "1"], capsys)
    assert (code, out.strip()) == (0, "[0, -1/2, 1/2]")


def test_compute_rejects_out_of_range_n(capsys):
    code, _, err = run_cli(["compute", "fubini", "--n", "0"], capsys)
    assert code == 2
    assert err


def test_compute_rejects_decimal_literal(capsys):
    code, _, err = run_cli(["compute", "fubini", "--n", "2", "--at", "0.5"], capsys)
    assert code == 2
    assert "rational" in err


@pytest.mark.parametrize("args", [
    ["compute", "fubini", "--at", "--n", "2"],
    ["compute", "fubini", "--n", "2", "--at", "--format", "json"],
])
def test_compute_at_without_a_value_is_reported_as_such(args, capsys):
    # --at is joined only to a rational literal, so a flag after it stays a flag.
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --at: expected one argument\n")


def test_compute_rejects_unknown_family(capsys):
    code, _, _ = run_cli(["compute", "eulerian", "--n", "2"], capsys)
    assert code == 2


def test_compute_json_document(capsys):
    code, out, _ = run_cli(["compute", "hfubini", "--n", "2", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["family"] == "hfubini"
    assert doc["coefficients"] == [0, 1, 3]


def test_compute_json_nonintegral_coefficients_render_as_strings(capsys):
    code, out, _ = run_cli(["compute", "power-sum", "--n", "1", "--format", "json"], capsys)
    doc = json.loads(out)
    assert doc["coefficients"] == [0, "-1/2", "1/2"]


@contextmanager
def _int_str_guard(digits):
    """Python's limit on int <-> str conversion set to ``digits`` (0: none)
    for the block."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# Exact results longer than the guard on int <-> str conversion: H_12000
# has numerator and denominator past the default 4300 digits, and 400! is
# past the smallest guard, 640 digits.  (2000! passes the default, but
# compute sf grows the whole SF triangle to row 2000 for it, gigabytes.)
@pytest.mark.parametrize("args,value,guard", [
    (["compute", "harmonic", "--n", "12000"], lambda: combinat.harmonic(12000), 4300),
    (["compute", "sf", "--n", "400", "--nu", "400"], lambda: math.factorial(400), 640),
], ids=["harmonic-12000", "sf-400-400"])
def test_compute_prints_values_longer_than_the_int_str_guard(capsys, args, value, guard):
    value = value()
    for fmt in ("plain", "json"):
        with _int_str_guard(guard):
            code, out, err = run_cli(args + ["--format", fmt], capsys)
            assert sys.get_int_max_str_digits() == guard
        assert (code, err) == (0, "")
        with _int_str_guard(0):
            if fmt == "plain":
                assert out == format_value(value) + "\n"
            else:
                assert json.loads(out)["value"] == json_value(value)


def test_compute_keeps_the_int_str_guard_on_its_inputs(capsys):
    long_digits = "1" * 5000
    with _int_str_guard(4300):
        code, _, err = run_cli(["compute", "fubini", "--n", "2", "--at", f"1/{long_digits}"],
                               capsys)
        assert (code, "Exceeds the limit" in err) == (2, True)
        code, _, err = run_cli(["compute", "harmonic", "--n", long_digits], capsys)
        assert (code, "invalid int value" in err) == (2, True)
        assert sys.get_int_max_str_digits() == 4300


# --- verify -----------------------------------------------------------------

def test_verify_minimal_pass(capsys):
    code, out, _ = run_cli(["verify", "--max-n", "1", "--checks", "cor-psi-odd"], capsys)
    assert code == 0
    assert "pass" in out
    assert "1/1 checks passed" in out


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(["verify", "--checks", "no-such-id"], capsys)
    assert code == 2
    assert "no-such-id" in err


def test_verify_empty_checks_is_usage_error(capsys):
    code, out, err = run_cli(["verify", "--max-n", "4", "--checks", ","], capsys)
    assert (code, out) == (2, "")
    assert "no check selected" in err


def test_verify_refuses_all_combined_with_check_ids(capsys):
    assert run_cli(["verify", "--max-n", "4", "--checks", "all,fs-at-minus-one"], capsys) \
        == (2, "", "error: 'all' cannot be combined with check ids; "
                   "give 'all' alone or a list of ids\n")


def test_verify_refuses_a_repeated_check_id(capsys):
    assert run_cli(["verify", "--max-n", "5", "--checks", "fs-at-minus-one,fs-at-minus-one"], capsys) \
        == (2, "", "error: check id(s) given more than once: 'fs-at-minus-one'\n")


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(["verify", "--max-n", "4", "--checks",
                            "fs-at-minus-one,bt-involution", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert [r["check_id"] for r in doc["reports"]] == ["fs-at-minus-one", "bt-involution"]
    for report in doc["reports"]:
        assert set(report) == {"check_id", "n_min", "n_max", "status", "witness_n",
                               "lhs", "rhs", "seed", "elapsed_ms"}
    assert doc["reports"][1]["seed"] == 0


def test_verify_plain_output_is_byte_identical_across_runs(capsys):
    args = ["verify", "--max-n", "6", "--checks", "all", "--seed", "5"]
    first = run_cli(args, capsys)
    second = run_cli(args, capsys)
    assert first == second
    assert first[0] == 0


def test_verify_refuses_max_n_below_one_in_the_flag_s_name(capsys):
    for checks in ("all", "cor-psi-odd"):
        assert run_cli(["verify", "--max-n", "0", "--checks", checks], capsys) \
            == (2, "", "error: --max-n must be at least 1, got 0\n")


def test_verify_rejects_csv(capsys):
    try:
        code = main(["verify", "--format", "csv"])
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    assert code == 2


def test_verify_list_checks(capsys):
    code, out, _ = run_cli(["verify", "--list"], capsys)
    assert code == 0
    assert "fs-at-minus-one" in out.split()


def test_verify_failure_exit_code(capsys):
    combinat.bernoulli(10)
    with combinat.bernoulli_table.override(5, combinat.bernoulli(5) + 1):
        code, out, _ = run_cli(["verify", "--max-n", "8", "--checks", "worpitzky-integral"], capsys)
    assert code == 1
    assert "fail" in out
    assert "witness n=5" in out


def test_verify_empty_check_fails_the_run(capsys):
    code, out, _ = run_cli(["verify", "--max-n", "2", "--checks", "all"], capsys)
    lines = out.splitlines()
    assert code == 1
    assert "empty lambda-reflection  n=3..2" in lines
    assert lines[-1] == "21/22 checks passed"


GOLDEN = Path(__file__).parent / "golden"


def test_verify_40_reproduces_the_golden_output(capsys):
    """verify --max-n 40 against output recorded before the kernel rewrite
    (Taylor-shift reflection, integer Horner): the plain text byte for byte,
    the JSON byte for byte once the run-dependent elapsed_ms is dropped."""
    args = ["verify", "--max-n", "40", "--checks", "all", "--seed", "0"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out == (GOLDEN / "verify-40.txt").read_text()
    code, out, _ = run_cli(args + ["--format", "json"], capsys)
    doc = json.loads(out)
    for report in doc["reports"]:
        del report["elapsed_ms"]
    assert json.dumps(doc) + "\n" == (GOLDEN / "verify-40.json").read_text()


# --- table ------------------------------------------------------------------

def test_table_sf_csv(capsys):
    code, out, _ = run_cli(["table", "sf", "--max-n", "4", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,value"
    assert "4,2,14" in lines


def test_table_bernoulli(capsys):
    code, out, _ = run_cli(["table", "bernoulli", "--max-n", "12", "--format", "csv"], capsys)
    assert code == 0
    assert out.strip().splitlines()[-1] == "12,-691/2730"


def test_table_lambda_quotes_coefficient_lists(capsys):
    code, out, _ = run_cli(["table", "lambda", "--max-n", "4", "--format", "csv"], capsys)
    assert code == 0
    assert '"[0, 1, 3, 2]"' in out


def test_table_lambda_json(capsys):
    code, out, _ = run_cli(["table", "lambda", "--max-n", "4", "--format", "json"], capsys)
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    rows = {(r["n"], r["nu"]): r["coefficients"] for r in doc["rows"]}
    assert rows[(4, 1)] == [0, 1, 3, 2]
    assert rows[(1, 1)] == [1]


def test_table_stirling_plain(capsys):
    code, out, _ = run_cli(["table", "stirling", "--max-n", "4"], capsys)
    assert code == 0
    assert "n=4  k=2  value=7" in out


def test_table_rejects_bad_family(capsys):
    code, _, _ = run_cli(["table", "fubini", "--max-n", "4"], capsys)
    assert code == 2


def test_table_requires_max_n(capsys):
    code, _, _ = run_cli(["table", "sf"], capsys)
    assert code == 2


def test_table_refuses_max_n_below_one_before_writing(capsys):
    for fmt in ("plain", "json", "csv"):
        assert run_cli(["table", "lambda", "--max-n", "0", "--format", fmt], capsys) \
            == (2, "", "error: --max-n must be at least 1, got 0\n")


_GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("family", ["sf", "stirling", "lambda", "bernoulli"])
@pytest.mark.parametrize("fmt,suffix", [("plain", "txt"), ("json", "json"), ("csv", "csv")])
def test_table_prints_its_golden_bytes(family, fmt, suffix, capsys):
    code, out, err = run_cli(["table", family, "--max-n", "7", "--format", fmt], capsys)
    assert (code, err) == (0, "")
    assert out.encode() == (_GOLDEN / f"table-{family}-7.{suffix}").read_bytes()


def _compute_golden_runs(family):
    """Each compute run pinned for ``family``: n = 1, 7 and 30, with --nu 1
    where the family reads it, with and without --at -1/2 where it takes a
    point, in both formats."""
    _, needs_nu, polynomial = cli._COMPUTE_FAMILIES[family]
    for n in (1, 7, 30):
        for at in ([], ["--at", "-1/2"]) if polynomial else ([],):
            for fmt in ("plain", "json"):
                yield (["compute", family, "--n", str(n)] + (["--nu", "1"] if needs_nu else [])
                       + at + ["--format", fmt])


@pytest.mark.parametrize("family", list(cli._COMPUTE_FAMILIES))
def test_compute_prints_its_golden_bytes(family, capsys):
    # The golden file is each run's command line, "$ fubinipoly ...", then
    # its stdout.
    transcript = ""
    for args in _compute_golden_runs(family):
        code, out, err = run_cli(args, capsys)
        assert (code, err) == (0, ""), args
        transcript += "$ fubinipoly " + " ".join(args) + "\n" + out
    assert transcript.encode() == (_GOLDEN / f"compute-{family}.txt").read_bytes()


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_table_writes_each_row_before_making_the_next(fmt, capsys, monkeypatch):
    written = []        # the length of the output when each row is made

    def rows(max_n):
        for n in range(max_n + 1):
            written.append(len(sys.stdout.getvalue()))
            yield {"n": n, "value": n}

    monkeypatch.setitem(cli._TABLE_FAMILIES, "bernoulli", rows)
    assert run_cli(["table", "bernoulli", "--max-n", "3", "--format", fmt], capsys)[0] == 0
    assert len(written) == 4 and written == sorted(set(written))


def test_exit_codes_confined_to_contract(capsys):
    runs = [
        ["compute", "fubini", "--n", "3"],
        ["compute", "fubini", "--n", "-2"],
        ["verify", "--max-n", "1", "--checks", "table-fh-fs"],
        ["verify", "--checks", "nope"],
        ["table", "sf", "--max-n", "2"],
        ["table", "sf", "--max-n", "0"],
    ]
    for args in runs:
        code, _, _ = run_cli(args, capsys)
        assert code in (0, 1, 2), args


# --- entry point ------------------------------------------------------------

def _run_python(args):
    """A fresh interpreter with ``args``, importing this checkout's package."""
    package_parent = os.path.dirname(os.path.dirname(os.path.abspath(fubinipoly.__file__)))
    env = {**os.environ, "PYTHONPATH": package_parent}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def _run_module(args):
    return _run_python(["-m", "fubinipoly", *args])


def test_python_dash_m_entry_point_passes_on_exit_codes():
    proc = _run_module(["compute", "fubini", "--n", "3"])
    assert (proc.returncode, proc.stdout) == (0, "[0, 1, 6, 6]\n")
    # an empty check at this bound fails the run; run() must exit with 1
    proc = _run_module(["verify", "--max-n", "2"])
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1] == "21/22 checks passed"


# Modules that only verify's types, or only the CSV table, used to pull in.
_OFF_THE_IMPORT_PATH = ("dataclasses", "inspect", "ast", "dis", "csv")


def test_importing_the_cli_loads_none_of_the_modules_kept_off_its_path():
    # Measured against the interpreter's own start, so whatever ``site``
    # preloads does not count.
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import fubinipoly.cli\n"
              "print(' '.join(sorted(set(sys.modules) - before)))\n")
    proc = _run_python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "fubinipoly.cli" in added
    assert added.isdisjoint(_OFF_THE_IMPORT_PATH), sorted(added & set(_OFF_THE_IMPORT_PATH))
