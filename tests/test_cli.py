import json

from fubinipoly import combinat
from fubinipoly.cli import main


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
    code, out, _ = run_cli(["compute", "hfubini", "--n", "2", "--at", "-1/2"], capsys)
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


def test_compute_scalar_families(capsys):
    assert run_cli(["compute", "stirling", "--n", "4", "--nu", "2"], capsys)[:2] == (0, "7\n")
    assert run_cli(["compute", "sf", "--n", "4", "--nu", "2"], capsys)[:2] == (0, "14\n")
    assert run_cli(["compute", "harmonic", "--n", "2"], capsys)[:2] == (0, "3/2\n")


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
