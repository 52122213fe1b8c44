"""Self-test of the benchmark itself, at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Runs every workload with and without tracing and asserts that each emits
exactly the metrics BENCHMARK.json declares, with their units, and that its
outputs pass the gate.  Also asserts that the gate rejects wrong outputs and
that the benchmark refuses to run without the program's sources.
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import workloads as wl  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    for workload in wl.WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", trace, "--scale", "tiny")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            print(f"ok  {workload} trace {trace}: {len(got)} metrics")


def check_gate_rejects() -> None:
    oracle = gate.Oracle()
    call = wl.Call("compute", "fubini", 3, fmt="plain")
    assert gate.check_cli_output(oracle, call, 0, "[0, 1, 6, 6]\n")
    assert not gate.check_cli_output(oracle, call, 0, "[0, 1, 6, 7]\n")
    assert not gate.check_cli_output(oracle, call, 1, "[0, 1, 6, 6]\n")
    table = wl.Call("table", "bernoulli", 2, fmt="plain")
    assert gate.check_cli_output(oracle, table, 0, "n=0  value=1\nn=1  value=-1/2\nn=2  value=1/6\n")
    assert not gate.check_cli_output(oracle, table, 0, "n=0  value=1\nn=1  value=1/2\nn=2  value=1/6\n")
    run = wl.verify_call("verify-values", 0, "tiny")
    lines = gate.expected_verify_lines(run)
    good = "\n".join(lines + [f"{len(lines)}/{len(lines)} checks passed"]) + "\n"
    assert gate.failed_checks(run, 0, good) == 0
    assert gate.failed_checks(run, 0, good.replace("n=1..40", "n=1..39", 1)) == 1
    assert gate.failed_checks(run, 1, good) == len(lines)
    print("ok  gate rejects wrong outputs")


def check_refuses_without_sources() -> None:
    (HERE / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(bare, "--workload", "cli-oneshot", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0 and "{" not in proc.stdout, (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare)
    print("ok  refuses to run without src/")


if __name__ == "__main__":
    check_gate_rejects()
    check_refuses_without_sources()
    check_metrics()
