"""fubinipoly benchmark: cold-start workloads, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from its
``src`` directory, nothing is installed.  Every measured process is a fresh
interpreter running ``child.py``, which imports ``fubinipoly.cli`` and calls
``fubinipoly.cli.main`` with the workload's arguments.  Outputs are checked
by ``gate.py`` after the timed processes have ended.

End-to-end times are in reference seconds (see calibrate.py); the report
lines give the raw wall-clock figures too.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the run also repeats the workload with the tracer installed
and the last line holds the per-layer metrics.  The lines before it are a
readable report.  See README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import calibrate
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

PROCESS_TIMEOUT_S = 170
BARE_PROBES = 5
SETUP_PROBES = 7

KERNELS = ("mul", "add", "derivative", "antiderivative", "eval", "reflect_about",
           "in_reflection_class")
GROW_METRICS = (("sf", "combinat.sf"), ("stirling2", "combinat.stirling2"),
                ("harmonic", "combinat.harmonic"), ("bernoulli", "combinat.bernoulli"),
                ("bernoulli_poly", "combinat.bernoulli_poly"), ("lambda", "fubini.lambda"))
READS = ("combinat.sf", "combinat.sf_row", "combinat.stirling2", "combinat.harmonic",
         "combinat.bernoulli", "combinat.bernoulli_poly", "fubini.lambda_poly")
TIMED = ("fubini.hfubini_direct", "fubini.psi_poly", "fubini.remainder_R", "fubini.power_sum_gn",
         "transforms.binomial_transform", "transforms.euler_hadamard",
         "transforms.hfubini_via_derivatives")


@dataclass
class Sample:
    """One measured process; timestamps are CLOCK_MONOTONIC nanoseconds."""
    call: Optional[wl.Call]
    spawn_ns: int
    exit_ns: int
    exit_code: Optional[int]
    report: Optional[dict]
    out_path: Path

    def _raw_s(self, start_ns: int, end_ns: int) -> float:
        """Seconds between two stamps, less the kernel samples inside them."""
        inside = sum(d for t, d in self.report["calibration"] if start_ns <= t < end_ns)
        return (end_ns - start_ns) / 1e9 - inside

    @property
    def raw_setup_s(self) -> float:
        return self._raw_s(self.spawn_ns, self.report["imported_ns"])

    @property
    def raw_command_s(self) -> float:
        return self._raw_s(self.report["main_start_ns"], self.report["main_end_ns"])

    @property
    def raw_latency_ms(self) -> float:
        return self._raw_s(self.spawn_ns, self.exit_ns) * 1e3

    # The same times in reference seconds (see calibrate.py): set-up scaled
    # by the samples before and after the import, the command by those from
    # the import on, the whole process by all of them.
    @property
    def setup_s(self) -> float:
        return calibrate.scaled(self.raw_setup_s, self.report["calibration"][:2])

    @property
    def command_s(self) -> float:
        return calibrate.scaled(self.raw_command_s, self.report["calibration"][1:])

    @property
    def latency_ms(self) -> float:
        return calibrate.scaled(self.raw_latency_ms, self.report["calibration"])


class Runner:
    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.seq = 0

    def _spawn(self, cmd: List[str], tag: str):
        out_path = self.work / f"{tag}.out"
        with open(out_path, "wb") as out, open(self.work / f"{tag}.err", "wb") as err:
            start = time.monotonic_ns()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            # Popen.wait(timeout) polls with sleeps of up to 50 ms, which
            # would show in the latency; wait blocking and let a timer kill.
            watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                code = proc.wait()
            finally:
                watchdog.cancel()
                watchdog.join()
            end = time.monotonic_ns()
        return start, end, (code if code >= 0 else None), out_path

    def bare_ms(self) -> float:
        """Spawn-to-exit of ``python -c pass``: the interpreter's own start."""
        self.seq += 1
        start, end, _, _ = self._spawn([sys.executable, "-c", "pass"], f"bare{self.seq}")
        return (end - start) / 1e6

    def run(self, call: Optional[wl.Call] = None, trace: bool = False) -> Sample:
        """A fresh interpreter that imports the CLI and, given a call, runs it."""
        self.seq += 1
        tag = f"p{self.seq}"
        report_path = self.work / f"{tag}.report.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(report_path)]
        if call is not None:
            if trace:
                grow = ",".join(f"{k}={v}" for k, v in call.grow.items()) or "-"
                cmd += ["--trace", grow]
            cmd += ["--", *call.args()]
        start, end, code, out_path = self._spawn(cmd, tag)
        report = json.loads(report_path.read_text()) if report_path.exists() else None
        return Sample(call, start, end, code, report, out_path)


def measure(runner: Runner, workload: str, seed: int, seconds: int, scale: str,
            trace: bool) -> List[Sample]:
    if workload.startswith("verify-"):
        call = wl.verify_call(workload, seed, scale)
        samples: List[Sample] = []
        start = time.monotonic_ns()
        while True:
            sample = runner.run(call, trace)
            samples.append(sample)
            if trace or sample.report is None:
                return samples
            # Start another run only if it can end within the time box.
            if (time.monotonic_ns() - start) / 1e9 + (sample.exit_ns - sample.spawn_ns) / 1e9 > seconds:
                return samples
    size = wl.SIZES[scale]
    count = max(size["cli_min_calls"], round(seconds * wl.CLI_CALLS_PER_SECOND))
    return [runner.run(call, trace) for call in wl.cli_stream(seed, count, scale)]


def gate_outputs(samples: List[Sample]):
    """(attempted, failed) over the samples' outputs; a verify process
    counts one operation per check."""
    sys.path.insert(0, str(SRC))
    import gate

    oracle = None
    attempted = failed = 0
    for s in samples:
        text = s.out_path.read_bytes().decode("utf-8", "replace")
        ok_run = s.exit_code is not None and s.report is not None
        if s.call.command == "verify":
            attempted += len(s.call.checks)
            failed += gate.failed_checks(s.call, s.exit_code, text) if ok_run else len(s.call.checks)
            continue
        attempted += 1
        if not ok_run:
            failed += 1
            continue
        oracle = oracle or gate.Oracle()
        try:
            ok = gate.check_cli_output(oracle, s.call, s.exit_code, text)
        except gate.OracleMismatch as exc:
            print(f"gate: {exc}", file=sys.stderr)
            ok = False
        if not ok:
            print(f"gate: wrong output from {' '.join(s.call.args())}", file=sys.stderr)
            failed += 1
    return attempted, failed


def percentile(values: List[float], q: float) -> float:
    """Linear interpolation between order statistics (inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(probes: List[Sample], measured: List[Sample], peak_rss_mb: float) -> dict:
    """Metric -> (value, unit, detail for the report).  Times are in
    reference seconds; the detail also gives the raw wall-clock figure."""
    setup = [s.setup_s for s in probes + measured]
    raw_setup = [s.raw_setup_s for s in probes + measured]
    command = [s.command_s for s in measured]
    raw_command = [s.raw_command_s for s in measured]
    latency = [s.latency_ms for s in measured]
    raw_latency = [s.raw_latency_ms for s in measured]
    return {
        "setup_s": (statistics.median(setup), "s",
                    f"p90 {percentile(setup, 0.9):.4f}  n={len(setup)}  "
                    f"raw median {statistics.median(raw_setup):.4f}"),
        # A mean, not a median: the median cli-oneshot call spends about
        # 5 ms in cli.main, while the mean weighs the calls that do the work.
        "command_s": (statistics.fmean(command), "s",
                      f"median {statistics.median(command):.4f}  p90 {percentile(command, 0.9):.4f}  "
                      f"n={len(command)}  raw mean {statistics.fmean(raw_command):.4f}"),
        "latency_p50_ms": (statistics.median(latency), "ms",
                           f"n={len(latency)}  raw {statistics.median(raw_latency):.2f}"),
        "latency_p90_ms": (percentile(latency, 0.9), "ms",
                           f"n={len(latency)}  raw {percentile(raw_latency, 0.9):.2f}"),
        "peak_rss_mb": (peak_rss_mb, "MiB", f"highest of {len(probes) + len(measured)} processes"),
    }


def per_layer(traced: List[Sample], untraced: List[Sample]) -> dict:
    totals: dict = {}
    after_grow: dict = {}
    for s in traced:
        for into, key in ((totals, "totals"), (after_grow, "after_grow")):
            for name, vals in s.report["trace"][key].items():
                acc = into.setdefault(name, [0, 0, 0])
                for i, v in enumerate(vals):
                    acc[i] += v

    def tot(name: str, i: int, table: dict = totals) -> int:
        return table.get(name, [0, 0, 0])[i]

    m = {}
    for check_id in wl.CHECK_IDS:
        m[f"verify.{check_id}.ms"] = (tot(f"verify.{check_id}", 1) / 1e6, "ms")
    for k in KERNELS:
        m[f"exactpoly.{k}.calls"] = (tot(f"exactpoly.{k}", 0), "count")
        m[f"exactpoly.{k}.self_ms"] = (tot(f"exactpoly.{k}", 2) / 1e6, "ms")
    m["exactpoly.init.calls"] = (tot("exactpoly.init", 0), "count")
    for table, prefix in GROW_METRICS:
        m[f"{prefix}.grow_ms"] = (tot(f"grow.{table}", 1) / 1e6, "ms")
    for name in READS:
        m[f"{name}.calls"] = (tot(name, 0) - tot(name, 0, after_grow), "count")
    for name in TIMED:
        m[f"{name}.calls"] = (tot(name, 0), "count")
        m[f"{name}.self_ms"] = (tot(name, 2) / 1e6, "ms")

    main = [s.report["trace"]["totals"]["cli.main"] for s in traced]
    m["cli.import_ms"] = (statistics.median(s.report["import_ns"] / 1e6 for s in traced), "ms")
    m["cli.library_ms"] = (statistics.median((t[1] - t[2]) / 1e6 for t in main), "ms")
    m["cli.render_ms"] = (statistics.median(t[2] / 1e6 for t in main), "ms")

    for table, prefix in (("lambda", "fubini.lambda"), ("sf", "combinat.sf")):
        sizes = [s.report["trace"]["bits"][table] for s in traced if table in s.report["trace"]["bits"]]
        top = max(sizes, key=lambda b: b["n"], default={"max": 0, "total": 0})
        m[f"{prefix}.coeff_bits_max"] = (top["max"], "bit")
        m[f"{prefix}.coeff_bits_total"] = (top["total"], "bit")

    traced_cmd = sum(s.raw_command_s for s in traced)
    grown = sum(tot(f"grow.{table}", 1) for table, _ in GROW_METRICS)
    below_main = sum(t[1] - t[2] for t in main)
    m["trace.command_s"] = (traced_cmd / len(traced), "s")
    m["trace.overhead_s"] = (traced_cmd / len(traced)
                             - statistics.fmean(s.raw_command_s for s in untraced), "s")
    m["trace.accounted_pct"] = (100 * (grown + below_main) / 1e9 / traced_cmd, "%")
    return m


def write_spans(path: Path, traced: List[Sample]) -> None:
    path.write_text(json.dumps([{"args": s.call.args(), "spans": s.report["trace"]["spans"],
                                 "totals": s.report["trace"]["totals"]} for s in traced]))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=tuple(wl.SIZES), default="full",
                    help="problem sizes; 'tiny' is for the self-test")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fubinipoly" / "cli.py").is_file():
        print(f"error: no fubinipoly sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        runner = Runner(work)
        # Discarded warm-up: the first import writes bytecode caches.
        runner.bare_ms()
        if runner.run().report is None:
            print("error: the child process could not import fubinipoly.cli", file=sys.stderr)
            return 2
        bare = [runner.bare_ms() for _ in range(BARE_PROBES)]
        probes = [runner.run() for _ in range(SETUP_PROBES)]
        measured = measure(runner, args.workload, args.seed, args.seconds, args.scale, False)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        traced = measure(runner, args.workload, args.seed, args.seconds, args.scale, True) \
            if args.trace else []
        attempted, failed = gate_outputs(measured + traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = [s for s in measured if s.report is not None]
    traced = [s for s in traced if s.report is not None]
    if not measured or (args.trace and not traced):
        print("error: no measured process wrote a report", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  scale {args.scale}")
    print(f"env python {platform.python_version()} ({platform.python_implementation()})  "
          f"{platform.platform()}  {platform.machine()}  cpus {os.cpu_count()}  "
          f"bare_start_ms median {statistics.median(bare):.2f} n={len(bare)}")
    e2e = end_to_end(probes, measured, peak_rss_mb)
    for name, (value, unit, detail) in e2e.items():
        print(f"{name:16s} {value:12.4f} {unit:5s} {detail}")
    print(f"error_rate       {failed / attempted:12.4f}       {failed}/{attempted} operations failed")
    if args.trace:
        layers = per_layer(traced, measured)
        for name, (value, unit) in layers.items():
            print(f"{name:48s} {value:16.4f} {unit}")
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json", traced)
        metrics = layers
    else:
        metrics = {name: (value, unit) for name, (value, unit, _) in e2e.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
