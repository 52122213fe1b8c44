"""One measured process: import the CLI, optionally trace, run ``cli.main``.

    python child.py REPORT [--trace GROW] [-- CLI-ARGS...]

Writes a JSON report to REPORT holding CLOCK_MONOTONIC timestamps (shared
with the parent on Linux) for the end of ``import fubinipoly.cli`` and for
the ``cli.main`` call, and the speed calibration samples (calibrate.py)
taken at start, after the import, during an untraced command and at the end.
With no CLI-ARGS it only imports, which is a set-up probe.  With ``--trace``
it installs the tracer, grows each memo table named in GROW
(``table=index,...`` or ``-``) through public calls, then runs the command,
and adds the totals and kept spans to the report.  The CLI's own output goes
to this process's stdout.
"""
import sys
import time
import traceback

import calibrate

_sampler = calibrate.Sampler()
_sampler.sample()
_import_start = time.monotonic_ns()
import fubinipoly.cli  # noqa: E402
_imported = time.monotonic_ns()
_sampler.sample()

import json  # noqa: E402

# Growth order matters: bernoulli reads SF rows, bernoulli_poly reads
# bernoulli, so each call grows only its own table.
GROWERS = (
    ("sf", "combinat", "sf_row", lambda f, n: f(n)),
    ("stirling2", "combinat", "stirling2", lambda f, n: f(n, 0)),
    ("harmonic", "combinat", "harmonic", lambda f, n: f(n)),
    ("bernoulli", "combinat", "bernoulli", lambda f, n: f(n)),
    ("bernoulli_poly", "combinat", "bernoulli_poly", lambda f, n: f(n)),
    ("lambda", "fubini", "lambda_poly", lambda f, n: f(n, 1)),
)


def _parse_grow(text):
    if text == "-":
        return {}
    return {k: int(v) for k, v in (item.split("=") for item in text.split(","))}


def _bits(values):
    sizes = [abs(int(c)).bit_length() for c in values]
    return {"max": max(sizes, default=0), "total": sum(sizes)}


def _coefficient_bits(grow):
    """Computed sizes of the top rows the run grew."""
    fubini = sys.modules["fubinipoly.fubini"]
    combinat = sys.modules["fubinipoly.combinat"]
    out = {}
    if "lambda" in grow:
        n = grow["lambda"]
        out["lambda"] = _bits(c for v in range(1, n + 1)
                              for c in fubini.lambda_poly(n, v).coefficients)
        out["lambda"]["n"] = n
    if "sf" in grow:
        out["sf"] = _bits(combinat.sf_row(grow["sf"]))
        out["sf"]["n"] = grow["sf"]
    return out


def _run_main(argv):
    try:
        return fubinipoly.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit from inside main
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed operation, reported like any other
        traceback.print_exc()
        return 1


def main() -> int:
    report_path, rest = sys.argv[1], sys.argv[2:]
    grow = None
    if rest[:1] == ["--trace"]:
        grow, rest = _parse_grow(rest[1]), rest[2:]
    if rest[:1] == ["--"]:
        rest = rest[1:]
    report = {"imported_ns": _imported, "import_ns": _imported - _import_start}
    code = 0
    if rest and grow is None:
        report["main_start_ns"] = time.monotonic_ns()
        _sampler.start_timer()
        code = _run_main(rest)
        _sampler.stop_timer()
        report["main_end_ns"] = time.monotonic_ns()
    elif rest:
        import tracer

        tr = tracer.Tracer()
        tracer.install(tr)
        report["main_start_ns"] = time.monotonic_ns()
        for table, module, func, call in GROWERS:
            if table in grow:
                with tr.span(f"grow.{table}"):
                    call(getattr(sys.modules[f"fubinipoly.{module}"], func), grow[table])
        after_grow = tr.snapshot()
        with tr.span("cli.main"):
            code = _run_main(rest)
        report["main_end_ns"] = time.monotonic_ns()
        report["trace"] = {
            "totals": tr.snapshot(),
            "after_grow": after_grow,
            "spans": tr.spans,
            "bits": _coefficient_bits(grow),
        }
    sys.stdout.flush()
    _sampler.sample()
    report["calibration"] = _sampler.samples
    with open(report_path, "w") as f:
        json.dump(report, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
