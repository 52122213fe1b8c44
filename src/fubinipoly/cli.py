"""Command-line front end.

Three subcommands:

* ``compute``: one polynomial or scalar, optionally evaluated at an exact
  rational point.  Coefficient lists print constant term first.
* ``verify``: run registered identity checks; exit 0 only if all pass.
* ``table``: triangles and sequences as plain text, JSON, or CSV.

Exit codes: 0 success / all checks pass, 1 verification failure (a check
failed or evaluated no case), 2 usage error.  Rational values are always
printed reduced, as ``p/q`` or a bare integer.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import List, Optional, Sequence

from . import combinat, fubini, verify
from .exactpoly import Polynomial, format_rational, format_value, json_value, parse_rational

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


# compute: family -> (builder(n, nu), whether --nu is required, whether the
# result is a polynomial that --at may evaluate).  Builders look the library
# function up at call time, so a rebinding of the module attribute (a tracer,
# a test double) is honoured.
_COMPUTE_FAMILIES = {
    "fubini": (lambda n, nu: fubini.fubini_direct(n), False, True),
    "hfubini": (lambda n, nu: fubini.hfubini_direct(n), False, True),
    "lambda": (lambda n, nu: fubini.lambda_poly(n, nu), True, True),
    "psi": (lambda n, nu: fubini.psi_poly(n), False, True),
    "bernoulli": (lambda n, nu: combinat.bernoulli_poly(n), False, True),
    "stirling": (lambda n, nu: combinat.stirling2(n, nu), True, False),
    "sf": (lambda n, nu: combinat.sf(n, nu), True, False),
    "harmonic": (lambda n, nu: combinat.harmonic(n), False, False),
    "power-sum": (lambda n, nu: fubini.power_sum_poly(n), False, True),
}


def _triangle_rows(value, max_n: int):
    for n in range(max_n + 1):
        for k in range(n + 1):
            yield {"n": n, "k": k, "value": value(n, k)}


# table: family -> rows(max_n), each row a dict of column -> exact value.
_TABLE_FAMILIES = {
    "sf": lambda max_n: _triangle_rows(combinat.sf, max_n),
    "stirling": lambda max_n: _triangle_rows(combinat.stirling2, max_n),
    "lambda": lambda max_n: ({"n": n, "nu": nu, "coefficients": fubini.lambda_poly(n, nu)}
                             for n in range(1, max_n + 1) for nu in range(1, n + 1)),
    "bernoulli": lambda max_n: ({"n": n, "value": combinat.bernoulli(n)}
                                for n in range(max_n + 1)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fubinipoly",
        description="Exact Fubini-polynomial families, special values, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser(
        "compute",
        help="compute one polynomial or scalar",
        description="Coefficient lists are printed constant term first: "
                    "[c0, c1, ...] means c0 + c1*x + ...  "
                    "Rational arguments accept only p/q or integer literals.",
    )
    p_compute.add_argument("family", choices=tuple(_COMPUTE_FAMILIES))
    p_compute.add_argument("--n", type=int, required=True, help="main index n")
    p_compute.add_argument("--nu", type=int, default=None,
                           help="second index (required for "
                                + ", ".join(f for f, (_, nu, _) in _COMPUTE_FAMILIES.items() if nu) + ")")
    p_compute.add_argument("--at", default=None, metavar="RATIONAL",
                           help="evaluate the polynomial at this exact point (p/q or integer)")
    p_compute.add_argument("--format", choices=("plain", "json"), default="plain")

    p_verify = sub.add_parser("verify", help="run identity checks")
    p_verify.add_argument("--max-n", type=int, default=64, dest="max_n",
                          help="verify each check for all applicable n up to this bound (default 64)")
    p_verify.add_argument("--checks", default="all",
                          help="comma-separated check ids, or 'all' (default)")
    p_verify.add_argument("--format", choices=("plain", "json"), default="plain")
    p_verify.add_argument("--exhaustive", action="store_true",
                          help="scan the whole range instead of stopping at the first failure")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="seed for randomized checks (default 0, recorded in reports)")
    p_verify.add_argument("--list", action="store_true", dest="list_checks",
                          help="list registered check ids and exit")

    p_table = sub.add_parser("table", help="emit a whole triangle or sequence")
    p_table.add_argument("family", choices=tuple(_TABLE_FAMILIES))
    p_table.add_argument("--max-n", type=int, required=True, dest="max_n")
    p_table.add_argument("--format", choices=("plain", "json", "csv"), default="plain")

    return parser


def _cmd_compute(args) -> int:
    at = parse_rational(args.at) if args.at is not None else None
    payload = {
        "schema_version": SCHEMA_VERSION,
        "family": args.family,
        "n": args.n,
        "nu": args.nu,
        "at": format_rational(at) if at is not None else None,
    }
    build, needs_nu, polynomial = _COMPUTE_FAMILIES[args.family]
    if at is not None and not polynomial:
        raise UsageError(f"--at does not apply to scalar family '{args.family}'")
    if needs_nu and args.nu is None:
        raise UsageError(f"family '{args.family}' requires --nu")
    value = build(args.n, args.nu)
    if at is not None:
        value = value(at)
    payload["coefficients" if isinstance(value, Polynomial) else "value"] = json_value(value)
    print(json.dumps(payload) if args.format == "json" else format_value(value))
    return 0


def _cmd_verify(args) -> int:
    if args.list_checks:
        for check_id in verify.CHECK_IDS:
            print(check_id)
        return 0
    selection: Sequence[str] | str
    if args.checks.strip() == "all":
        selection = "all"
    else:
        selection = [c.strip() for c in args.checks.split(",") if c.strip()]
        if not selection:
            raise UsageError("--checks must name at least one check or 'all'")
    reports = verify.run_suite(args.max_n, selection,
                               exhaustive=args.exhaustive, seed=args.seed)
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "max_n": args.max_n,
            "reports": [r.to_dict() for r in reports],
        }
        print(json.dumps(doc))
    else:
        for r in reports:
            line = f"{r.status:4s} {r.check_id}  n={r.n_min}..{r.n_max}"
            if r.seed is not None:
                line += f"  seed={r.seed}"
            if r.status == "fail":
                line += f"  witness n={r.witness_n}: lhs={r.lhs} rhs={r.rhs}"
            print(line)
        failed = sum(1 for r in reports if not r.passed)
        print(f"{len(reports) - failed}/{len(reports)} checks passed")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_table(args) -> int:
    if args.max_n < 1:
        raise UsageError(f"--max-n must be positive, got {args.max_n}")
    rows = list(_TABLE_FAMILIES[args.family](args.max_n))
    if args.format == "json":
        print(json.dumps({"schema_version": SCHEMA_VERSION, "family": args.family,
                          "max_n": args.max_n,
                          "rows": [{k: json_value(v) for k, v in row.items()} for row in rows]}))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow([format_value(v) for v in row.values()])
        sys.stdout.write(buf.getvalue())
    else:
        for row in rows:
            print("  ".join(f"{k}={format_value(v)}" for k, v in row.items()))
    return 0


def _join_rational_flag_values(argv: List[str]) -> List[str]:
    """Rewrite ["--at", "-1/2"] as ["--at=-1/2"] so negative rational
    literals survive argparse's option detection."""
    out: List[str] = []
    i = 0
    while i < len(argv):
        if argv[i] == "--at" and i + 1 < len(argv):
            out.append(f"--at={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_rational_flag_values(
        list(sys.argv[1:]) if argv is None else list(argv)))
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "table":
            return _cmd_table(args)
        raise UsageError(f"unknown command: {args.command}")
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
