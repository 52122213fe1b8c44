"""Command-line front end.

Three subcommands:

* ``compute``: one polynomial or scalar, optionally evaluated at an exact
  rational point.  Coefficient lists print constant term first.  ``--nu`` is
  required by ``lambda`` (in 1..n), ``stirling`` and ``sf`` (in 0..n) and
  refused by every other family; ``--at`` is refused by the scalar families.
* ``verify``: run registered identity checks; exit 0 only if all pass.  A
  failing check reports its first failing index, which is the smallest.
* ``table``: triangles and sequences as plain text, JSON, or CSV.

Exit codes: 0 success / all checks pass, 1 verification failure (a check
failed or evaluated no case), 2 usage error (argparse's, or any ValueError
raised by the library).  Rational values are always printed reduced, as
``p/q`` or a bare integer.  Run as ``fubinipoly`` or ``python -m fubinipoly``.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import List, Optional

from . import combinat, fubini, verify
from .exactpoly import Polynomial, format_rational, format_value, index, json_value, parse_rational

SCHEMA_VERSION = 1


# compute: family -> (builder(n, nu), whether the family reads --nu (then it
# is required, else refused), whether the result is a polynomial that --at
# may evaluate).  Builders look the library function up at call time, so a
# rebinding of the module attribute (a tracer, a test double) is honoured.
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
                           help="second index (required by "
                                + ", ".join(f for f, (_, nu, _) in _COMPUTE_FAMILIES.items() if nu)
                                + "; refused by the others)")
    p_compute.add_argument("--at", default=None, metavar="RATIONAL",
                           help="evaluate the polynomial at this exact point (p/q or integer)")
    p_compute.add_argument("--format", choices=("plain", "json"), default="plain")
    p_compute.set_defaults(func=_cmd_compute)

    p_verify = sub.add_parser("verify", help="run identity checks")
    p_verify.add_argument("--max-n", type=int, default=64, dest="max_n",
                          help="verify each check for all applicable n up to this bound (default 64)")
    p_verify.add_argument("--checks", default="all",
                          help="comma-separated check ids, or 'all' (default)")
    p_verify.add_argument("--format", choices=("plain", "json"), default="plain")
    p_verify.add_argument("--seed", type=int, default=verify.DEFAULT_SEED,
                          help="seed for randomized checks (default %(default)s, recorded in reports)")
    p_verify.add_argument("--list", action="store_true", dest="list_checks",
                          help="list registered check ids and exit")
    p_verify.set_defaults(func=_cmd_verify)

    p_table = sub.add_parser("table", help="emit a whole triangle or sequence")
    p_table.add_argument("family", choices=tuple(_TABLE_FAMILIES))
    p_table.add_argument("--max-n", type=int, required=True, dest="max_n")
    p_table.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p_table.set_defaults(func=_cmd_table)

    return parser


def _cmd_compute(args) -> int:
    at = args.at        # already an exact Fraction: main parses it
    payload = {
        "schema_version": SCHEMA_VERSION,
        "family": args.family,
        "n": args.n,
        "nu": args.nu,
        "at": format_rational(at) if at is not None else None,
    }
    build, needs_nu, polynomial = _COMPUTE_FAMILIES[args.family]
    if at is not None and not polynomial:
        raise ValueError(f"--at does not apply to scalar family '{args.family}'")
    if needs_nu and args.nu is None:
        raise ValueError(f"family '{args.family}' requires --nu")
    if not needs_nu and args.nu is not None:
        raise ValueError(f"--nu does not apply to family '{args.family}'")
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
    selection = [c.strip() for c in args.checks.split(",") if c.strip()]
    reports = verify.run_suite(args.max_n, selection, seed=args.seed)
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
    # Each row is written as soon as it is made, so memory stays that of one row.
    rows = _TABLE_FAMILIES[args.family](index(args.max_n, 1, name="--max-n"))
    if args.format == "json":
        envelope = json.dumps({"schema_version": SCHEMA_VERSION, "family": args.family,
                               "max_n": args.max_n, "rows": []})
        sys.stdout.write(envelope[:-len("]}")])
        for i, row in enumerate(rows):
            sys.stdout.write((", " if i else "")
                             + json.dumps({k: json_value(v) for k, v in row.items()}))
        sys.stdout.write("]}\n")
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        for i, row in enumerate(rows):
            if not i:
                writer.writerow(row.keys())
            writer.writerow([format_value(v) for v in row.values()])
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
    limit = sys.get_int_max_str_digits()
    try:
        if getattr(args, "at", None) is not None:
            args.at = parse_rational(args.at)
        # The inputs above pass Python's guard on int-from-str length; the
        # exact results printed below may be far longer, so it is lifted.
        sys.set_int_max_str_digits(0)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


def run() -> None:
    sys.exit(main())
