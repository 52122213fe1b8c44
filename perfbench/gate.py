"""Output gate: is each measured process's output right?

A verify run must report ``pass`` for every expected check over the expected
index range.  A ``compute`` or ``table`` output is compared with a value
built by an independent library route where one exists (``fubini_rec``,
``hfubini_rec``, ``bernoulli_akiyama_tanigawa``, ``k! * stirling2``);
otherwise the library's value is used only after its digest matches one
recorded in ``digests.json``.  The gate reads public APIs only, and runs
after the timed processes have finished.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

from workloads import CHECK_RANGES, RANDOMIZED_CHECKS, Call

DIGESTS = Path(__file__).with_name("digests.json")


class OracleMismatch(Exception):
    """The library disagrees with the benchmark's own reference."""


def digest(value) -> str:
    return hashlib.sha256(canonical(value).encode()).hexdigest()[:16]


def canonical(value) -> str:
    if isinstance(value, (tuple, list)):
        return ";".join(canonical(v) for v in value)
    if hasattr(value, "coefficients"):
        return ",".join(str(Fraction(c)) for c in value.coefficients)
    return str(Fraction(value))


def json_scalar(value):
    f = Fraction(value)
    return f.numerator if f.denominator == 1 else str(f)


def horner(coeffs, point: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * point + c
    return acc


class Oracle:
    """Expected values, built once per run and cached."""

    def __init__(self) -> None:
        import fubinipoly
        import fubinipoly.cli

        self.lib = fubinipoly
        self.digests = json.loads(DIGESTS.read_text())
        self._cache: Dict[tuple, object] = {}

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def _recorded(self, family: str, n: int, value):
        expected = self.digests[family].get(str(n))
        if expected is None or digest(value) != expected:
            raise OracleMismatch(f"{family} n={n} does not match its recorded digest")
        return value

    def bernoulli_number(self, n: int) -> Fraction:
        return self._cached(("B", n), lambda: self.lib.bernoulli_akiyama_tanigawa(n))

    def bernoulli_poly(self, n: int) -> List[Fraction]:
        """B_n(x), checked by B_n(0) = B_n (Akiyama-Tanigawa) and
        B_n(x+1) - B_n(x) = n x^(n-1), which together determine it."""

        def build():
            c = [Fraction(v) for v in self.lib.bernoulli_poly(n).coefficients]
            shifted = [sum((math.comb(i, k) * c[i] for i in range(k, len(c))), Fraction(0))
                       for k in range(len(c))]
            diff = [s - v for s, v in zip(shifted, c)]
            while diff and diff[-1] == 0:
                diff.pop()
            want = [0] * (n - 1) + [n] if n >= 1 else []
            if diff != want or (c[0] if c else 0) != self.bernoulli_number(n):
                raise OracleMismatch(f"bernoulli polynomial n={n} fails its checks")
            return c

        return self._cached(("Bx", n), build)

    def lambda_row(self, n: int):
        return self._cached(("lambda", n), lambda: self._recorded(
            "lambda", n, tuple(self.lib.lambda_poly(n, v) for v in range(1, n + 1))))

    def stirling_row(self, n: int):
        return self._cached(("stirling", n), lambda: self._recorded(
            "stirling", n, tuple(self.lib.stirling2(n, k) for k in range(n + 1))))

    def polynomial(self, family: str, n: int, nu) -> List[Fraction]:
        lib = self.lib
        if family == "fubini":
            poly = self._cached(("F", n), lambda: lib.fubini_rec(n))
        elif family == "hfubini":
            poly = self._cached(("Fhat", n), lambda: lib.hfubini_rec(n))
        elif family == "lambda":
            poly = self.lambda_row(n)[nu - 1]
        elif family == "psi":
            poly = self._cached(("psi", n), lambda: self._recorded("psi", n, lib.psi_poly(n)))
        elif family == "power-sum":
            poly = self._cached(("S", n), lambda: self._recorded("power-sum", n, lib.power_sum_poly(n)))
        else:
            return self.bernoulli_poly(n)
        return [Fraction(c) for c in poly.coefficients]

    def scalar(self, family: str, n: int, nu) -> Fraction:
        if family == "sf":
            return Fraction(math.factorial(nu) * self.lib.stirling2(n, nu))
        if family == "stirling":
            return Fraction(self.stirling_row(n)[nu])
        return self._cached(("H", n), lambda: self._recorded("harmonic", n, self.lib.harmonic(n)))

    def table_rows(self, family: str, max_n: int) -> List[dict]:
        if family == "sf":
            return [{"n": n, "k": k, "value": Fraction(math.factorial(k) * self.lib.stirling2(n, k))}
                    for n in range(max_n + 1) for k in range(n + 1)]
        if family == "stirling":
            return [{"n": n, "k": k, "value": Fraction(v)}
                    for n in range(max_n + 1) for k, v in enumerate(self.stirling_row(n))]
        if family == "bernoulli":
            return [{"n": n, "value": self.bernoulli_number(n)} for n in range(max_n + 1)]
        return [{"n": n, "nu": nu, "coefficients": [Fraction(c) for c in poly.coefficients]}
                for n in range(1, max_n + 1) for nu, poly in enumerate(self.lambda_row(n), 1)]


def _plain(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(str(c) for c in value) + "]"
    return str(value)


def _json(value):
    return [json_scalar(c) for c in value] if isinstance(value, list) else json_scalar(value)


def expected_output(oracle: Oracle, call: Call):
    """The exact stdout text (plain, csv) or parsed document (json)."""
    schema = oracle.lib.cli.SCHEMA_VERSION
    if call.command == "table":
        rows = oracle.table_rows(call.family, call.n)
        if call.fmt == "json":
            return {"schema_version": schema, "family": call.family, "max_n": call.n,
                    "rows": [{k: _json(v) if isinstance(v, (list, Fraction)) else v
                              for k, v in row.items()} for row in rows]}
        if call.fmt == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(list(rows[0]))
            for row in rows:
                writer.writerow([_plain(v) for v in row.values()])
            return buf.getvalue()
        return "".join("  ".join(f"{k}={_plain(v)}" for k, v in row.items()) + "\n" for row in rows)

    at = Fraction(call.at) if call.at is not None else None
    if call.family in ("stirling", "sf", "harmonic"):
        value = oracle.scalar(call.family, call.n, call.nu)
    else:
        value = oracle.polynomial(call.family, call.n, call.nu)
        if at is not None:
            value = horner(value, at)
    if call.fmt == "plain":
        return _plain(value) + "\n"
    doc = {"schema_version": schema, "family": call.family, "n": call.n, "nu": call.nu,
           "at": str(at) if at is not None else None}
    doc["coefficients" if isinstance(value, list) else "value"] = _json(value)
    return doc


def check_cli_output(oracle: Oracle, call: Call, exit_code: int, text: str) -> bool:
    if exit_code != 0:
        return False
    expected = expected_output(oracle, call)
    if isinstance(expected, dict):
        try:
            return json.loads(text) == expected
        except ValueError:
            return False
    return text == expected


def expected_verify_lines(call: Call) -> List[str]:
    ranges = dict(CHECK_RANGES)
    lines = []
    for check_id in call.checks:
        lo, hi = ranges[check_id](call.n)
        line = f"pass {check_id}  n={lo}..{hi}"
        if check_id in RANDOMIZED_CHECKS:
            line += f"  seed={call.seed}"
        lines.append(line)
    return lines


def failed_checks(call: Call, exit_code: int, text: str) -> int:
    """How many of the run's checks did not pass over their expected range.
    Output of the wrong shape, or all lines right but a wrong exit code or
    summary line, fails every check."""
    expected = expected_verify_lines(call)
    got = text.splitlines()
    if len(got) != len(expected) + 1:
        return len(expected)
    bad = sum(1 for want, line in zip(expected, got) if want != line)
    summary = f"{len(expected)}/{len(expected)} checks passed"
    if bad == 0 and (exit_code != 0 or got[-1] != summary):
        return len(expected)
    return bad
