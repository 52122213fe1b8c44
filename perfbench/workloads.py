"""The benchmark's workloads: what each measured process runs.

Every workload is a closed loop with one client: the next process starts
when the previous one has exited.  Each process is a fresh interpreter, so
every memo table starts empty.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

# The 22 registered checks, in registry order, with the index range each
# reports at bound N.  The benchmark states them itself so that the output
# gate does not take the program's word for what a pass must cover.
CHECK_RANGES = (
    ("fs-at-minus-one", lambda n: (1, n)),
    ("fh-at-minus-one", lambda n: (1, n)),
    ("worpitzky-integral", lambda n: (1, n)),
    ("fs-central-value", lambda n: (1, n)),
    ("thm-main-integral", lambda n: (1, n)),
    ("thm-main-central", lambda n: (2, n)),
    ("cor-psi-odd", lambda n: (1, n)),
    ("lambda-expansion", lambda n: (1, n)),
    ("lambda-degree-P", lambda n: (1, n)),
    ("lambda-top", lambda n: (1, n)),
    ("lambda-reflection", lambda n: (3, n)),
    ("semiring-closure", lambda n: (1, 200)),
    ("table-fh-fs", lambda n: (1, min(4, n))),
    ("remainder-vanishes", lambda n: (2, n)),
    ("drv-fh-bn", lambda n: (1, n)),
    ("gregory-newton", lambda n: (1, n)),
    ("power-sum-agree", lambda n: (1, n)),
    ("bt-involution", lambda n: (1, 100)),
    ("bt-harmonic", lambda n: (1, n)),
    ("euler-hadamard", lambda n: (1, 100)),
    ("fh-derivative-form", lambda n: (1, n)),
    ("fubini-numbers", lambda n: (1, min(8, n))),
)
CHECK_IDS = tuple(check_id for check_id, _ in CHECK_RANGES)
RANDOMIZED_CHECKS = ("semiring-closure", "power-sum-agree", "bt-involution", "euler-hadamard")

# The checks that only build F_n, Fhat_n, psi_n and B_n and evaluate or
# integrate them: no lambda, no polynomial product, no reflection test.
VALUE_CHECKS = ("fs-at-minus-one", "fh-at-minus-one", "worpitzky-integral",
                "fs-central-value", "thm-main-integral", "thm-main-central",
                "cor-psi-odd", "drv-fh-bn", "bt-harmonic")

POLY_FAMILIES = ("fubini", "hfubini", "lambda", "psi", "bernoulli", "power-sum")
SCALAR_FAMILIES = ("stirling", "sf", "harmonic")
NU_FAMILIES = ("lambda", "stirling", "sf")
TABLE_FAMILIES = ("sf", "stirling", "lambda", "bernoulli")
TABLE_FORMATS = ("plain", "json", "csv")

WORKLOADS = ("verify-full", "verify-values", "cli-oneshot")

# Problem sizes.  "tiny" exists for the self-test only.
SIZES = {
    "full": {"verify-full": 128, "verify-values": 600, "cli_top_n": 200,
             "cli_top_table_n": 120, "cli_min_calls": 100},
    "tiny": {"verify-full": 12, "verify-values": 40, "cli_top_n": 30,
             "cli_top_table_n": 12, "cli_min_calls": 20},
}
# Calibrated so that a cli-oneshot stream lasts about --seconds.
CLI_CALLS_PER_SECOND = 6


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the memo tables (with top index) it reads."""
    command: str                      # "verify" | "compute" | "table"
    family: str = ""
    n: int = 0
    nu: Optional[int] = None
    at: Optional[str] = None
    fmt: str = "plain"
    checks: Tuple[str, ...] = ()
    seed: Optional[int] = None
    grow: Dict[str, int] = field(default_factory=dict, hash=False)

    def args(self) -> List[str]:
        if self.command == "verify":
            checks = "all" if self.checks == CHECK_IDS else ",".join(self.checks)
            return ["verify", "--max-n", str(self.n), "--checks", checks, "--seed", str(self.seed)]
        if self.command == "table":
            return ["table", self.family, "--max-n", str(self.n), "--format", self.fmt]
        out = ["compute", self.family, "--n", str(self.n)]
        if self.nu is not None:
            out += ["--nu", str(self.nu)]
        if self.at is not None:
            out += ["--at", self.at]
        return out + ["--format", self.fmt]


def verify_call(workload: str, seed: int, scale: str) -> Call:
    n = SIZES[scale][workload]
    if workload == "verify-full":
        grow = {"sf": n + 1, "harmonic": n, "bernoulli": n + 1, "bernoulli_poly": n + 1, "lambda": n}
        return Call("verify", n=n, checks=CHECK_IDS, seed=seed, grow=grow)
    grow = {"sf": n + 1, "harmonic": n, "bernoulli": n + 1}
    return Call("verify", n=n, checks=VALUE_CHECKS, seed=seed, grow=grow)


def _compute_grow(family: str, n: int) -> Dict[str, int]:
    return {
        "fubini": {"sf": n},
        "hfubini": {"sf": n, "harmonic": n},
        "psi": {"sf": n, "harmonic": n},
        "lambda": {"lambda": n},
        "bernoulli": {"sf": n, "bernoulli": n, "bernoulli_poly": n},
        "power-sum": {"sf": n + 1, "bernoulli": n + 1, "bernoulli_poly": n + 1},
        "stirling": {"stirling2": n},
        "sf": {"sf": n},
        "harmonic": {"harmonic": n},
    }[family]


def _table_grow(family: str, n: int) -> Dict[str, int]:
    return {
        "sf": {"sf": n},
        "stirling": {"stirling2": n},
        "lambda": {"lambda": n},
        "bernoulli": {"sf": n, "bernoulli": n},
    }[family]


def _spread(rng: random.Random, k: int, top: int) -> List[int]:
    """k draws from 1..top, one from each of k equal strata, the last one
    pinned to top.  Every stream then has the same spread of sizes and
    reaches the top of the range, so its tail latency and peak memory do
    not hinge on one lucky draw."""
    out = []
    for i in range(k):
        lo = 1 + (top * i) // k
        hi = max(lo, (top * (i + 1)) // k)
        out.append(rng.randint(lo, hi))
    if out:
        out[-1] = top
    return out


def _split(total: int, parts: int) -> List[int]:
    return [total // parts + (1 if i < total % parts else 0) for i in range(parts)]


def cli_stream(seed: int, count: int, scale: str) -> List[Call]:
    """A seeded stream of one-shot calls: about 90% compute over all nine
    families and 10% table over all four families and three formats."""
    size = SIZES[scale]
    rng = random.Random(seed)
    n_table = max(len(TABLE_FAMILIES), round(count * 0.1))
    n_compute = count - n_table
    calls: List[Call] = []

    compute = []
    families = POLY_FAMILIES + SCALAR_FAMILIES
    for family, k in zip(families, _split(n_compute, len(families))):
        for n in _spread(rng, k, size["cli_top_n"]):
            compute.append((family, n))
    poly_idx = [i for i, (family, _) in enumerate(compute) if family in POLY_FAMILIES]
    with_at = set(rng.sample(poly_idx, len(poly_idx) // 2))
    as_json = set(rng.sample(range(len(compute)), round(len(compute) * 0.3)))
    for i, (family, n) in enumerate(compute):
        nu = rng.randint(1, n) if family in NU_FAMILIES else None
        at = f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}" if i in with_at else None
        calls.append(Call("compute", family, n, nu, at, "json" if i in as_json else "plain",
                          grow=_compute_grow(family, n)))

    # Table i has family i mod 4 and format (i div 4) mod 3, so the first
    # twelve cover every family and format pair.
    per_family = _split(n_table, len(TABLE_FAMILIES))
    sizes = {f: _spread(rng, k, size["cli_top_table_n"]) for f, k in zip(TABLE_FAMILIES, per_family)}
    for i in range(n_table):
        family = TABLE_FAMILIES[i % len(TABLE_FAMILIES)]
        fmt = TABLE_FORMATS[(i // len(TABLE_FAMILIES)) % len(TABLE_FORMATS)]
        n = sizes[family][i // len(TABLE_FAMILIES)]
        calls.append(Call("table", family, n, fmt=fmt, grow=_table_grow(family, n)))

    rng.shuffle(calls)
    return calls
