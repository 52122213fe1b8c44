"""Record digests.json: digests of the values the output gate has no
independent library route for, at every index a cli-oneshot stream reaches.

    PYTHONPATH=src python3 perfbench/record_digests.py

Run it only from a commit whose outputs are trusted; the gate then rejects
any later output that differs.
"""
import json

import fubinipoly

from gate import DIGESTS, digest
from workloads import SIZES

TOP = SIZES["full"]["cli_top_n"]


def main() -> None:
    lib = fubinipoly
    doc = {
        "lambda": {n: digest(tuple(lib.lambda_poly(n, v) for v in range(1, n + 1)))
                   for n in range(1, TOP + 1)},
        "stirling": {n: digest(tuple(lib.stirling2(n, k) for k in range(n + 1)))
                     for n in range(TOP + 1)},
        "psi": {n: digest(lib.psi_poly(n)) for n in range(1, TOP + 1)},
        "power-sum": {n: digest(lib.power_sum_poly(n)) for n in range(1, TOP + 1)},
        "harmonic": {n: digest(lib.harmonic(n)) for n in range(1, TOP + 1)},
    }
    DIGESTS.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
