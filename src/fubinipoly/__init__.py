"""Exact arithmetic for Fubini polynomials, their harmonic-weighted
variants, the connection polynomials between the two families, and a
verification suite that checks every identity relating them to Bernoulli
numbers over a chosen range."""

from .combinat import (
    bernoulli,
    bernoulli_akiyama_tanigawa,
    bernoulli_poly,
    binomial,
    binomial_rat,
    harmonic,
    sf,
    sf_row,
    stirling2,
)
from .exactpoly import Polynomial, Rational, format_rational, parse_rational
from .fubini import (
    fubini_direct,
    fubini_rec,
    hfubini_direct,
    hfubini_rec,
    lambda_poly,
    power_sum_gn,
    power_sum_poly,
    psi_poly,
    remainder_R,
)
from .transforms import (
    RationalSeq,
    binomial_transform,
    euler_hadamard,
    hadamard,
    hfubini_via_derivatives,
)
from .verify import CHECK_IDS, CHECKS, IdentityCheck, IdentityReport, run_check, run_suite

__version__ = "0.1.0"

__all__ = [
    "bernoulli",
    "bernoulli_akiyama_tanigawa",
    "bernoulli_poly",
    "binomial",
    "binomial_rat",
    "harmonic",
    "sf",
    "sf_row",
    "stirling2",
    "Polynomial",
    "Rational",
    "format_rational",
    "parse_rational",
    "fubini_direct",
    "fubini_rec",
    "hfubini_direct",
    "hfubini_rec",
    "lambda_poly",
    "power_sum_gn",
    "power_sum_poly",
    "psi_poly",
    "remainder_R",
    "RationalSeq",
    "binomial_transform",
    "euler_hadamard",
    "hadamard",
    "hfubini_via_derivatives",
    "CHECK_IDS",
    "CHECKS",
    "IdentityCheck",
    "IdentityReport",
    "run_check",
    "run_suite",
    "__version__",
]
