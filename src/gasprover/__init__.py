"""Exact prover for global asymptotic stability of rational difference
equations, via polynomial positivity certificates on the positive orthant."""

# recurrence first: without a bytecode cache every import compiles the
# sources, and compiling the module whose compile takes the most memory,
# recurrence.py, while the fewest others are loaded keeps the peak memory of
# the import down.
from .recurrence import (
    Equilibrium,
    RecurrenceSpec,
    UnsupportedInputError,
    build_contraction_poly,
    find_equilibrium,
    parse_rde,
    q_power,
)
from .polynomial import MultiPoly, RatFun
from .positivity import prove_nonneg
from .certificate import ProofCertificate, certificate_from_json, certificate_to_json
from .checker import replay_certificate
from .driver import PipelineResult, prove, prove_k, webbook
from .parsing import ParseError, parse_poly
from .stability import LasVerdict, las_check

__all__ = [
    "Equilibrium",
    "LasVerdict",
    "MultiPoly",
    "ParseError",
    "PipelineResult",
    "ProofCertificate",
    "RatFun",
    "RecurrenceSpec",
    "UnsupportedInputError",
    "build_contraction_poly",
    "certificate_from_json",
    "certificate_to_json",
    "find_equilibrium",
    "las_check",
    "parse_poly",
    "parse_rde",
    "prove",
    "prove_k",
    "prove_nonneg",
    "q_power",
    "replay_certificate",
    "webbook",
]

__version__ = "0.1.0"
