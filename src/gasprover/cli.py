"""Command-line interface.

Verbs: prove (full pipeline), prove-k (fixed contraction exponent),
positivity (raw polynomial non-negativity on the orthant), webbook (batch
proving of a parameterized template). Exit codes: 0 = true/Proven,
1 = false/Disproven, 2 = FAIL, 3 = unsupported input, or an input, usage or
file error.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .certificate import certificate_to_json
from .driver import _prove_k, prove, webbook
from .packed import decimal_str
from .parsing import ParseError, parse_poly, parse_rational
from .positivity import orthant_split, prove_nonneg
from .recurrence import UnsupportedInputError, parse_rde

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_FAIL = 2
EXIT_UNSUPPORTED = 3

_VERDICT_EXIT = {
    "true": EXIT_TRUE,
    "Proven": EXIT_TRUE,
    "false": EXIT_FALSE,
    "Disproven": EXIT_FALSE,
    "FAIL": EXIT_FAIL,
    "Fail": EXIT_FAIL,
}


def _fraction(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _range_spec(text: str) -> tuple[str, Fraction, Fraction]:
    name, _, interval = text.partition("=")
    lo, _, hi = interval.partition("..")
    try:
        return name, parse_rational(lo), parse_rational(hi)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(
            f"expected NAME=LO..HI with rational bounds, got {text!r}: {exc}"
        ) from exc


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with EXIT_UNSUPPORTED."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_UNSUPPORTED, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="gasprover",
        description=(
            "Prove global asymptotic stability of rational difference "
            "equations via exact polynomial positivity certificates."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("prove", help="full pipeline: stability, K search, proof")
    p.add_argument("--rde", required=True, help="right-hand side R(x0, x1, ...)")
    p.add_argument("--max-k", type=int, default=10,
                   help="largest contraction exponent K tried; K starts at the "
                        "recurrence order, as no smaller K can contract")
    p.add_argument("--order", type=int, default=None,
                   help="recurrence order (default: inferred from variables)")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--cert", type=Path, default=None,
                   help="write the proof certificate as JSON")
    p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("prove-k", help="test one contraction exponent K")
    p.add_argument("--rde", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--cert", type=Path, default=None)
    p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("positivity",
                       help="prove a polynomial non-negative on the orthant")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly", help="polynomial expression")
    src.add_argument("--poly-file", type=Path, help="file with the expression")
    p.add_argument("--xbar", type=_fraction, required=True,
                   help="orthant split point (exact rational p/q)")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--cert", type=Path, default=None)
    p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("webbook", help="batch-prove a parameterized template")
    p.add_argument("--template", required=True,
                   help="expression with named parameters, e.g. b*x0/(1+x0)")
    p.add_argument("--range", dest="ranges", type=_range_spec, action="append",
                   default=[], metavar="NAME=LO..HI",
                   help="half-open parameter range (lo, hi]; repeatable")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--max-k", type=int, default=10, help="as for prove")
    p.add_argument("--depth", type=int, default=12)
    return parser


def _write_cert(path: Path | None, cert, reason: str = "") -> None:
    """Write cert to path; a result without one writes nothing and says why."""
    if path is None:
        return
    if cert is None:
        print(f"no certificate ({reason}): {path} not written", file=sys.stderr)
        return
    path.write_text(certificate_to_json(cert))


def _print_result(result, verbose: bool) -> None:
    print(f"verdict: {result.verdict}")
    print(f"reason: {result.reason}")
    if result.equilibrium is not None:
        print(f"equilibrium: {decimal_str(result.equilibrium.value)}")
    if result.K is not None:
        print(f"K: {result.K}")
    cert = result.certificate
    if cert is not None:
        if cert.witness is not None:
            _print_witness(cert)
        print(f"certificate: verdict={cert.verdict} nodes={len(cert.nodes)}")
    if verbose and result.las is not None:
        coeffs = ", ".join(map(decimal_str, result.las.char_poly))
        print(f"local stability: {result.las.outcome} "
              f"(characteristic coefficients low-to-high: {coeffs})")
    if verbose and result.timings:
        for stage, secs in result.timings.items():
            print(f"time[{stage}]: {secs:.3f}s")


def _print_witness(cert) -> None:
    point = ", ".join(map(decimal_str, cert.witness))
    print(f"witness: ({point}) -> {decimal_str(cert.witness_value)}")


def _print_regions(P, xbar) -> None:
    for region, poly in orthant_split(P, xbar):
        print(f"region {region.label}: {poly}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "prove":
            spec = parse_rde(args.rde, args.order)
            result = prove(spec, args.max_k, depth_limit=args.depth)
            _write_cert(args.cert, result.certificate, result.reason)
            _print_result(result, args.verbose)
            return _VERDICT_EXIT[result.verdict]

        if args.verb == "prove-k":
            spec = parse_rde(args.rde, args.order)
            result, P = _prove_k(spec, args.k, args.depth)
            if args.verbose and result.certificate is not None:
                _print_regions(P, result.equilibrium.value)
            _write_cert(args.cert, result.certificate, result.reason)
            _print_result(result, args.verbose)
            return _VERDICT_EXIT[result.verdict]

        if args.verb == "positivity":
            text = (args.poly if args.poly is not None
                    else args.poly_file.read_text())
            P = parse_poly(text)
            cert = prove_nonneg(P, args.xbar, args.depth)
            _write_cert(args.cert, cert)
            if args.verbose:
                _print_regions(P, args.xbar)
            print(f"verdict: {cert.verdict}")
            if cert.witness is not None:
                _print_witness(cert)
            return _VERDICT_EXIT[cert.verdict]

        if args.verb == "webbook":
            ranges = {}
            for name, lo, hi in args.ranges:
                if name in ranges:
                    print(f"error: --range {name} is given more than once", file=sys.stderr)
                    return EXIT_UNSUPPORTED
                ranges[name] = (lo, hi)
            if not ranges:
                print("error: at least one --range is required", file=sys.stderr)
                return EXIT_UNSUPPORTED
            report = webbook(args.template, ranges, args.count, args.seed,
                             args.max_k, depth_limit=args.depth,
                             order=args.order)
            print(report.to_text(), end="")
            if all(r.status == "true" for r in report.rows):
                return EXIT_TRUE
            if any(r.status == "false" for r in report.rows):
                return EXIT_FALSE
            return EXIT_FAIL
    except UnsupportedInputError as exc:
        print(f"unsupported input ({exc.kind}): {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    raise AssertionError(f"unhandled verb {args.verb}")


if __name__ == "__main__":
    sys.exit(main())
