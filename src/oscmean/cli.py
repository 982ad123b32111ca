"""Command-line front end.

Subcommands:

* ``mean``        -- intersection point, first mean, closed-form mean, gap
* ``verify``      -- full exact + numeric verification suites
* ``identities``  -- combinatorial / determinant identity rows only
* ``conjecture``  -- n-th mean of the power-log curve vs the identric mean

Exit status: 0 all checks passed, 1 an identity failed, 2 usage or domain
error.  Output is human text by default; ``--json`` / ``--csv`` emit a
machine-readable form whose bytes are fully determined by the arguments and
seed.  JSON output is standard JSON: a float that is not finite prints as
``null``; ``mean`` refuses (exit 2) inputs, a point, M_1, L_N or M_k that
a float64 would print as 0.0 or inf.  The precision is the ``--precision``
flag, 53 bits by default; no environment variable changes an output.

The parser is built once per process and shared by every :func:`main` call.
Each subcommand's handler reads the parsed ``argparse.Namespace`` directly;
:func:`main` only validates the precision and the trial count first.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import signal
import sys
from typing import List, Optional, Sequence

from .errors import BadParameter, DomainError, OscmeanError
from .identities import (
    IdentityReport,
    conjecture_scan,
    run_exact_suite,
    run_identity_suite,
    run_numeric_suite,
)
from .means import evaluate_request
from .precision import require_precision

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

#: Identity rows carry no warnings: the ``warnings`` field is always empty and
#: stays for the documented JSON and CSV row format.
CSV_HEADER = ["identity", "n", "exact", "max_rel_error", "instances", "warnings"]

#: Scalar mpf fields of a ``mean`` outcome; every output format prints them as floats.
_FLOAT_FIELDS = ("m1", "neuman_ln", "rel_gap", "mk", "error_bound")


def _check_max_n(max_n: int) -> int:
    if max_n < 2:
        raise BadParameter(f"n must be >= 2, got --max-n {max_n}")
    if max_n > 7:
        raise BadParameter(f"symbolic checks are bounded at n = 7, got --max-n {max_n}")
    return max_n


def _print_json(payload) -> None:
    """Print standard JSON, with every float that is not finite as null."""

    def finite(value):
        if isinstance(value, float) and not math.isfinite(value):
            return None
        if isinstance(value, list):
            return [finite(v) for v in value]
        if isinstance(value, dict):
            return {key: finite(v) for key, v in value.items()}
        return value

    print(json.dumps(finite(payload), indent=2, allow_nan=False))


def _report_dict(report: IdentityReport) -> dict:
    return {
        "identity": report.name,
        "n": report.n,
        "exact": report.exact,
        "max_rel_error": report.max_rel_error,
        "instances": report.instances_checked,
        "warnings": [],
    }


def _emit_reports(reports: List[IdentityReport], args: argparse.Namespace) -> None:
    rows = sorted(reports, key=lambda r: (r.name, r.n if r.n is not None else -1))
    if args.json:
        _print_json([_report_dict(r) for r in rows])
        return
    if args.csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows([
            r.name,
            "" if r.n is None else r.n,
            "true" if r.exact else "false",
            "" if r.max_rel_error is None else repr(r.max_rel_error),
            r.instances_checked,
            "",
        ] for r in rows)
        return
    width = max(len(r.name) for r in rows) + 2
    for r in rows:
        n_part = "-" if r.n is None else str(r.n)
        if r.max_rel_error is None:
            detail = "exact" if r.exact else "EXACT CHECK FAILED"
        else:
            detail = f"max_rel_error={r.max_rel_error:.3e}"
        status = "PASS" if r.passed else "FAIL"
        if r.max_rel_error is not None and r.tolerance is None:
            status = "REPORT"
        print(f"{status:6} {r.name:<{width}} n={n_part:<3} {detail}  "
              f"instances={r.instances_checked}")


def _fail_reports(reports: List[IdentityReport], args: argparse.Namespace) -> int:
    failures = [r for r in reports if not r.passed]
    if not failures:
        return EXIT_OK
    failed = ", ".join(f"{r.name} (n={r.n})" for r in failures)
    print(
        f"verification failed: {failed} -- reproduce with "
        f"seed={args.seed} trials={args.trials} precision={args.precision}",
        file=sys.stderr,
    )
    return EXIT_FAIL


def _printable(name: str, value) -> float:
    """``float(value)``; a nonzero value that is 0.0 or inf as a float64 is refused."""
    x = float(value)
    if value and (x == 0.0 or math.isinf(x)):
        raise DomainError(f"{name} = {value} lies outside the float64 range")
    return x


def cmd_mean(args: argparse.Namespace) -> int:
    values = tuple(piece.strip() for piece in args.values.split(",") if piece.strip())
    outcome = evaluate_request(values, args.k, args.precision)
    record = dict(outcome)
    for key in ("values", "point"):
        record[key] = [_printable(f"{key}[{i}]", v) for i, v in enumerate(outcome[key])]
    for key in _FLOAT_FIELDS:
        value = outcome[key]
        record[key] = _printable(key, value) if key in ("m1", "neuman_ln", "mk") else float(value)
    if args.json:
        _print_json(record)
        return EXIT_OK
    if args.csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["field", "value"])
        writer.writerows([key, record[key]] for key in ("n", "k", "precision_bits"))
        writer.writerows([f"i_{i}", repr(coordinate)]
                         for i, coordinate in enumerate(record["point"], start=1))
        writer.writerows([key, repr(record[key])] for key in ("m1", "neuman_ln", "rel_gap", "mk"))
        writer.writerow(["warnings", ";".join(record["warnings"])])
        return EXIT_OK
    print(f"n = {record['n']}, precision = {record['precision_bits']} bits"
          + (f" (escalated to {record['effective_precision_bits']})"
             if record["effective_precision_bits"] != record["precision_bits"] else ""))
    for i, coordinate in enumerate(record["point"], start=1):
        print(f"  i_{i} = {coordinate!r}")
    print(f"M_1                    = {record['m1']!r}")
    print(f"logarithmic mean L_N   = {record['neuman_ln']!r}")
    print(f"relative gap           = {record['rel_gap']:.3e}")
    if record["k"] != 1:
        print(f"M_{record['k']} = {record['mk']!r}")
    for warning in record["warnings"]:
        print(f"warning: {warning}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    max_n = _check_max_n(args.max_n)
    reports = run_exact_suite(max_n, trials=min(args.trials, 50), seed=args.seed)
    reports += run_numeric_suite(max_n, trials=args.trials, seed=args.seed,
                                 precision_bits=args.precision)
    _emit_reports(reports, args)
    return _fail_reports(reports, args)


def cmd_identities(args: argparse.Namespace) -> int:
    reports = run_identity_suite(_check_max_n(args.max_n), trials=args.trials,
                                 seed=args.seed, precision_bits=args.precision)
    _emit_reports(reports, args)
    return _fail_reports(reports, args)


def cmd_conjecture(args: argparse.Namespace) -> int:
    reports = [conjecture_scan(args.n, args.trials, args.seed, args.precision)]
    _emit_reports(reports, args)
    return _fail_reports(reports, args)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="oscmean",
        description="Generalized logarithmic means from osculating hyperplanes, "
        "with exact and numeric verification of the identities behind them.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_mean = sub.add_parser("mean", help="compute the means for given values")
    p_mean.add_argument("--values", required=True, metavar="V1,V2,...",
                        help="comma-separated positive decimal values")
    p_mean.add_argument("--k", type=int, default=1, help="mean index (default 1)")
    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_ident = sub.add_parser("identities", help="run the identity checkers only")
    p_conj = sub.add_parser("conjecture", help="n-th mean vs identric mean experiment")
    p_conj.add_argument("--n", type=int, default=3)

    # Shared options follow each subcommand's own, so usage and help keep their order.
    for p in (p_verify, p_ident):
        p.add_argument("--max-n", type=int, default=5, dest="max_n",
                       help="largest dimension for n-indexed families (2..7)")
    for p in (p_verify, p_ident, p_conj):
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)
    handlers = ((p_mean, cmd_mean), (p_verify, cmd_verify),
                (p_ident, cmd_identities), (p_conj, cmd_conjecture))
    for p, handler in handlers:
        p.add_argument("--precision", type=int, default=53, metavar="BITS",
                       help="significand bits (>= 53; default 53)")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="emit JSON")
        fmt.add_argument("--csv", action="store_true", help="emit CSV rows")
        p.set_defaults(handler=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        require_precision(args.precision)
        if "trials" in args and args.trials < 1:
            raise BadParameter(f"trials must be >= 1, got {args.trials}")
        return args.handler(args)
    except OscmeanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console() -> None:
    """The ``oscmean`` script: :func:`main` on the command line's arguments.
    Where the platform has SIGPIPE, its default action is restored, so a
    reader that closes stdout early (``| head -1``) ends the process as it
    ends other tools, not with a traceback and the status of a failed
    identity."""
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    console()
