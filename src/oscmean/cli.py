"""Command-line front end.

Subcommands:

* ``mean``        -- intersection point, first mean, closed-form mean, gap
* ``verify``      -- full exact + numeric verification suites
* ``identities``  -- combinatorial / determinant identity rows only
* ``conjecture``  -- n-th mean of the power-log curve vs the identric mean

Exit status: 0 all checks passed, 1 an identity failed, 2 usage or domain
error.  Output is human text by default; ``--json`` / ``--csv`` emit a
machine-readable form whose bytes are fully determined by the arguments and
seed.  The OSCMEAN_PRECISION environment variable overrides the default
precision; an explicit ``--precision`` flag wins over both.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import BadParameter, OscmeanError
from .identities import (
    IdentityReport,
    conjecture_scan,
    run_exact_suite,
    run_identity_suite,
    run_numeric_suite,
)
from .means import MeanRequest, evaluate_request
from .precision import require_precision

ENV_PRECISION = "OSCMEAN_PRECISION"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

CSV_HEADER = ["identity", "n", "exact", "max_rel_error", "instances", "warnings"]


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved invocation; the seed pins every randomized input."""

    subcommand: str
    values: Optional[Tuple[str, ...]] = None
    k: Optional[int] = None
    max_n: Optional[int] = None
    n: Optional[int] = None
    precision_bits: int = 53
    seed: int = 0
    trials: int = 100
    output_format: str = "human"

    def __post_init__(self):
        require_precision(self.precision_bits)
        if self.trials < 1:
            raise BadParameter(f"trials must be >= 1, got {self.trials}")


def _default_precision() -> int:
    raw = os.environ.get(ENV_PRECISION)
    if raw is None:
        return 53
    try:
        bits = int(raw)
    except ValueError as exc:
        raise BadParameter(f"{ENV_PRECISION} must be an integer, got {raw!r}") from exc
    return require_precision(bits)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscmean",
        description="Generalized logarithmic means from osculating hyperplanes, "
        "with exact and numeric verification of the identities behind them.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--precision", type=int, default=None, metavar="BITS",
                       help="significand bits (>= 53); default from "
                            f"{ENV_PRECISION} or 53")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="emit JSON")
        fmt.add_argument("--csv", action="store_true", help="emit CSV rows")

    p_mean = sub.add_parser("mean", help="compute the means for given values")
    p_mean.add_argument("--values", required=True, metavar="V1,V2,...",
                        help="comma-separated positive decimal values")
    p_mean.add_argument("--k", type=int, default=1, help="mean index (default 1)")
    add_common(p_mean)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--max-n", type=int, default=5, dest="max_n",
                          help="largest dimension for n-indexed families (2..7)")
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    add_common(p_verify)

    p_ident = sub.add_parser("identities", help="run the identity checkers only")
    p_ident.add_argument("--max-n", type=int, default=5, dest="max_n",
                         help="largest dimension for n-indexed families (2..7)")
    p_ident.add_argument("--trials", type=int, default=100)
    p_ident.add_argument("--seed", type=int, default=0)
    add_common(p_ident)

    p_conj = sub.add_parser("conjecture", help="n-th mean vs identric mean experiment")
    p_conj.add_argument("--n", type=int, default=3)
    p_conj.add_argument("--trials", type=int, default=100)
    p_conj.add_argument("--seed", type=int, default=0)
    add_common(p_conj)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    precision = args.precision if args.precision is not None else _default_precision()
    values = None
    if getattr(args, "values", None) is not None:
        values = tuple(piece.strip() for piece in args.values.split(",") if piece.strip())
    return RunConfig(
        subcommand=args.subcommand,
        values=values,
        k=getattr(args, "k", None),
        max_n=getattr(args, "max_n", None),
        n=getattr(args, "n", None),
        precision_bits=require_precision(precision),
        seed=getattr(args, "seed", 0),
        trials=getattr(args, "trials", 100),
        output_format="json" if args.json else ("csv" if args.csv else "human"),
    )


def _check_max_n(config: RunConfig) -> int:
    if config.max_n is None or config.max_n < 2:
        raise BadParameter(f"n must be >= 2, got --max-n {config.max_n}")
    if config.max_n > 7:
        raise BadParameter(
            f"symbolic checks are bounded at n = 7, got --max-n {config.max_n}"
        )
    return config.max_n


def _report_dict(report: IdentityReport) -> dict:
    return {
        "identity": report.name,
        "n": report.n,
        "exact": report.exact,
        "max_rel_error": report.max_rel_error,
        "instances": report.instances_checked,
        "warnings": list(report.warnings),
    }


def _emit_reports(reports: List[IdentityReport], fmt: str, out) -> None:
    rows = sorted(reports, key=lambda r: (r.name, r.n if r.n is not None else -1))
    if fmt == "json":
        print(json.dumps([_report_dict(r) for r in rows], indent=2), file=out)
        return
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow([
                r.name,
                "" if r.n is None else r.n,
                "true" if r.exact else "false",
                "" if r.max_rel_error is None else repr(r.max_rel_error),
                r.instances_checked,
                ";".join(r.warnings),
            ])
        out.write(buffer.getvalue())
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
        warn = f"  [{'; '.join(r.warnings)}]" if r.warnings else ""
        print(f"{status:6} {r.name:<{width}} n={n_part:<3} {detail}  "
              f"instances={r.instances_checked}{warn}", file=out)


def _fail_reports(reports: List[IdentityReport], config: RunConfig) -> int:
    failures = [r for r in reports if not r.passed]
    if not failures:
        return EXIT_OK
    failed = ", ".join(f"{r.name} (n={r.n})" for r in failures)
    print(
        f"verification failed: {failed} -- reproduce with "
        f"seed={config.seed} trials={config.trials} precision={config.precision_bits}",
        file=sys.stderr,
    )
    return EXIT_FAIL


def cmd_mean(config: RunConfig) -> int:
    request = MeanRequest(
        values=config.values or (),
        k=config.k if config.k is not None else 1,
        precision_bits=config.precision_bits,
    )
    outcome = evaluate_request(request)
    if config.output_format == "json":
        payload = dict(outcome)
        payload["values"] = [float(v) for v in payload["values"]]
        payload["point"] = [float(v) for v in payload["point"]]
        for key in ("m1", "neuman_ln", "rel_gap", "mk",
                    "residual_norm", "condition_estimate"):
            payload[key] = float(payload[key])
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    if config.output_format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["field", "value"])
        writer.writerow(["n", outcome["n"]])
        writer.writerow(["k", outcome["k"]])
        writer.writerow(["precision_bits", outcome["precision_bits"]])
        for i, coordinate in enumerate(outcome["point"], start=1):
            writer.writerow([f"i_{i}", repr(float(coordinate))])
        writer.writerow(["m1", repr(float(outcome["m1"]))])
        writer.writerow(["neuman_ln", repr(float(outcome["neuman_ln"]))])
        writer.writerow(["rel_gap", repr(float(outcome["rel_gap"]))])
        writer.writerow(["mk", repr(float(outcome["mk"]))])
        writer.writerow(["warnings", ";".join(outcome["warnings"])])
        sys.stdout.write(buffer.getvalue())
        return EXIT_OK
    print(f"n = {outcome['n']}, precision = {outcome['precision_bits']} bits"
          + (f" (escalated to {outcome['effective_precision_bits']})"
             if outcome["effective_precision_bits"] != outcome["precision_bits"] else ""))
    for i, coordinate in enumerate(outcome["point"], start=1):
        print(f"  i_{i} = {float(coordinate)!r}")
    print(f"M_1                    = {float(outcome['m1'])!r}")
    print(f"logarithmic mean L_N   = {float(outcome['neuman_ln'])!r}")
    print(f"relative gap           = {float(outcome['rel_gap']):.3e}")
    if outcome["k"] != 1:
        print(f"M_{outcome['k']} = {float(outcome['mk'])!r}")
    for warning in outcome["warnings"]:
        print(f"warning: {warning}")
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    max_n = _check_max_n(config)
    reports = run_exact_suite(max_n, trials=min(config.trials, 50), seed=config.seed)
    reports += run_numeric_suite(max_n, trials=config.trials, seed=config.seed,
                                 precision_bits=config.precision_bits)
    _emit_reports(reports, config.output_format, sys.stdout)
    return _fail_reports(reports, config)


def cmd_identities(config: RunConfig) -> int:
    max_n = _check_max_n(config)
    reports = run_identity_suite(max_n, trials=config.trials, seed=config.seed,
                                 precision_bits=config.precision_bits)
    _emit_reports(reports, config.output_format, sys.stdout)
    return _fail_reports(reports, config)


def cmd_conjecture(config: RunConfig) -> int:
    report = conjecture_scan(config.n, config.trials, config.seed,
                             config.precision_bits)
    _emit_reports([report], config.output_format, sys.stdout)
    return _fail_reports([report], config)


_COMMANDS = {
    "mean": cmd_mean,
    "verify": cmd_verify,
    "identities": cmd_identities,
    "conjecture": cmd_conjecture,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else int(exc.code or 0)
    try:
        config = _config_from_args(args)
        return _COMMANDS[config.subcommand](config)
    except OscmeanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
