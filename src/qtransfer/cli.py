"""Command-line interface: argument parsing and output formatting only.

Each handler takes the parsed argparse namespace, calls one library
function and formats its result; the oracle suite behind `validate` lives
in `qtransfer.validation`.

Subcommands:
  single     fidelity of one teleportation through a noisy pair
  strategy   evaluate one transfer strategy at (n, lambda0)
  sweep      fidelity tables over a lambda0 grid (CSV or JSON)
  crossings  break-even channel qualities versus the estimation baseline
  validate   run the oracle cross-check suite, machine-readable summary

All configuration is taken from flags (no environment variables or config
files), so a run is fully reproducible from its command line. Exit codes:
0 success, 1 validation failure, 2 input error (including an arithmetic
failure such as an overflow, or running out of memory), 3 I/O error,
4 ambiguous root bracketing.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import channel, compare, entpur, estimate, qubitpur
from .compare import AmbiguousCrossingError
from .validation import DEFAULT_MC_SAMPLES, run_validation_checks

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_AMBIGUOUS = 4


def _fmt(value: float, precision: int) -> str:
    return format(float(value), f".{precision}g")


def _rounded(value: float, precision: int) -> float:
    return float(_fmt(value, precision))


def _emit(text: str, args: argparse.Namespace) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_table(header: list[str], rows: list[list], args: argparse.Namespace) -> None:
    """Write rows of ints, floats, strings, or None as CSV or JSON.

    Floats are rendered at the configured precision either way; None
    becomes an empty CSV field and a JSON null.
    """
    if args.format == "json":
        payload = [{key: _rounded(value, args.precision) if isinstance(value, float) else value
                    for key, value in zip(header, row)} for row in rows]
        _emit(json.dumps(payload, indent=2) + "\n", args)
        return
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for value in row:
            if value is None:
                cells.append("")
            elif isinstance(value, float):
                cells.append(_fmt(value, args.precision))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    _emit("\n".join(lines) + "\n", args)


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"{flag} expects an integer or a comma-separated list of integers")
    if not values:
        raise ValueError(f"{flag} expects at least one integer")
    return values


def cmd_single(args: argparse.Namespace) -> int:
    value = channel.single_shot_fidelity(args.lambda0)
    _emit(_fmt(value, args.precision) + "\n", args)
    return EXIT_OK


# The flags each strategy method never reads, by their argparse dest. --seed
# is not among them: its default of 0 cannot be told from an explicit 0.
_UNREAD_FLAGS = {"est": ("lambda0", "mc_samples", "distribution"),
                 "qubit": ("mc_samples",), "ent": ("distribution",)}


def cmd_strategy(args: argparse.Namespace) -> int:
    for dest in _UNREAD_FLAGS[args.method]:
        value = getattr(args, dest)
        if value is not None and value is not False:  # 0 and 0.0 are given values
            raise ValueError(f"--{dest.replace('_', '-')} does not apply to strategy {args.method}")
    if args.n < 1:
        raise ValueError("--n must be a positive integer")
    precision = args.precision
    report: dict = {"method": args.method, "n": args.n, "lambda0": None, "fidelity": None}
    if args.method == "est":
        report["fidelity"] = _rounded(estimate.estimation_fidelity(args.n), precision)
    else:
        if args.lambda0 is None:
            raise ValueError("--lambda0 is required for this method")
        report["lambda0"] = _rounded(args.lambda0, precision)
        if args.method == "ent":
            if args.mc_samples is not None:
                result = entpur.mc_simulate(args.n, args.lambda0, args.mc_samples, args.seed)
                report["fidelity"] = _rounded(result.expected_fidelity, precision)
                report["mc_estimate"] = _rounded(result.mc_estimate, precision)
                report["mc_stderr"] = _rounded(result.mc_stderr, precision)
                report["samples"] = result.samples
                report["seed"] = args.seed
            else:
                result = entpur.expected_fidelity_dp(args.n, args.lambda0)
                report["fidelity"] = _rounded(result.expected_fidelity, precision)
        else:
            result = qubitpur.average_fidelity(args.n, args.lambda0)
            report["fidelity"] = _rounded(result.expected_fidelity, precision)
            if args.distribution:
                report["distribution"] = {str(m): _rounded(p, precision)
                                          for m, p in result.distribution.probs.items()}
    _emit(json.dumps(report, indent=2) + "\n", args)
    return EXIT_OK


def _lambda_grid(points: int) -> list[float]:
    return [float(x) for x in np.linspace(0.25, 1.0, points + 2)[1:-1]]


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.grid < 2:
        raise ValueError("--grid must be at least 2")
    n_values = _parse_int_list(args.n, "--n")
    raw = args.methods.strip()
    methods = compare.METHOD_NAMES if raw == "all" else tuple(m.strip() for m in raw.split(","))
    rows = compare.sweep(methods, n_values, _lambda_grid(args.grid))
    table = [[row.method, row.n, row.lambda0, row.fidelity] for row in rows]
    _emit_table(["method", "N", "lambda0", "fidelity"], table, args)
    return EXIT_OK


def cmd_crossings(args: argparse.Namespace) -> int:
    if args.n_max < 1:
        raise ValueError("--n-max must be a positive integer")
    table = []
    for n in range(1, args.n_max + 1):
        result = compare.crossing_points(n)
        table.append([n, result.lambda_1, result.lambda_2])
    _emit_table(["N", "lambda1", "lambda2"], table, args)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    if args.mc_samples < 1:
        raise ValueError("--mc-samples must be a positive integer")
    checks = run_validation_checks(seed=args.seed, mc_samples=args.mc_samples)
    passed = all(c["passed"] for c in checks)
    summary = {"passed": passed, "seed": args.seed, "mc_samples": args.mc_samples,
               "failed": [c["name"] for c in checks if not c["passed"]], "checks": checks}
    _emit(json.dumps(summary, indent=2) + "\n", args)
    return EXIT_OK if passed else EXIT_VALIDATION


_HANDLERS = {
    "single": cmd_single,
    "strategy": cmd_strategy,
    "sweep": cmd_sweep,
    "crossings": cmd_crossings,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=int, default=12,
                        help="significant digits for printed numbers (6..17)")
    common.add_argument("--format", choices=("csv", "json"), default="csv", dest="format",
                        help="table output format")
    common.add_argument("-o", "--output", default=None, dest="output",
                        help="write the report to this file instead of standard output")
    common.add_argument("--seed", type=int, default=0, help="seed for every random draw")

    parser = argparse.ArgumentParser(prog="qtransfer",
                                     description="Qubit transfer strategies over a noisy "
                                                 "entanglement channel.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_single = sub.add_parser("single", parents=[common], help="single-run teleportation fidelity")
    p_single.add_argument("--lambda0", type=float, required=True)

    p_strategy = sub.add_parser("strategy", parents=[common], help="evaluate one strategy")
    p_strategy.add_argument("method", choices=("ent", "qubit", "est"))
    p_strategy.add_argument("--n", type=int, required=True)
    p_strategy.add_argument("--lambda0", type=float, default=None)
    p_strategy.add_argument("--mc-samples", type=int, default=None, dest="mc_samples",
                            help="also run a Monte Carlo cross-check (ent only)")
    p_strategy.add_argument("--distribution", action="store_true",
                            help="include the block-size distribution (qubit only)")

    p_sweep = sub.add_parser("sweep", parents=[common], help="fidelity table over a lambda0 grid")
    p_sweep.add_argument("--methods", default="all",
                         help="'all' or a comma-separated subset of "
                              "ent_pur,qubit_pur,estimation")
    p_sweep.add_argument("--n", required=True,
                         help="one integer or a comma-separated list")
    p_sweep.add_argument("--grid", type=int, default=50, dest="grid",
                         help="number of lambda0 points strictly inside (1/4, 1)")

    p_cross = sub.add_parser("crossings", parents=[common],
                             help="break-even points versus estimation")
    p_cross.add_argument("--n-max", type=int, required=True, dest="n_max")

    p_validate = sub.add_parser("validate", parents=[common],
                                help="run the oracle cross-check suite")
    p_validate.add_argument("--mc-samples", type=int, default=DEFAULT_MC_SAMPLES,
                            dest="mc_samples")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        if not 6 <= args.precision <= 17:
            raise ValueError("--precision must lie in 6..17")
        return _HANDLERS[args.command](args)
    except AmbiguousCrossingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_AMBIGUOUS
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    raise SystemExit(main())
