"""Command-line front end: run sweeps to CSV, print exact regret tables, run
verification suites, and plot regret curves to SVG.

Exit codes: 0 success, 1 failed verification, 2 argument/parse error or an
unwritable --out path, 3 runtime error.
"""
from __future__ import annotations

import argparse
import csv
import math
import sys
from typing import List, Optional

from .analysis import exact_regret_epochs
from .core import MechanismSpec, NoiseKind, OutOfRange
from .engine import InvalidHorizon, epoch_lengths
from .harness import cells_to_csv, sweep
from .instances import InstanceSpecError, parse_instance_spec
from .svg import line_chart
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


class _UsageError(Exception):
    pass


def _float(text: str, what: str) -> float:
    # A short CSV row gives None for a missing field, which float() rejects
    # with a TypeError.
    try:
        value = float(text)
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"{what}: bad number {text!r}") from exc
    if not math.isfinite(value):
        raise _UsageError(f"{what}: {value} is not a finite number")
    return value


def _ints(text: str, option: str) -> List[int]:
    # int() of each decimal; a float would round values from 2^53 on.
    try:
        return [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise _UsageError(f"{option}: bad integer list {text!r}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc


def _horizon(t: int) -> int:
    try:
        epoch_lengths(t)
    except InvalidHorizon as exc:
        raise _UsageError(f"--T: {exc}") from exc
    return t


def _instances(args: argparse.Namespace) -> list:
    try:
        return [(spec, parse_instance_spec(spec)) for spec in args.instance]
    except InstanceSpecError as exc:
        raise _UsageError(str(exc)) from exc


def _mechanism_specs(args: argparse.Namespace, epsilons: List[float]) -> List[MechanismSpec]:
    noise = NoiseKind(args.noise)
    if noise is NoiseKind.NONE:
        return [MechanismSpec(resample=args.B, noise=noise)]
    try:
        return [MechanismSpec(resample=args.B, noise=noise, epsilon=eps) for eps in epsilons]
    except OutOfRange as exc:
        raise _UsageError(f"--eps: {exc}") from exc


def cmd_run(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise _UsageError("--trials must be >= 1")
    instances = _instances(args)
    specs = _mechanism_specs(args, [_float(eps, "--eps") for eps in args.eps.split(",")])
    horizons = [_horizon(t) for t in _ints(args.T, "--T")]
    try:
        cells = sweep(instances, specs, horizons, args.trials, args.seed)
    except OutOfRange as exc:
        raise _UsageError(str(exc)) from exc
    if args.out:
        _write(args.out, cells_to_csv(cells))
    else:
        sys.stdout.write(cells_to_csv(cells))
    return EXIT_OK


def cmd_exact(args: argparse.Namespace) -> int:
    instances = _instances(args)
    spec = _mechanism_specs(args, [args.eps])[0]
    horizon = _horizon(args.T)
    setting = f"B={spec.resample}, T={horizon}, noise={spec.noise.value}"
    if spec.noise is not NoiseKind.NONE:
        setting += f", eps={spec.epsilon:g}"
    for label, instance in instances:
        try:
            contributions = exact_regret_epochs(instance, spec, horizon)
        except OutOfRange as exc:
            raise _UsageError(f"{label}: {exc}") from exc
        total = 0.0
        print(f"{'epoch':>6} {'contribution':>16} {'cumulative':>16}")
        for r, c in enumerate(contributions, start=1):
            total += c
            print(f"{r:>6} {c:>16.10f} {total:>16.10f}")
        print(f"exact pseudoregret ({label}, {setting}): {total:.10f}")
        print(f"final epoch contribution: {contributions[-1]:.3e}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "all":
        names = list(SUITES)
    elif args.suite in SUITES:
        names = [args.suite]
    else:
        raise _UsageError(f"unknown suite {args.suite!r}; "
                          f"choose from: all, {', '.join(SUITES)}")
    results = run_suites(names)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.detail}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


def cmd_plot(args: argparse.Namespace) -> int:
    try:
        with open(args.csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise _UsageError(f"cannot read {args.csv}: {exc}") from exc
    if not rows:
        raise _UsageError(f"no data rows in {args.csv}")
    axis_col = {"T": "T", "epsilon": "epsilon", "K": "K"}.get(args.x)
    if axis_col is None:
        raise _UsageError(f"unknown x axis {args.x!r}")
    # Each K is its own instance, so a K axis joins instances into one series.
    hidden = {axis_col, "instance"} if axis_col == "K" else {axis_col}
    series: dict = {}
    try:
        for row in rows:
            key = " ".join(f"{c}={row[c]}" for c in ("instance", "B", "noise", "epsilon", "T")
                           if c not in hidden)
            point = (_float(row[c], f"malformed CSV {args.csv}: {c}")
                     for c in (axis_col, "regret_mean"))
            series.setdefault(key, []).append(tuple(point))
    except KeyError as exc:
        raise _UsageError(f"malformed CSV {args.csv}: {exc}") from exc
    _write(args.out, line_chart(series, x_label=args.x))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpexperts",
        description="Private online learning with expert advice: simulation and verification lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_setting_arguments(p):
        p.add_argument("--instance", action="append", required=True,
                       help='instance spec, e.g. "det:0,1" or "lower-bound:K=16,delta=0.1,l=3"')
        p.add_argument("--B", type=int, default=0, choices=(0, 1), help="resampling bit")
        p.add_argument("--noise", default="gumbel", choices=[k.value for k in NoiseKind])

    p_run = sub.add_parser("run", help="run a sweep and emit CSV")
    add_setting_arguments(p_run)
    p_run.add_argument("--eps", default="1", help="comma list of epsilon values")
    p_run.add_argument("--T", default="63", help="comma list of horizons")
    p_run.add_argument("--trials", type=int, default=10_000)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_run.set_defaults(func=cmd_run)

    p_exact = sub.add_parser("exact", help="exact per-epoch regret table")
    add_setting_arguments(p_exact)
    p_exact.add_argument("--eps", type=float, default=1.0)
    p_exact.add_argument("--T", type=int, default=(1 << 40) - 1, help="horizon")
    p_exact.set_defaults(func=cmd_exact)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("suite", nargs="?", default="all")
    p_verify.set_defaults(func=cmd_verify)

    p_plot = sub.add_parser("plot", help="plot a sweep CSV to SVG")
    p_plot.add_argument("csv")
    p_plot.add_argument("--x", default="T", help="x axis: T, epsilon, or K")
    p_plot.add_argument("--out", required=True, help="SVG output path")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
