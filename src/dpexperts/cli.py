"""Command-line front end: run sweeps to CSV, print exact regret tables, run
verification suites, and plot regret curves to SVG.

Exit codes: 0 success, 1 failed verification, 2 argument/parse error, 3 runtime error.
"""
from __future__ import annotations

import argparse
import csv
import sys
from typing import List, Optional

from .analysis import exact_det_gumbel_regret_epochs
from .core import MechanismSpec, NoiseKind
from .harness import default_workers, sweep, write_csv
from .instances import InstanceSpecError, parse_instance_spec, uniform_grid_instance
from .svg import line_chart
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


class _UsageError(Exception):
    pass


def _floats(text: str, option: str) -> List[float]:
    try:
        vals = [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise _UsageError(f"{option}: bad numeric list {text!r}") from exc
    if not vals:
        raise _UsageError(f"{option}: empty numeric list {text!r}")
    return vals


def _ints(text: str, option: str) -> List[int]:
    vals = _floats(text, option)
    bad = [v for v in vals if not v.is_integer()]
    if bad:
        raise _UsageError(f"{option}: {bad[0]:g} is not an integer")
    return [int(v) for v in vals]


def cmd_run(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise _UsageError("--trials must be >= 1")
    try:
        instances = [(spec, parse_instance_spec(spec)) for spec in args.instance]
    except InstanceSpecError as exc:
        raise _UsageError(str(exc)) from exc
    noise = NoiseKind(args.noise)
    if noise is NoiseKind.NONE:
        specs = [MechanismSpec(resample=args.B, noise=noise)]
    else:
        specs = [MechanismSpec(resample=args.B, noise=noise, epsilon=eps)
                 for eps in _floats(args.eps, "--eps")]
    horizons = _ints(args.T, "--T")
    if any(t < 1 for t in horizons):
        raise _UsageError("every horizon must be >= 1")
    try:
        workers = default_workers()
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    cells = sweep(instances, specs, horizons, args.trials, args.seed, max_workers=workers)
    if args.out:
        write_csv(cells, args.out)
    else:
        from .harness import cells_to_csv
        sys.stdout.write(cells_to_csv(cells))
    return EXIT_OK


def cmd_exact(args: argparse.Namespace) -> int:
    if args.means is not None:
        means = _floats(args.means, "--means")
    elif args.K is not None:
        if args.K < 2:
            raise _UsageError("--K must be >= 2")
        means = list(uniform_grid_instance(args.K).means)
    else:
        raise _UsageError("provide --means or --K")
    if args.eps <= 0:
        raise _UsageError("--eps must be positive")
    if args.R < 1:
        raise _UsageError("--R must be >= 1")
    contributions = exact_det_gumbel_regret_epochs(means, args.eps, args.R)
    total = 0.0
    print(f"{'epoch':>6} {'contribution':>16} {'cumulative':>16}")
    for r, c in enumerate(contributions, start=1):
        total += c
        print(f"{r:>6} {c:>16.10f} {total:>16.10f}")
    print(f"exact pseudoregret (R={args.R}, eps={args.eps:g}): {total:.10f}")
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
    series: dict = {}
    try:
        for row in rows:
            key_bits = [f"{c}={row[c]}" for c in ("instance", "B", "noise", "epsilon", "T")
                        if c != axis_col]
            key = " ".join(key_bits)
            series.setdefault(key, []).append(
                (float(row[axis_col]), float(row["regret_mean"])))
    except (KeyError, ValueError) as exc:
        raise _UsageError(f"malformed CSV {args.csv}: {exc}") from exc
    doc = line_chart(series, x_label=args.x)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(doc)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpexperts",
        description="Private online learning with expert advice: simulation and verification lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a sweep and emit CSV")
    p_run.add_argument("--instance", action="append", required=True,
                       help='instance spec, e.g. "det:0,1" or "lower-bound:K=16,delta=0.1,l=3"')
    p_run.add_argument("--B", type=int, default=0, choices=(0, 1),
                       help="resampling bit")
    p_run.add_argument("--noise", default="gumbel",
                       choices=[k.value for k in NoiseKind])
    p_run.add_argument("--eps", default="1", help="comma list of epsilon values")
    p_run.add_argument("--T", default="63", help="comma list of horizons")
    p_run.add_argument("--trials", type=int, default=10_000)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_run.set_defaults(func=cmd_run)

    p_exact = sub.add_parser("exact", help="exact deterministic-Gumbel regret table")
    p_exact.add_argument("--means", default=None, help='comma list, e.g. "0,1"')
    p_exact.add_argument("--K", type=int, default=None, help="uniform-grid instance size")
    p_exact.add_argument("--eps", type=float, default=1.0)
    p_exact.add_argument("--R", type=int, default=40, help="number of doubling epochs")
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
