#!/usr/bin/env python3
"""Benchmark of dpexperts: Monte Carlo sweeps and the verification suites.

    python3 bench/run.py --workload sweep-stochastic --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ./src. Workloads:

  sweep-stochastic     harness.sweep over stochastic cells at T = 2^20 - 1
  sweep-deterministic  harness.sweep over point-mass cells at T = 2^30 - 1
  verify-all           the suites of `dpexperts verify all`, at their own seeds

A run repeats whole rounds of the workload's operations (one sweep cell, or one
suite) until --seconds have passed, checks every output, and prints one JSON
object as its last line. With --trace 0 it reports the end-to-end metrics;
with --trace 1 it runs each round twice, untraced and traced, and reports
per-layer metrics and the tracing overhead. Spans and results are written to
bench/out/. See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
SIGMAS = 4.0  # Monte Carlo estimates must lie this many stderr from a reference
ORACLE_TOL = 1e-9

T20 = (1 << 20) - 1
T30 = (1 << 30) - 1
GRADED_64 = "bern:" + ",".join(f"{0.2 + 0.6 * j / 63:.6f}" for j in range(64))
PAPER_ACTIONS = (("point", 0.3), ("two-atom", 0.4, 0.0, 0.8))

# (label, instance spec, B, noise, epsilon, trials, reference)
# reference: ("two-action", action models) or ("det", means builder and its
# arguments), both described apart from the program's instance builders;
# None means the cell is checked against bounds only.
CELLS = {
    "sweep-stochastic": [
        ("bern-graded:K=64", GRADED_64, 1, "laplace", 1.0, 5_000, None),
        ("bern-graded:K=64", GRADED_64, 1, "exponential", 1.0, 5_000, None),
        ("bern-graded:K=64", GRADED_64, 1, "gumbel", 1.0, 5_000, None),
        ("paper-example", "paper-example", 0, "laplace", 1.0, 100_000, ("two-action", PAPER_ACTIONS)),
        ("paper-example", "paper-example", 1, "none", 0.0, 100_000, ("two-action", PAPER_ACTIONS)),
        ("bern:0.4,0.5", "bern:0.4,0.5", 1, "gumbel", 1.0, 100_000,
         ("two-action", (("bernoulli", 0.4), ("bernoulli", 0.5)))),
    ],
    "sweep-deterministic": [
        ("grid:K=4096", "grid:K=4096", 0, "gumbel", 1.0, 400, ("det", ("grid", 4096))),
        ("grid:K=1024", "grid:K=1024", 0, "laplace", 1.0, 500, ("det", ("grid", 1024))),
        ("grid:K=256", "grid:K=256", 0, "exponential", 1.0, 1_000, ("det", ("grid", 256))),
        ("lower-bound:K=16,delta=0.1,l=3", "lower-bound:K=16,delta=0.1,l=3", 0, "laplace", 0.5,
         10_000, ("det", ("lower-bound", 16, 0.1, 3))),
        ("worst-np:K=8,delta=0.25", "worst-np:K=8,delta=0.25", 0, "gumbel", 2.0, 20_000,
         ("det", ("worst-np", 8, 0.25))),
        ("grid:K=64", "grid:K=64", 0, "none", 0.0, 2_500, ("det", ("grid", 64))),
    ],
}
HORIZON = {"sweep-stochastic": T20, "sweep-deterministic": T30}
WORKLOADS = ("sweep-stochastic", "sweep-deterministic", "verify-all")


class BenchError(Exception):
    """The checkout cannot be benchmarked (no package source, wrong import)."""


def import_package():
    """Import dpexperts from this checkout's src/, never from anywhere else."""
    if not (SRC / "dpexperts" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'dpexperts'}")
    sys.path.insert(0, str(SRC))
    import dpexperts
    from dpexperts import analysis, core, engine, harness, instances, mechanism, noise, verify

    if Path(dpexperts.__file__).resolve().parent != SRC / "dpexperts":
        raise BenchError(f"dpexperts imported from {dpexperts.__file__}, not {SRC}")
    return {m.__name__.split(".")[-1]: m for m in
            (analysis, core, engine, harness, instances, mechanism, noise, verify)}


def build_inputs(workload: str, pkg: dict) -> list:
    """The program's inputs: parsed instances and mechanism specs, or suite names."""
    if workload == "verify-all":
        return list(pkg["verify"].SUITES)
    core, instances = pkg["core"], pkg["instances"]
    built = []
    for label, spec, b, noise, eps, trials, ref in CELLS[workload]:
        instance = instances.parse_instance_spec(spec)
        mech = core.MechanismSpec(resample=b, noise=core.NoiseKind(noise), epsilon=eps)
        built.append((label, instance, mech, trials, ref))
    return built


def cell_seed(seed: int, round_index: int, cell_index: int) -> int:
    import numpy as np

    state = np.random.SeedSequence([seed, round_index, cell_index]).generate_state(1, np.uint64)
    return int(state[0])


def setup_probe(workload: str) -> float:
    """Seconds to import the package and build the workload's inputs, in this
    process; called in a fresh interpreter so that nothing is cached."""
    start = time.perf_counter()
    pkg = import_package()
    build_inputs(workload, pkg)
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# --- references -----------------------------------------------------------

def sweep_references(workload: str, inputs: list) -> dict:
    """Exact expected regret per cell index, from bench/refs.py (not the program)."""
    import refs

    builders = {"grid": refs.grid_means, "lower-bound": refs.lower_bound_means,
                "worst-np": refs.worst_np_means}
    out = {}
    horizon = HORIZON[workload]
    for i, (label, instance, mech, trials, ref) in enumerate(inputs):
        if ref is None:
            continue
        noise, eps = mech.noise.value, mech.epsilon
        beta = 2.0 / eps if noise != "none" else 0.0
        if ref[0] == "two-action":
            out[i] = refs.two_action_regret(ref[1], mech.resample, noise, beta, horizon)
        else:
            means = builders[ref[1][0]](*ref[1][1:])
            out[i] = refs.det_regret(means, noise, beta, horizon)
    return out


# --- operations -----------------------------------------------------------

class Capture:
    """Records what the suites of verify-all pass to and get back from two
    program functions: every Monte Carlo estimate with its time, for
    mc_s_to_1pct, and every two-action oracle pmf, for the closed-form check."""

    def __init__(self, verify) -> None:
        self.estimates = []
        self.oracle_pairs = []
        self._verify = verify
        self._saved = (verify.estimate_pseudoregret, verify.rnm_pmf_oracle)
        estimate, oracle = self._saved

        def timed_estimate(*args, **kwargs):
            start = time.perf_counter()
            est = estimate(*args, **kwargs)
            self.estimates.append((time.perf_counter() - start, est.mean, est.stderr))
            return est

        def recorded_oracle(scores, spec):
            pmf = oracle(scores, spec)
            if len(scores) == 2:
                self.oracle_pairs.append((tuple(float(s) for s in scores), spec.noise.value,
                                          spec.epsilon, tuple(float(p) for p in pmf)))
            return pmf

        verify.estimate_pseudoregret = timed_estimate
        verify.rnm_pmf_oracle = recorded_oracle

    def close(self) -> None:
        self._verify.estimate_pseudoregret, self._verify.rnm_pmf_oracle = self._saved


def mc_seconds_to_1pct(estimates) -> float:
    """Sum over (seconds, mean, stderr) of seconds x (stderr / (1% of mean))^2."""
    return math.fsum(t * (se / (0.01 * mean)) ** 2 for t, mean, se in estimates)


def run_round(workload: str, seed: int, round_index: int, inputs: list, pkg: dict,
              call, capture) -> list:
    """One pass over the workload's operations. call(name, fn, *args) runs one
    operation. Returns one record per operation:
    (index, seconds, result, error, Monte Carlo seconds to 1%)."""
    records = []
    for i, item in enumerate(inputs):
        if workload == "verify-all":
            name, fn, args = f"verify.{item}", pkg["verify"].run_suites, ([item],)
        else:
            label, instance, mech, trials, _ = item
            name = f"cell.{label}.{mech.noise.value}"
            fn = pkg["harness"].sweep
            args = ([(label, instance)], [mech], [HORIZON[workload]], trials,
                    cell_seed(seed, round_index, i))
        seen = len(capture.estimates) if capture else 0
        start = time.perf_counter()
        try:
            result, error = call(name, fn, *args)[0], None
        except Exception as exc:  # an operation that raises counts as failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if capture:
            mc = mc_seconds_to_1pct(capture.estimates[seen:])
        elif error is None:
            mc = mc_seconds_to_1pct([(seconds, result.estimate.mean, result.estimate.stderr)])
        else:
            mc = 0.0
        records.append((i, seconds, result, error, mc))
    return records


def sum_of_op_medians(rounds: list, field: int) -> float:
    """Sum over operations of the operation's median over rounds: the cost of
    one round, robust to a slow spell during some of the rounds."""
    return math.fsum(statistics.median(r[i][field] for r in rounds)
                     for i in range(len(rounds[0])))


# --- checks -----------------------------------------------------------------

def op_failed(workload: str, record) -> bool:
    _, _, result, error, _ = record
    return error is not None or (workload == "verify-all" and not result.passed)


def check_sweep(workload: str, inputs: list, rounds: list, references: dict) -> list:
    """Problems in sweep outputs: bounds for every cell, and agreement of the
    pooled estimate with the exact reference where there is one."""
    import refs

    problems = []
    for i, (label, instance, mech, trials, ref) in enumerate(inputs):
        ests = [r[i][2].estimate for r in rounds if r[i][3] is None]
        if not ests:
            continue
        bound = refs.regret_upper_bound(instance.gaps, HORIZON[workload])
        for est in ests:
            if not (0.0 <= est.mean <= bound and math.isfinite(est.stderr) and est.stderr >= 0.0):
                problems.append(f"{label} {mech.noise.value}: mean {est.mean} se {est.stderr} "
                                f"outside [0, {bound}]")
        if i in references:
            mean = statistics.fmean(e.mean for e in ests)
            se = math.sqrt(math.fsum(e.stderr ** 2 for e in ests)) / len(ests)
            if not abs(mean - references[i]) <= SIGMAS * se:
                problems.append(f"{label} {mech.noise.value}: {mean:.6f} +/- {se:.6f} vs exact "
                                f"{references[i]:.6f}")
    return problems


def check_oracle_pairs(pairs: list) -> list:
    """Two-action oracle pmfs against the closed forms of bench/refs.py."""
    import refs

    if not pairs:
        return ["no two-action oracle pmf was seen"]
    problems = []
    for scores, noise, eps, pmf in pairs:
        p1 = float(refs.two_action_pick(noise, scores[1] - scores[0], 2.0 / eps))
        if abs(pmf[1] - p1) > ORACLE_TOL or abs(pmf[0] - (1.0 - p1)) > ORACLE_TOL:
            problems.append(f"oracle {noise} eps={eps} scores={scores}: {pmf} vs p1={p1!r}")
    return problems


# --- tracing ----------------------------------------------------------------

def layer_metrics(tracer, rounds: int) -> dict:
    """Per-layer figures per round of the traced pass. A layer the workload
    never reaches reads 0."""
    n = float(rounds)
    m = {}
    for name in ("engine.sample_scores", "engine.run_batch", "noise.ppf", "noise.uniform",
                 "mechanism.select_batch", "mechanism.rnm_pmf_oracle", "mechanism.gumbel_pmf",
                 "analysis.exact_det_gumbel_regret", "analysis.softmax_f", "analysis.binomial",
                 "harness.estimate_pseudoregret", "harness.selection_frequency"):
        m[f"{name}.self_s"] = (tracer.self_s[name] / n, "s")
    for name in ("mechanism.rnm_pmf_oracle", "mechanism.gumbel_pmf", "analysis.softmax_f",
                 "harness.estimate_pseudoregret", "harness.selection_frequency"):
        m[f"{name}.calls"] = (tracer.calls[name] / n, "count")
    for name, item in (("engine.sample_scores", "scores"), ("noise.ppf", "values"),
                       ("noise.uniform", "values"), ("mechanism.select_batch", "rows")):
        busy = tracer.self_s[name]
        m[f"{name}.{item}"] = (tracer.work[name] / n, "count")
        m[f"{name}.{item}_per_s"] = (tracer.work[name] / busy if busy > 0.0 else 0.0, "1/s")
    for name in ("engine.sample_scores", "mechanism.select_batch"):
        m[f"{name}.peak_alloc_mb"] = (tracer.peak_bytes[name] / 2**20, "MB")
        m[f"{name}.peak_per_matrix"] = (tracer.peak_ratio[name], "ratio")
    pdf_cdf = ("noise.pdf", "noise.cdf")
    m["noise.pdf_cdf.calls"] = (sum(tracer.calls[k] for k in pdf_cdf) / n, "count")
    m["noise.pdf_cdf.self_s"] = (sum(tracer.self_s[k] for k in pdf_cdf) / n, "s")
    m["mechanism.rnm_pmf_oracle.integrand_evals"] = (
        tracer.leaf_calls[("noise.pdf", "mechanism.rnm_pmf_oracle")] / n, "count")
    return m


# The suites of `dpexperts verify all` when this benchmark was defined; each
# has a per-layer metric on every workload.
SUITE_NAMES = (
    "exact-vs-mc", "shape-K", "shape-eps", "t-independence", "monotonicity", "binomial",
    "softmax-derivative", "softmax-series", "privacy-gumbel", "privacy-laplace",
    "privacy-exponential", "tails", "resampling", "laplace-shape", "noise-ks",
)


def instrument(tracer, pkg: dict) -> None:
    """Wrap the program's functions at the module attributes their callers use."""
    import numpy as np

    engine, harness, mechanism = pkg["engine"], pkg["harness"], pkg["mechanism"]
    analysis, verify, noise = pkg["analysis"], pkg["verify"], pkg["noise"]
    size_of_result = lambda args, res: np.size(res)  # noqa: E731
    def score_matrix(args):  # sample_scores(instance, resample, length, trials, rng)
        instance, resample, _, trials, _ = args
        return (instance.k, resample, trials), trials * instance.k * 8

    def selection_matrix(args):  # select_batch(scores, spec, rng)
        scores, spec, _ = args
        return (np.shape(scores), spec.noise), np.asarray(scores).nbytes

    for owner in (engine, harness):
        tracer.wrap(owner, "sample_scores", "engine.sample_scores", work=size_of_result,
                    peak_matrix=score_matrix)
        tracer.wrap(owner, "select_batch", "mechanism.select_batch", work=size_of_result,
                    peak_matrix=selection_matrix)
    tracer.wrap(harness, "run_batch", "engine.run_batch")
    for owner in (mechanism, verify):
        tracer.wrap(owner, "noise_ppf", "noise.ppf", work=lambda args, res: np.size(args[1]))
    tracer.wrap(noise.RngStream, "uniform", "noise.uniform", work=size_of_result)
    tracer.wrap(mechanism, "noise_pdf", "noise.pdf", leaf=True)
    for owner in (mechanism, verify):
        tracer.wrap(owner, "noise_cdf", "noise.cdf", leaf=True)
    tracer.wrap(verify, "rnm_pmf_oracle", "mechanism.rnm_pmf_oracle")
    tracer.wrap(analysis, "log_gumbel_selection_pmf", "mechanism.gumbel_pmf", leaf=True)
    tracer.wrap(verify, "exact_det_gumbel_regret", "analysis.exact_det_gumbel_regret")
    tracer.wrap(analysis, "softmax_f", "analysis.softmax_f", leaf=True)
    tracer.wrap(verify, "binomial_cdf", "analysis.binomial")
    for owner in (harness, verify):
        tracer.wrap(owner, "estimate_pseudoregret", "harness.estimate_pseudoregret")
    tracer.wrap(verify, "selection_frequency", "harness.selection_frequency")


# --- driver ---------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    pkg = import_package()
    setup_s = None if trace else measure_setup(workload, seed)
    inputs = build_inputs(workload, pkg)
    references = {} if workload == "verify-all" else sweep_references(workload, inputs)

    capture = Capture(pkg["verify"]) if workload == "verify-all" else None
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    plain, traced = [], []
    try:
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < seconds:
            r = len(plain)
            # A traced run repeats each round with the same seeds, traced, and
            # alternates which goes first so that drift in machine speed
            # falls on both sides of the overhead.
            order = ("plain", "traced") if r % 2 == 0 else ("traced", "plain")
            for kind in order if trace else ("plain",):
                if kind == "plain":
                    plain.append(run_round(workload, seed, r, inputs, pkg,
                                           lambda name, fn, *args: fn(*args), capture))
                else:
                    instrument(tracer, pkg)
                    try:
                        traced.append(run_round(workload, seed, r, inputs, pkg, tracer.run,
                                                capture))
                    finally:
                        tracer.unwrap()
    finally:
        if capture:
            capture.close()

    records = [rec for rnd in plain + traced for rec in rnd]
    problems = [f"op {rec[0]}: {rec[3]}" for rec in records if rec[3] is not None]
    if workload == "verify-all":
        problems += [f"suite {rec[2].name} FAIL: {rec[2].detail}" for rec in records
                     if rec[3] is None and not rec[2].passed]
        problems += check_oracle_pairs(capture.oracle_pairs)
    else:
        for rounds in (plain, traced):
            if rounds:
                problems += check_sweep(workload, inputs, rounds, references)

    run_s = sum_of_op_medians(plain, 1)
    if trace:
        metrics = layer_metrics(tracer, len(traced))
        for name in SUITE_NAMES:
            secs = [rec[1] for rnd in traced for rec in rnd
                    if workload == "verify-all" and inputs[rec[0]] == name]
            metrics[f"verify.{name}.s"] = (statistics.median(secs) if secs else 0.0, "s")
        traced_s = sum_of_op_medians(traced, 1)
        metrics["trace.run_s"] = (traced_s, "s")
        metrics["trace.untraced_run_s"] = (run_s, "s")
        metrics["trace.overhead_s"] = (traced_s - run_s, "s")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (run_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "mc_s_to_1pct": (sum_of_op_medians(plain, 4), "s"),
        }
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(op_failed(workload, rec) for rec in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    OUT.mkdir(exist_ok=True)
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "rounds": len(plain),
        "op_seconds": [[rec[1] for rec in rnd] for rnd in plain],
        "traced_op_seconds": [[rec[1] for rec in rnd] for rnd in traced],
        "references": references,
        "oracle_pairs_checked": len(capture.oracle_pairs) if capture else 0,
        "problems": problems, "result": result,
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    if trace:
        tracer.dump(str(OUT / f"trace-{tag}.json"),
                    {"workload": workload, "seed": seed, "rounds": len(traced)})
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # The program's default: sweep cells run on one thread.
    os.environ.pop("DPEXPERTS_THREADS", None)
    try:
        if args.setup_probe:
            print(repr(setup_probe(args.workload)))
            return 0
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
