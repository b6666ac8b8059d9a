"""Named verification suites behind the CLI `verify` command.

Each suite checks one family of numeric claims (selection-probability
monotonicity, tail bounds, privacy ratios, exact-vs-simulated agreement,
scaling shapes, ...) and returns a pass/fail result with a short detail line.
Selection-probability claims read exact epoch pmfs, and `exact-vs-mc` checks
the samplers against them. The acceptance tests call these same functions.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from .analysis import (
    PARTIAL_SUM_CONSTANT,
    SoftmaxSpec,
    _binomial_cdf_numerators,
    check_derivative_bound,
    exact_regret_epochs,
    partial_sum_f,
    tail_bound,
)
from .core import MechanismSpec, NoiseKind
from .engine import _binomial_pmf, epoch_selection_pmf
from .harness import estimate_pseudoregret, selection_frequency
from .instances import (
    bernoulli_instance,
    deterministic_instance,
    paper_example_two_actions,
    uniform_grid_instance,
)
from .mechanism import rnm_pmf_oracle
from .noise import RngStream, noise_cdf, noise_ppf


@dataclass(frozen=True)
class VerifyResult:
    name: str
    passed: bool
    detail: str


def exact_det_gumbel_regret(means, epsilon: float, big_r: int) -> float:
    """Exact pseudoregret of a deterministic instance at B = 0 under Gumbel
    noise, horizon T = 2^R - 1."""
    spec = MechanismSpec(0, NoiseKind.GUMBEL, epsilon=epsilon)
    return math.fsum(exact_regret_epochs(deterministic_instance(means), spec, (1 << big_r) - 1))


def binomial_cdf(n: int, p: float) -> np.ndarray:
    """[P[X <= k] for k = 0..n], X ~ Binomial(n, p), in floats: prefix sums of
    the pmf every stochastic epoch uses, `engine._binomial_pmf`, with 0 below
    and 1 above the window it keeps. The float twin of the exact numerators
    over d^n of `_binomial_cdf_numerators`."""
    low, pmf = _binomial_pmf(n, p)
    cdf = np.ones(n + 1)
    cdf[:low] = 0.0
    cdf[low:low + pmf.size] = np.cumsum(pmf)
    return cdf


def check_exact_vs_mc() -> VerifyResult:
    """Monte Carlo pseudoregret agrees with the exact calculator within
    3 stderr on random small cells: 10 deterministic cells at B = 0, the
    noise family cycling Gumbel, Laplace, Exponential, then one Bernoulli
    cell at B = 1 per noise kind. The one suite that checks the score and
    selection samplers against the exact pmfs.

    The Monte Carlo side is built from `selection_frequency`, which gives
    every trial its own score row and selects with real noise. `run_batch`
    would draw each epoch's picks from the same pmfs the exact side sums,
    and the check would compare those pmfs with themselves. With epoch
    r + 1 of length 2^r playing the selection made after epoch r, the
    estimate is mean(gaps) + sum_{r < R} 2^r (gaps . freq_r), and its stderr
    is sqrt(sum_r 4^r var_r / trials) with var_r the variance of the picked
    gap.
    """
    seed, trials = 20240801, 100_000
    rng = np.random.default_rng(seed)
    families = (NoiseKind.GUMBEL, NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL)
    cells = ([(deterministic_instance, 0, families[i % 3]) for i in range(10)]
             + [(bernoulli_instance, 1, kind) for kind in NoiseKind])
    worst = 0.0
    failures = []
    for i, (build, resample, kind) in enumerate(cells):
        k = int(rng.integers(2, 5))
        means = np.round(rng.uniform(0.0, 1.0, size=k), 3)
        eps = float(rng.choice([0.5, 1.0, 2.0]))
        big_r = int(rng.integers(2, 7))
        spec = MechanismSpec(resample=resample, noise=kind,
                             epsilon=0.0 if kind is NoiseKind.NONE else eps)
        instance = build(means)
        exact = math.fsum(exact_regret_epochs(instance, spec, (1 << big_r) - 1))
        gaps = instance.gaps
        mean, var = float(gaps.mean()), 0.0
        for r in range(1, big_r):
            freq = selection_frequency(instance, spec, r, trials, seed + i)
            picked = float(freq @ gaps)
            mean += (1 << r) * picked
            var += (1 << r) ** 2 * (float(freq @ gaps ** 2) - picked ** 2)
        slack = 3.0 * max(math.sqrt(var / trials), 1e-12)
        gap = abs(mean - exact)
        worst = max(worst, gap / slack)
        if gap > slack:
            failures.append(f"cell {i} (B={resample}, {kind.value}): "
                            f"|{mean:.4f} - {exact:.4f}| > {slack:.4f}")
    detail = (f"{len(failures)} of {len(cells)} cells off, first {failures[0]}" if failures
              else f"{len(cells)} cells, worst |diff|/3stderr = {worst:.2f}")
    return VerifyResult("exact-vs-mc", not failures, detail)


def check_shape_k() -> VerifyResult:
    """regret / ln K stays within a factor 2 across K for the exact calculator."""
    ks = [1 << i for i in range(3, 13)]
    normalized = [
        exact_det_gumbel_regret(np.arange(k) / (k - 1), 1.0, 40) / math.log(k)
        for k in ks
    ]
    ratio = max(normalized) / min(normalized)
    return VerifyResult("shape-K", ratio <= 2.0,
                        f"max/min of regret/lnK over K in 8..4096 = {ratio:.3f}")


def check_shape_eps() -> VerifyResult:
    """regret * eps varies by < 10% across eps for fixed K = 64."""
    k = 64
    means = np.arange(k) / (k - 1)
    vals = [exact_det_gumbel_regret(means, eps, 40) * eps
            for eps in (0.25, 0.5, 1.0, 2.0, 4.0)]
    spread = (max(vals) - min(vals)) / min(vals)
    return VerifyResult("shape-eps", spread < 0.10,
                        f"regret*eps spread over eps in 0.25..4 = {spread:.3%}")


def check_t_independence() -> VerifyResult:
    """Regret with resampling is T-independent: at T = 2^16 - 1 the exact
    contributions of epochs 13-16 carry less than 1e-9 of the total, for
    every noise family."""
    instance = bernoulli_instance([0.1, 0.3, 0.5, 0.7])
    shares = []
    details = []
    for kind in (NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL, NoiseKind.GUMBEL):
        spec = MechanismSpec(resample=1, noise=kind, epsilon=1.0)
        contributions = exact_regret_epochs(instance, spec, (1 << 16) - 1)
        total = math.fsum(contributions)
        shares.append(math.fsum(contributions[12:]) / total)
        details.append(f"{kind.value}: {total:.3f}, epochs 13-16 share {shares[-1]:.1e}")
    return VerifyResult("t-independence", max(shares) < 1e-9, "; ".join(details))


def check_monotonicity() -> VerifyResult:
    """With resampling, the exact selection pmf at epoch 6 is nonincreasing in
    the mean ordering and bounded by 1/j, for all three noise families."""
    instance = bernoulli_instance([0.2, 0.5, 0.8])
    failures = []
    for kind in (NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL, NoiseKind.GUMBEL):
        spec = MechanismSpec(resample=1, noise=kind, epsilon=1.0)
        pmf = epoch_selection_pmf(instance, spec, 1 << 5)
        # p_j <= 1/j, and p_j <= p_{j-1} from j = 2 on.
        bound = np.minimum(1.0 / np.arange(1, pmf.size + 1), np.append(1.0, pmf[:-1]))
        failures += [f"{kind.value}: pmf({j + 1}) = {pmf[j]:.4f} > {bound[j]:.4f}"
                     for j in np.flatnonzero(pmf > bound)]
    return VerifyResult("monotonicity", not failures,
                        failures[0] if failures else "3 kinds x 3 actions nonincreasing, <= 1/j")


def check_tail_bounds() -> VerifyResult:
    """The exact selection probability of the gap-0.5 action stays below the
    analytic tail bound for the Exponential and Gumbel families."""
    instance = bernoulli_instance([0.1, 0.6])
    failures = []
    worst = 0.0
    for kind in (NoiseKind.EXPONENTIAL, NoiseKind.GUMBEL):
        spec = MechanismSpec(resample=1, noise=kind, epsilon=1.0)
        for r in range(4, 9):
            p = epoch_selection_pmf(instance, spec, 1 << (r - 1))[1]
            bound = min(1.0, tail_bound(kind, r, 0.5, 1.0))
            worst = max(worst, p / bound)
            if p > bound:
                failures.append(f"{kind.value} r={r}: {p:.5f} > {bound:.5f}")
    return VerifyResult("tails", not failures,
                        failures[0] if failures else f"worst p/bound = {worst:.3f}")


def check_binomial_grid() -> VerifyResult:
    """Binomial CDF is nonincreasing in p: exact integer arithmetic over the
    common denominator 20^n, on the 0.05 grid for every n <= 50 and every k,
    plus agreement of the float CDF built from the binomial pmf the sampler
    uses with the exact one."""
    violations = 0
    float_err = 0.0
    for n in range(1, 51):
        # Numerators over the unreduced 20^n: at p = 10/20 they are not those
        # over 2^n of p = 1/2, so every grid point shares one denominator.
        rows = [_binomial_cdf_numerators(n, i, 20) for i in range(21)]
        violations += sum(a < b for prev, cur in zip(rows, rows[1:])
                          for a, b in zip(prev, cur))
        floats = binomial_cdf(n, 0.35)  # rows[7]: p = 7/20
        for k in (0, n // 2, n):
            float_err = max(float_err, abs(floats[k] - rows[7][k] / 20 ** n))
    passed = violations == 0 and float_err <= 1e-12
    return VerifyResult("binomial", passed,
                        f"{violations} exact violations; float vs exact err {float_err:.2e}")


def check_softmax_derivative() -> VerifyResult:
    """Finite-difference check of the derivative bound f' <= ln2 * f."""
    rng = np.random.default_rng(11)
    xs = np.linspace(-2.0, 10.0, 61)
    worst = -math.inf
    for _ in range(100):
        k = int(rng.integers(2, 17))
        a = rng.uniform(0.0, 8.0, size=k)
        a[rng.integers(k)] = 0.0
        worst = max(worst, check_derivative_bound(SoftmaxSpec(a), xs, 1e-5))
    return VerifyResult("softmax-derivative", worst <= 1e-6, f"max violation {worst:.2e}")


def check_softmax_series() -> VerifyResult:
    """Partial series sums stay below the explicit (1+ln2)/ln2 * lnK constant."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for k in (2, 8, 64, 512):
        bound = PARTIAL_SUM_CONSTANT * math.log(k)
        for _ in range(100):
            a = rng.uniform(0.0, 8.0, size=k)
            a[rng.integers(k)] = 0.0
            worst = max(worst, partial_sum_f(SoftmaxSpec(a), 60) / bound)
    return VerifyResult("softmax-series", worst <= 1.0, f"worst sum/bound = {worst:.3f}")


# Absolute slack on e^eps in every privacy suite's ratio check.
PRIVACY_TOL = 1e-9


def _neighbours(k: int, steps: Sequence[float]) -> np.ndarray:
    """Every shift of a k-vector whose coordinates each move by one of steps,
    in itertools.product order, with the zero shift left out."""
    steps = np.asarray(steps)
    shifts = steps[np.indices((steps.size,) * k).reshape(k, -1).T]
    return shifts[shifts.any(axis=1)]


def _worst_ratio(spec: MechanismSpec, scores: np.ndarray, shifts: np.ndarray) -> float:
    """Max oracle pmf ratio, in both directions, between scores, scored alone,
    and its neighbours scores + shifts, scored in one call on a stack."""
    base = rnm_pmf_oracle(scores, spec)
    others = rnm_pmf_oracle(scores + shifts, spec)
    return max(float(np.max(base / others)), float(np.max(others / base)))


def _oracle_ratio_grid(kind: NoiseKind, epsilon: float, rng: np.random.Generator) -> float:
    """Worst ratio over 4 base vectors and their 3^k - 1 neighbours under
    per-coordinate perturbations in {-1, 0, 1}."""
    spec = MechanismSpec(resample=0, noise=kind, epsilon=epsilon)
    worst = 0.0
    for _ in range(4):
        k = int(rng.integers(2, 5))
        scores = np.round(rng.uniform(1.0, 4.0, size=k), 2)
        worst = max(worst, _worst_ratio(spec, scores, _neighbours(k, (-1.0, 0.0, 1.0))))
    return worst


def check_privacy_gumbel() -> VerifyResult:
    """Exact softmax pmf ratio stays below e^eps on perturbation grids, with
    per-coordinate steps in {-1, -0.5, 0, 0.5, 1}."""
    rng = np.random.default_rng(3)
    failures = []
    worst_rel = 0.0
    for eps in (0.5, 1.0, 2.0):
        spec = MechanismSpec(resample=0, noise=NoiseKind.GUMBEL, epsilon=eps)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            scores = rng.uniform(0.0, 5.0, size=k)
            ratio = _worst_ratio(spec, scores, _neighbours(k, (-1.0, -0.5, 0.0, 0.5, 1.0)))
            worst_rel = max(worst_rel, ratio / math.exp(eps))
            if ratio > math.exp(eps) + PRIVACY_TOL:
                failures.append(f"eps={eps}: ratio {ratio:.6f}")
    return VerifyResult("privacy-gumbel", not failures,
                        failures[0] if failures else f"worst ratio/e^eps = {worst_rel:.4f}")


def check_privacy_oracle(kind: NoiseKind) -> VerifyResult:
    """`rnm_pmf_oracle` pmf ratio stays below e^eps on perturbation grids,
    for the Laplace or Exponential family."""
    worst = 0.0
    for eps in (0.5, 1.0, 2.0):
        ratio = _oracle_ratio_grid(kind, eps, np.random.default_rng(4))
        worst = max(worst, ratio / (math.exp(eps) + PRIVACY_TOL))
    return VerifyResult(f"privacy-{kind.value}", worst <= 1.0,
                        f"worst ratio/(e^eps+tol) = {worst:.4f}")


def check_resampling_effect() -> VerifyResult:
    """On the two-action example, resampling forces the first selection to favor
    the optimal action; the no-resampling probability is recorded, not asserted."""
    instance = paper_example_two_actions()
    with_resample, without = (
        epoch_selection_pmf(instance, MechanismSpec(resample=b, noise=NoiseKind.NONE), 1)[1]
        for b in (1, 0))
    return VerifyResult(
        "resampling", with_resample <= 0.5,
        f"P[first pick suboptimal]: B=1 {with_resample:.4f} (<= 0.5); "
        f"B=0 {without:.4f} (recorded only)",
    )


def check_laplace_shape() -> VerifyResult:
    """Laplace noise on deterministic grid instances: regret * eps / ln^2 K shows
    no upward trend in K, i.e. the smallest K already attains the fitted constant."""
    eps = 1.0
    spec = MechanismSpec(resample=0, noise=NoiseKind.LAPLACE, epsilon=eps)
    normalized = {}
    slack = {}
    for k in (8, 16, 32, 64):
        est = estimate_pseudoregret(uniform_grid_instance(k), spec, (1 << 30) - 1,
                                    20_000, 21 + k)
        normalized[k] = est.mean * eps / math.log(k) ** 2
        slack[k] = 3.0 * est.stderr * eps / math.log(k) ** 2
    fitted = normalized[8]
    ok = all(normalized[k] <= fitted * 1.05 + slack[k] for k in normalized)
    detail = ", ".join(f"K={k}: {v:.3f}" for k, v in normalized.items())
    return VerifyResult("laplace-shape", ok, f"regret*eps/ln^2K by K: {detail}")


def check_noise_ks() -> VerifyResult:
    """Kolmogorov-Smirnov distance between sampler output and the analytic CDF."""
    samples = 100_000
    worst = 0.0
    failures = []
    for i, kind in enumerate((NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL, NoiseKind.GUMBEL)):
        for scale in (0.5, 1.0, 2.0):
            rng = RngStream(600 + 10 * i + int(scale * 4))
            xs = np.sort(noise_ppf(kind, rng.uniform(samples), scale))
            cdf = noise_cdf(kind, xs, scale)
            grid = np.arange(1, samples + 1) / samples
            ks = max(np.abs(cdf - grid).max(), np.abs(cdf - grid + 1.0 / samples).max())
            worst = max(worst, ks)
            if ks >= 0.01:
                failures.append(f"{kind.value} scale {scale}: KS {ks:.4f}")
    return VerifyResult("noise-ks", not failures, f"worst KS distance {worst:.4f}")


SUITES: Dict[str, Callable[[], VerifyResult]] = {
    "exact-vs-mc": check_exact_vs_mc,
    "shape-K": check_shape_k,
    "shape-eps": check_shape_eps,
    "t-independence": check_t_independence,
    "monotonicity": check_monotonicity,
    "binomial": check_binomial_grid,
    "softmax-derivative": check_softmax_derivative,
    "softmax-series": check_softmax_series,
    "privacy-gumbel": check_privacy_gumbel,
    "privacy-laplace": functools.partial(check_privacy_oracle, NoiseKind.LAPLACE),
    "privacy-exponential": functools.partial(check_privacy_oracle, NoiseKind.EXPONENTIAL),
    "tails": check_tail_bounds,
    "resampling": check_resampling_effect,
    "laplace-shape": check_laplace_shape,
    "noise-ks": check_noise_ks,
}


def run_suites(names: Sequence[str]) -> List[VerifyResult]:
    return [SUITES[name]() for name in names]
