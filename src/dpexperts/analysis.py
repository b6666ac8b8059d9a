"""Exact calculators and numeric verifiers for the deterministic-setting results
and the directly evaluable bounds (binomial CDF monotonicity, softmax-function
derivative and series bounds, selection tail bounds, privacy ratios)."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import NoiseKind, OutOfRange
from .mechanism import log_gumbel_selection_pmf

# Testable constant for the partial-sum bound: sum_{r>=1} f(r) <= (1 + ln 2) *
# integral_0^inf f, and the integral telescopes to at most (ln K) / ln 2.
PARTIAL_SUM_CONSTANT = (1.0 + math.log(2.0)) / math.log(2.0)


class AdjacencyViolation(ValueError):
    """Score vectors differ by more than 1 in some coordinate."""


@dataclass(frozen=True)
class SoftmaxSpec:
    """Nonnegative weights with min zero, the argument vector of the softmax-like
    function f(x) = sum_i t_i e^{-t_i} / sum_i e^{-t_i} with t_i = 2^x a_i."""

    a: np.ndarray
    # Below this x neither 2^x nor any t_i = 2^x a_i overflows.
    overflow_x: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        object.__setattr__(self, "a", a)
        if a.size == 0:
            raise OutOfRange("a must be nonempty")
        if a.min() < 0.0:
            raise OutOfRange("a must be nonnegative")
        if a.min() > 1e-12:
            raise OutOfRange("a must contain a zero entry")
        top = float(a.max())
        safe_x = 1023.0 - math.log2(top) if top > 0.0 else math.inf
        object.__setattr__(self, "overflow_x", min(safe_x, 1023.0))


def softmax_f(spec: SoftmaxSpec, x: float) -> float:
    """Evaluate f(x) with overflow-safe exponent shifting.

    Where t_i = 2^x a_i overflows to inf, its weight e^{-(t_i - t_min)} is 0
    (the zero entry keeps t_min finite), so the term is dropped rather than
    contributing inf * 0 = nan.
    """
    if x < spec.overflow_x:
        t = (2.0 ** x) * spec.a
        w = np.exp(-(t - t.min()))
        return float((t * w).sum() / w.sum())
    # 2.0 ** x raises OverflowError from x = 1024 on, so scale by the integer
    # part with ldexp, which saturates to inf. Past 2^2200 every positive t_i
    # is inf anyway, so the exponent is capped there.
    whole = math.floor(x)
    with np.errstate(over="ignore"):
        t = np.ldexp((2.0 ** (x - whole)) * spec.a, min(whole, 2200))
    w = np.exp(-(t - t.min()))
    kept = w > 0.0
    return float((t[kept] * w[kept]).sum() / w.sum())


def check_derivative_bound(spec: SoftmaxSpec, xs: Sequence[float], h: float) -> float:
    """Max signed violation of f'(x) <= ln2 * f(x) by central finite differences."""
    if h <= 0.0:
        raise OutOfRange("step h must be positive")
    worst = -math.inf
    for x in xs:
        deriv = (softmax_f(spec, x + h) - softmax_f(spec, x - h)) / (2.0 * h)
        worst = max(worst, deriv - math.log(2.0) * softmax_f(spec, x))
    return worst


def partial_sum_f(spec: SoftmaxSpec, big_r: int) -> float:
    """Partial series sum_{r=1}^{R} f(r)."""
    if big_r < 1:
        raise OutOfRange("R must be >= 1")
    return math.fsum(softmax_f(spec, r) for r in range(1, big_r + 1))


def exact_det_gumbel_regret_epochs(means, epsilon: float, big_r: int) -> List[float]:
    """Per-epoch expected pseudoregret of the no-resampling Gumbel variant on a
    deterministic instance, horizon T = 2^R - 1.

    Epoch 1 is the uniform initial action; the selection entering epoch r >= 2
    has the exact softmax pmf of the scores 2^{r-2} * mu accumulated over epoch
    r - 1. No sampling anywhere.
    """
    if big_r < 1:
        raise OutOfRange("R must be >= 1")
    if epsilon <= 0.0:
        raise OutOfRange("epsilon must be positive")
    mu = np.asarray(means, dtype=float)
    gaps = mu - mu.min()
    contributions = [float(gaps.sum() / gaps.size)]
    for r in range(2, big_r + 1):
        logp = log_gumbel_selection_pmf((2.0 ** (r - 2)) * gaps, epsilon)
        contributions.append(float((2.0 ** (r - 1)) * (gaps * np.exp(logp)).sum()))
    return contributions


def exact_det_gumbel_regret(means, epsilon: float, big_r: int) -> float:
    return math.fsum(exact_det_gumbel_regret_epochs(means, epsilon, big_r))


def binomial_cdf(k: int, n: int, p: float) -> float:
    """P[X <= k] for X ~ Binomial(n, p), summed stably in log space."""
    if not (0 <= k <= n):
        raise OutOfRange(f"need 0 <= k <= n, got k={k}, n={n}")
    if not (0.0 <= p <= 1.0):
        raise OutOfRange(f"p must lie in [0, 1], got {p}")
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 1.0 if k == n else 0.0
    logp, logq = math.log(p), math.log1p(-p)
    terms = [
        math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
        + i * logp + (n - i) * logq
        for i in range(k + 1)
    ]
    terms = np.array(terms)
    top = terms.max()
    return float(min(1.0, math.exp(top + math.log(np.exp(terms - top).sum()))))


def binomial_cdf_exact(k: int, n: int, p: Fraction) -> Fraction:
    """Exact rational binomial CDF, the oracle for the monotonicity grid check."""
    p = Fraction(p)
    q = 1 - p
    total = Fraction(0)
    for i in range(k + 1):
        total += math.comb(n, i) * p ** i * q ** (n - i)
    return total


def tail_bound(kind: NoiseKind, r: int, delta: float, epsilon: float,
               c1: float = 2.0, c2: float = 8.0) -> float:
    """Analytic upper bound on the chance that the end-of-epoch-r selection is a
    fixed action with gap `delta`, under resampling.

    Exponential: exp(-2^{r-1} d^2 / 4) + exp(-eps 2^{r-1} d / 4); the noise term
    is the chance that Exponential(2/eps) noise exceeds half the epoch gap,
    exp(-(2^{r-1} d / 2) / (2/eps)).
    Gumbel: exp(-2^{r-1} d eps / 4) + exp(-2^{r-1} d^2 / 4); the eps/4 exponent
    carries the factor 1/2 from this artifact's softmax-exponent convention.
    Laplace: generic c1 * exp(-2^{r+1} d min(d, eps) / c2) with configurable
    constants.
    """
    if not (0.0 < delta <= 1.0):
        raise OutOfRange("delta must lie in (0, 1]")
    if epsilon <= 0.0:
        raise OutOfRange("epsilon must be positive")
    n = 2.0 ** (r - 1)
    if kind is NoiseKind.EXPONENTIAL:
        return math.exp(-n * delta * delta / 4.0) + math.exp(-epsilon * n * delta / 4.0)
    if kind is NoiseKind.GUMBEL:
        return math.exp(-n * delta * epsilon / 4.0) + math.exp(-n * delta * delta / 4.0)
    if kind is NoiseKind.LAPLACE:
        return c1 * math.exp(-(2.0 ** (r + 1)) * delta * min(delta, epsilon) / c2)
    raise OutOfRange(f"no tail bound for noise kind {kind!r}")


def gumbel_privacy_ratio(scores: np.ndarray, scores_prime: np.ndarray,
                         epsilon: float) -> float:
    """max_j p_j(G) / p_j(G') for the exact Gumbel selection pmfs of two score
    vectors differing by at most 1 per coordinate."""
    g = np.asarray(scores, dtype=float)
    gp = np.asarray(scores_prime, dtype=float)
    if g.shape != gp.shape:
        raise AdjacencyViolation("score vectors must have the same length")
    if np.abs(g - gp).max() > 1.0 + 1e-12:
        raise AdjacencyViolation("score vectors differ by more than 1 in a coordinate")
    diff = log_gumbel_selection_pmf(g, epsilon) - log_gumbel_selection_pmf(gp, epsilon)
    return float(np.exp(diff.max()))
