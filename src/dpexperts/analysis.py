"""The exact regret calculator, from the epoch selection pmfs of every instance
the sampler knows, and numeric verifiers for the directly evaluable bounds
(exact binomial CDFs, softmax-function derivative and series bounds, selection
tail bounds)."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .core import Instance, MechanismSpec, NoiseKind, OutOfRange
from .engine import epoch_lengths, epoch_pmfs
# Not called here: bench/run.py times the Gumbel pmf by wrapping this name (ROADMAP item 7).
from .mechanism import log_gumbel_selection_pmf  # noqa: F401

# Testable constant for the partial-sum bound: sum_{r>=1} f(r) <= (1 + ln 2) *
# integral_0^inf f, and the integral telescopes to at most (ln K) / ln 2.
PARTIAL_SUM_CONSTANT = (1.0 + math.log(2.0)) / math.log(2.0)


@dataclass(frozen=True)
class SoftmaxSpec:
    """Nonnegative weights with min zero, the argument vector of the softmax-like
    function f(x) = sum_i t_i e^{-t_i} / sum_i e^{-t_i} with t_i = 2^x a_i."""

    a: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        object.__setattr__(self, "a", a)
        if a.size == 0:
            raise OutOfRange("a must be nonempty")
        if a.min() < 0.0:
            raise OutOfRange("a must be nonnegative")
        if a.min() != 0.0:
            raise OutOfRange("a must contain a zero entry")


def softmax_f(spec: SoftmaxSpec, x: float | np.ndarray) -> float | np.ndarray:
    """Evaluate f at a scalar x (a float back) or at an array of x (an array
    back), by one overflow-safe formula for every x.

    t_i = 2^x a_i is scaled by the integer part of x with ldexp, which
    saturates to inf where 2^x itself would overflow. Past 2^2200 every
    positive t_i is inf, and below 2^-2200 every t_i is 0, so the exponent is
    clipped there and fits the int32 that ldexp's vector loop takes. Where t_i
    is inf its weight e^{-(t_i - t_min)} is 0 (the zero entry keeps t_min
    finite), so the term is dropped rather than contributing inf * 0 = nan.
    """
    x = np.asarray(x, dtype=float)
    whole = np.floor(x)
    with np.errstate(over="ignore"):
        t = np.ldexp(np.power(2.0, x - whole)[..., None] * spec.a,
                     np.clip(whole, -2200, 2200).astype(np.int32)[..., None])
    w = np.exp(t.min(axis=-1, keepdims=True) - t)
    f = (np.where(w > 0.0, t, 0.0) * w).sum(axis=-1) / w.sum(axis=-1)
    return float(f) if f.ndim == 0 else f


def check_derivative_bound(spec: SoftmaxSpec, xs: Sequence[float], h: float) -> float:
    """Max signed violation of f'(x) <= ln2 * f(x) by central finite
    differences over xs (-inf for no xs), from three array calls of f."""
    if h <= 0.0:
        raise OutOfRange("step h must be positive")
    xs = np.asarray(xs, dtype=float)
    deriv = (softmax_f(spec, xs + h) - softmax_f(spec, xs - h)) / (2.0 * h)
    return float(np.max(deriv - math.log(2.0) * softmax_f(spec, xs), initial=-math.inf))


def partial_sum_f(spec: SoftmaxSpec, big_r: int) -> float:
    """Partial series sum_{r=1}^{R} f(r), from one array call of f."""
    if big_r < 1:
        raise OutOfRange("R must be >= 1")
    return math.fsum(softmax_f(spec, np.arange(1, big_r + 1)))


def exact_regret_epochs(instance: Instance, spec: MechanismSpec, horizon: int) -> List[float]:
    """Per-epoch expected pseudoregret at horizon T, exactly, for any instance
    whose epoch pmfs `engine.epoch_pmfs` can build.

    Epoch 1 plays the uniform initial action, L_1 mean(gaps). Epoch r + 1
    plays the selection made after epoch r, whose pmf is that epoch's
    `epoch_selection_pmf`: L_{r+1} (pmf_r . gaps). Losses are full
    information, so no epoch's pmf depends on the actions played. Raises
    OutOfRange naming the first epoch whose pmf is None.
    """
    lengths = epoch_lengths(horizon)
    gaps = instance.gaps
    contributions = [lengths[0] * float(gaps.mean())]
    for r, (pmf, length) in enumerate(zip(epoch_pmfs(instance, spec, horizon), lengths[1:]),
                                      start=1):
        if pmf is None:
            raise OutOfRange(f"epoch {r} has no exact selection pmf: its scores share no single "
                             "lattice, or a (laws x n) array of it would exceed 2^20 values")
        contributions.append(length * float((gaps * pmf).sum()))
    return contributions


def _binomial_cdf_numerators(n: int, a: int, d: int) -> List[int]:
    """Numerators of [P[X <= k] for k = 0..n], X ~ Binomial(n, a/d), over the
    common denominator d^n, unreduced: prefix sums of the integer pmf terms
    C(n, j) a^j (d - a)^{n-j}. CDFs at p = a/d for one d compare as integers."""
    return list(itertools.accumulate(math.comb(n, j) * a ** j * (d - a) ** (n - j)
                                     for j in range(n + 1)))


def tail_bound(kind: NoiseKind, r: int, delta: float, epsilon: float) -> float:
    """Analytic upper bound on the chance that the end-of-epoch-r selection is a
    fixed action with gap `delta`, under resampling.

    Exponential: exp(-2^{r-1} d^2 / 4) + exp(-eps 2^{r-1} d / 4); the noise term
    is the chance that Exponential(2/eps) noise exceeds half the epoch gap,
    exp(-(2^{r-1} d / 2) / (2/eps)).
    Gumbel: exp(-2^{r-1} d eps / 4) + exp(-2^{r-1} d^2 / 4); the eps/4 exponent
    carries the factor 1/2 from this artifact's softmax-exponent convention.
    Laplace: generic 2 exp(-2^{r+1} d min(d, eps) / 8), with the constants 2
    and 8 fixed.
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
        return 2.0 * math.exp(-(2.0 ** (r + 1)) * delta * min(delta, epsilon) / 8.0)
    raise OutOfRange(f"no tail bound for noise kind {kind!r}")
