"""Expected-regret references computed apart from dpexperts.

Only numpy and scipy are used here; nothing is imported from the package under
test, so a fault in its samplers, selection routine or pmf oracle cannot hide
in its own reference. Noise is report-noisy-max noise at scale beta: the
selected action is argmax_j(-S_j + Q_j), with Q_j i.i.d. Laplace, one-sided
Exponential or Gumbel, or argmin S with uniform tie-breaking without noise.

Two-action cells use the closed form of P(select action 1 | S_1 - S_0 = d)
summed against the exact distribution of d. Deterministic cells use the exact
per-epoch selection pmf: the softmax for Gumbel noise, a 1-D integral on a
fixed midpoint grid for Laplace and Exponential noise, and the argmin set
without noise.
"""
from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np
from scipy import special, stats

NOISES = ("laplace", "exponential", "gumbel", "none")

# Noise beyond TAIL_L scales has probability below e^-TAIL_L, so the grid of
# the 1-D integral spans [-TAIL_L, TAIL_L] scales (from 0 for one-sided noise),
# and actions whose score exceeds the minimum by more than TAIL_L scales are
# never selected in the reference.
TAIL_L = 45.0
POINTS_PER_SCALE = 48
# Binomial pmfs are cut this many standard deviations from their mean.
BINOM_SIGMAS = 14.0
_CHUNK = 128


def epoch_lengths(horizon: int) -> List[int]:
    """Doubling epochs 1, 2, 4, ..., the last one cut at the horizon."""
    lengths, t = [], 0
    while t < horizon:
        lengths.append(min(1 << len(lengths), horizon - t))
        t += lengths[-1]
    return lengths


def two_action_pick(noise: str, d, beta: float) -> np.ndarray:
    """P(action 1 is selected) when its score exceeds action 0's by d.

    Action 1 wins when Q_1 - Q_0 > d. The difference of two Laplace(beta)
    draws has tail 1/2 e^{-d/beta} (1 + d / (2 beta)); that of two
    Exponential(beta) draws is Laplace(beta); that of two Gumbel(beta) draws
    is logistic. Without noise the lower score wins and a tie is a coin flip.
    """
    d = np.asarray(d, dtype=float)
    if noise == "gumbel":
        return special.expit(-d / beta)
    if noise == "none":
        tie = np.abs(d) <= 1e-9 * (1.0 + np.abs(d))
        return np.where(tie, 0.5, np.where(d < 0.0, 1.0, 0.0))
    a = np.abs(d) / beta
    if noise == "laplace":
        tail = 0.5 * np.exp(-a) * (1.0 + 0.5 * a)
    elif noise == "exponential":
        tail = 0.5 * np.exp(-a)
    else:
        raise ValueError(f"unknown noise {noise!r}")
    return np.where(d >= 0.0, tail, 1.0 - tail)


def _binomial_lattice(n: int, p: float) -> Tuple[int, np.ndarray]:
    """(lowest count, pmf) of Binomial(n, p), cut far out in both tails."""
    if p in (0.0, 1.0):
        return int(round(n * p)), np.ones(1)
    half = int(math.ceil(BINOM_SIGMAS * math.sqrt(n * p * (1.0 - p)))) + 2
    centre = int(round(n * p))
    lo, hi = max(0, centre - half), min(n, centre + half)
    ks = np.arange(lo, hi + 1)
    return lo, stats.binom.pmf(ks, n, p)


def action_mean(action: Tuple) -> float:
    """Mean loss of ("point", v), ("bernoulli", p) or ("two-atom", a, b, q)."""
    if action[0] in ("point", "bernoulli"):
        return float(action[1])
    if action[0] == "two-atom":
        _, a, b, q = action
        return q * a + (1.0 - q) * b
    raise ValueError(f"unknown action model {action!r}")


def epoch_score_lattice(action: Tuple, n: int, resample: int) -> Tuple[float, float, np.ndarray]:
    """Score of one action after an epoch of n steps: value = offset + step * k
    with probability pmf[k].

    Actions are ("point", v), ("bernoulli", p) or ("two-atom", a, b, q): loss a
    with probability q, else b. With resampling every loss becomes a Bernoulli
    bit of the same mean, so the score is Binomial(n, mean).
    """
    kind, mean = action[0], action_mean(action)
    if resample or kind == "bernoulli":
        lo, pmf = _binomial_lattice(n, mean)
        return float(lo), 1.0, pmf
    if kind == "point":
        return n * mean, 0.0, np.ones(1)
    _, a, b, q = action
    lo, pmf = _binomial_lattice(n, q)  # number of a-atoms among n losses
    return n * b + (a - b) * lo, a - b, pmf


def _difference(lat1, lat0) -> Tuple[np.ndarray, np.ndarray]:
    """Support and pmf of S_1 - S_0 for independent lattice scores."""
    off1, step1, pmf1 = lat1
    off0, step0, pmf0 = lat0
    if step0 == 0.0:
        return off1 - off0 + step1 * np.arange(pmf1.size), pmf1
    if step1 == 0.0:
        return off1 - off0 - step0 * np.arange(pmf0.size), pmf0
    if step0 != step1:
        raise ValueError("scores on different lattices")
    pmf = np.convolve(pmf1, pmf0[::-1])
    top0 = off0 + step0 * (pmf0.size - 1)
    return off1 - top0 + step1 * np.arange(pmf.size), pmf


def two_action_regret(actions: Sequence[Tuple], resample: int, noise: str,
                      beta: float, horizon: int) -> float:
    """Exact expected pseudoregret of a two-action cell."""
    if len(actions) != 2:
        raise ValueError("two actions expected")
    means = [action_mean(a) for a in actions]
    gap0, gap1 = means[0] - min(means), means[1] - min(means)
    lengths = epoch_lengths(horizon)
    total = lengths[0] * 0.5 * (gap0 + gap1)
    for prev, length in zip(lengths, lengths[1:]):
        lat1 = epoch_score_lattice(actions[1], prev, resample)
        lat0 = epoch_score_lattice(actions[0], prev, resample)
        d, pmf = _difference(lat1, lat0)
        p1 = float(pmf @ two_action_pick(noise, d, beta))
        total += length * (gap0 * (1.0 - p1) + gap1 * p1)
    return total


def _log_cdf(noise: str, x: np.ndarray, beta: float) -> np.ndarray:
    z = x / beta
    if noise == "laplace":
        return np.where(z < 0.0, math.log(0.5) + np.minimum(z, 0.0),
                        np.log1p(-0.5 * np.exp(-np.abs(z))))
    if noise == "exponential":  # only evaluated at x > 0
        return np.log(-np.expm1(-z))
    if noise == "gumbel":
        return -np.exp(-z)
    raise ValueError(f"unknown noise {noise!r}")


def _pdf(noise: str, x: np.ndarray, beta: float) -> np.ndarray:
    z = x / beta
    if noise == "laplace":
        return np.exp(-np.abs(z)) / (2.0 * beta)
    if noise == "exponential":
        return np.exp(-z) / beta
    if noise == "gumbel":
        return np.exp(-z - np.exp(-z)) / beta
    raise ValueError(f"unknown noise {noise!r}")


def rnm_pmf_quadrature(scores, noise: str, beta: float,
                       points_per_scale: int = POINTS_PER_SCALE) -> np.ndarray:
    """Selection pmf p_j = int f(y + s_j) prod_{i != j} F(y + s_i) dy.

    Midpoint rule on a fixed grid. With s_min = 0 the integrand of every
    action is negligible outside |y| <= TAIL_L * beta, and for one-sided
    Exponential noise it is zero for y < 0 and smooth on y > 0, so that grid
    starts at 0 and the density jump sits on its edge.
    """
    s = np.asarray(scores, dtype=float)
    s = s - s.min()
    keep = np.flatnonzero(s <= TAIL_L * beta)
    sk = s[keep]
    h = beta / points_per_scale
    m = int(math.ceil(TAIL_L * points_per_scale))
    if noise == "exponential":
        y = (np.arange(m) + 0.5) * h
    else:
        y = -TAIL_L * beta + (np.arange(2 * m) + 0.5) * h
    log_all = np.zeros_like(y)
    for start in range(0, sk.size, _CHUNK):
        log_all += _log_cdf(noise, y + sk[start:start + _CHUNK, None], beta).sum(axis=0)
    p = np.zeros(s.size)
    for start in range(0, sk.size, _CHUNK):
        x = y + sk[start:start + _CHUNK, None]
        rest = np.exp(log_all - _log_cdf(noise, x, beta))
        p[keep[start:start + _CHUNK]] = h * (_pdf(noise, x, beta) * rest).sum(axis=1)
    return p


def det_pick_pmf(scores, noise: str, beta: float) -> np.ndarray:
    """Exact selection pmf of report-noisy-max on fixed scores."""
    s = np.asarray(scores, dtype=float)
    s = s - s.min()
    if noise == "none":
        ties = s <= 1e-9 * (1.0 + np.abs(s))
        return ties / ties.sum()
    if noise == "gumbel":
        return special.softmax(-s / beta)
    return rnm_pmf_quadrature(s, noise, beta)


def det_regret(means: Sequence[float], noise: str, beta: float, horizon: int) -> float:
    """Exact expected pseudoregret on a point-mass instance without resampling:
    a uniform first action, then each epoch's pmf on the previous epoch's scores."""
    mu = np.asarray(means, dtype=float)
    gaps = mu - mu.min()
    lengths = epoch_lengths(horizon)
    total = lengths[0] * float(gaps.mean())
    for prev, length in zip(lengths, lengths[1:]):
        total += length * float(gaps @ det_pick_pmf(prev * gaps, noise, beta))
    return total


def grid_means(k: int) -> np.ndarray:
    """`grid:K=k`: means (j - 1) / (K - 1)."""
    return np.arange(k) / (k - 1)


def lower_bound_means(k: int, delta: float, l: int) -> np.ndarray:
    """`lower-bound:K=k,delta=d,l=l`: 0 at action l (1-based), d at its two
    cyclic neighbours, 1 elsewhere."""
    mu = np.ones(k)
    mu[l - 1] = 0.0
    mu[(l - 2) % k] = delta
    mu[l % k] = delta
    return mu


def worst_np_means(k: int, delta: float) -> np.ndarray:
    """`worst-np:K=k,delta=d`: 0 for the first action, d for the others."""
    mu = np.full(k, delta)
    mu[0] = 0.0
    return mu


def regret_upper_bound(gaps: Sequence[float], horizon: int) -> float:
    """Sum over epochs of length x largest gap: no trajectory can exceed it."""
    return float(sum(epoch_lengths(horizon))) * float(max(gaps))
