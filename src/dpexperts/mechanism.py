"""Per-epoch selection: Bernoulli resampling, report-noisy-max, and exact pmf oracles."""
from __future__ import annotations

import numpy as np

from .core import MechanismSpec, NoiseKind, OutOfRange
from .noise import RngStream, noise_ppf, sample_noise
# Nothing here calls noise_pdf or noise_cdf, but bench/run.py looks both up on
# this module with getattr to wrap them in its traced pass, so the names stay.
from .noise import noise_cdf, noise_pdf  # noqa: F401

# The pmf oracle is for small-instance verification only: its Laurent
# expansion has up to 2K+1 terms of mixed sign, and cancellation grows with K.
ORACLE_MAX_ACTIONS = 8

# Accumulated scores that are equal as real numbers can differ in the last few
# ulps depending on summation order, so noiseless tie detection uses a relative
# tolerance instead of exact float equality.
TIE_RTOL = 1e-9


def _tie_mask(scores: np.ndarray, mins) -> np.ndarray:
    return scores <= mins + TIE_RTOL * (1.0 + np.abs(mins))


class TooManyActions(ValueError):
    """pmf oracle called with more actions than it is meant for."""


def bernoulli_resample(loss: np.ndarray, rng: RngStream) -> np.ndarray:
    """Replace each loss in [0, 1] by an independent Bernoulli bit with that mean."""
    loss = np.asarray(loss, dtype=float)
    if loss.size and (loss.min() < 0.0 or loss.max() > 1.0):
        raise OutOfRange("losses must lie in [0, 1]")
    return (rng.uniform(loss.shape) < loss).astype(float)


def _argmin_random_ties(scores: np.ndarray, rng: RngStream) -> int:
    ties = np.flatnonzero(_tie_mask(scores, scores.min()))
    if len(ties) == 1:
        return int(ties[0])
    return int(ties[rng.index(len(ties))])


def report_noisy_max(scores: np.ndarray, spec: MechanismSpec, rng: RngStream) -> int:
    """argmax_j of (-G_j + Q_j); without noise, argmin of G with uniform tie-breaking."""
    scores = np.asarray(scores, dtype=float)
    if spec.noise is NoiseKind.NONE:
        return _argmin_random_ties(scores, rng)
    noisy = -scores + sample_noise(spec, rng, size=scores.shape)
    return int(np.argmax(noisy))


def select_batch(scores: np.ndarray, spec: MechanismSpec, rng: RngStream) -> np.ndarray:
    """Vectorized report_noisy_max over rows of a (trials, K) score matrix."""
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    n, k = scores.shape
    if spec.noise is NoiseKind.NONE:
        mins = scores.min(axis=1, keepdims=True)
        is_min = _tie_mask(scores, mins)
        counts = is_min.sum(axis=1)
        pick = np.minimum((rng.uniform(n) * counts).astype(int), counts - 1)
        cum = np.cumsum(is_min, axis=1)
        return np.argmax(cum == (pick + 1)[:, None], axis=1)
    noisy = -scores + noise_ppf(spec.noise, rng.uniform((n, k)), spec.scale())
    return np.argmax(noisy, axis=1)


def gumbel_selection_pmf(scores: np.ndarray, epsilon: float) -> np.ndarray:
    """Exact selection pmf under Gumbel(2/eps) noise: softmax of -G * eps / 2.

    Matches the sampled noise scale, so the pmf and the sampler agree exactly.
    """
    if epsilon <= 0.0:
        raise OutOfRange("epsilon must be positive")
    z = -np.asarray(scores, dtype=float) * (epsilon / 2.0)
    z = z - z.max()
    p = np.exp(z)
    return p / p.sum()


def log_gumbel_selection_pmf(scores: np.ndarray, epsilon: float) -> np.ndarray:
    """Log of gumbel_selection_pmf, usable when probabilities underflow."""
    if epsilon <= 0.0:
        raise OutOfRange("epsilon must be positive")
    z = -np.asarray(scores, dtype=float) * (epsilon / 2.0)
    z = z - z.max()
    return z - np.log(np.exp(z).sum())


# Unit-scale Laplace and Exponential noise, piecewise: on each side of 0 the
# CDF is F(x) = c + d exp(sigma x) and the density f(x) = 0 + d exp(sigma x),
# each given as ((c, d, sigma) for x < 0, (c, d, sigma) for x >= 0).
_PIECES = {
    NoiseKind.LAPLACE: {
        "cdf": ((0.0, 0.5, 1), (1.0, -0.5, -1)),
        "pdf": ((0.0, 0.5, 1), (0.0, 0.5, -1)),
    },
    NoiseKind.EXPONENTIAL: {
        "cdf": ((0.0, 0.0, 1), (1.0, -1.0, -1)),
        "pdf": ((0.0, 0.0, 1), (0.0, 1.0, -1)),
    },
}


def _closed_form_pmf(scores: np.ndarray, kind: NoiseKind) -> np.ndarray:
    """p_j = int f(q) prod_{i != j} F(q + G_i - G_j) dq for unit-scale Laplace
    or Exponential noise, every j at once.

    Between consecutive breakpoints (0 and the G_j - G_i) every factor is a
    constant plus one exponential, so the integrand is a Laurent polynomial in
    w = exp(q - a) for an anchor a. The terms of power n > 0 are expanded at
    the segment's right end and those of power n < 0 at its left end, where
    |w^n| is largest. Each factor's exponential is at most 1 at either end, so
    every coefficient stays bounded however wide the gaps, and a term
    integrates to coef * (1 - exp(-|n| width)) / |n| without overflow. The
    constant term integrates to coef * width.
    """
    k = scores.size
    # Row j holds action j's factors: the density (shift 0), then F(q + G_i - G_j).
    others = ~np.eye(k, dtype=bool)
    shifts = np.zeros((k, k))
    shifts[:, 1:] = (scores[None, :] - scores[:, None])[others].reshape(k, k - 1)
    # Row j's segments; repeated breakpoints leave zero-width segments, which
    # integrate to 0.
    edges = np.sort(-shifts, axis=1)
    lo = np.concatenate([np.full((k, 1), -np.inf), edges], axis=1)
    hi = np.concatenate([edges, np.full((k, 1), np.inf)], axis=1)
    width = hi - lo
    # Unbounded segments are anchored at their finite end: there, every term
    # that would grow towards the infinite end has coefficient zero.
    anchors = np.stack([np.where(np.isfinite(lo), lo, hi), np.where(np.isfinite(hi), hi, lo)])
    pieces = _PIECES[kind]

    # coef[e, j, s, n + k]: coefficient of w^n in row j on segment s, anchored
    # at the segment's left (e = 0) or right (e = 1) end.
    coef = np.zeros((2, k, k + 1, 2 * k + 1))
    coef[..., k] = 1.0
    for col in range(k):
        shift = shifts[:, col:col + 1]
        neg, pos = pieces["pdf" if col == 0 else "cdf"]
        # The factor's argument q + shift is >= 0 on the whole segment or < 0 on it.
        c, d, sigma = (np.where(-shift <= lo, p, n) for n, p in zip(neg, pos))
        # d exp(sigma (q + shift)) = d exp(sigma (a + shift)) w^sigma, with an
        # exponent that is <= 0 at either end of the segment.
        term = d * np.exp(sigma * (anchors + shift))
        grown = c[..., None] * coef
        grown[..., 1:] += np.where(sigma > 0, term, 0.0)[..., None] * coef[..., :-1]
        grown[..., :-1] += np.where(sigma < 0, term, 0.0)[..., None] * coef[..., 1:]
        coef = grown

    m = np.arange(1, k + 1)
    decay = -np.expm1(-m * width[..., None]) / m  # (1 - exp(-|n| width)) / |n|, |n| = 1..k
    finite_width = np.where(np.isfinite(width), width, 0.0)
    return ((coef[1, ..., k + 1:] * decay).sum(axis=(1, 2))
            + (coef[0, ..., :k] * decay[..., ::-1]).sum(axis=(1, 2))
            + (coef[0, ..., k] * finite_width).sum(axis=1))


def rnm_pmf_oracle(scores: np.ndarray, spec: MechanismSpec) -> np.ndarray:
    """Exact selection pmf: p_j = int f(q) prod_{i != j} F(q + G_i - G_j) dq.

    Laplace and Exponential noise use the piecewise closed form of
    `_closed_form_pmf`, independent of the samplers; Gumbel noise uses its
    softmax closed form, `gumbel_selection_pmf`; no noise splits ties evenly.
    """
    scores = np.asarray(scores, dtype=float)
    k = scores.size
    if k > ORACLE_MAX_ACTIONS:
        raise TooManyActions(f"oracle supports at most {ORACLE_MAX_ACTIONS} actions, got {k}")
    if spec.noise is NoiseKind.NONE:
        ties = _tie_mask(scores, scores.min())
        return ties / ties.sum()
    if spec.noise is NoiseKind.GUMBEL:
        return gumbel_selection_pmf(scores, spec.epsilon)

    return _closed_form_pmf(scores / spec.scale(), spec.noise)
