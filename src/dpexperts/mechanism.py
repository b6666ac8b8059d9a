"""Per-epoch selection: Bernoulli resampling, report-noisy-max, and exact pmf oracles."""
from __future__ import annotations

import functools

import numpy as np

from .core import MechanismSpec, NoiseKind, OutOfRange
from .noise import RngStream, noise_ppf
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

# select_batch draws noise for this many float64 values at a time (512 KB), so
# a block's uniforms and noisy values stay in cache and no (trials, K)
# temporary is held. selection_pmf's (nodes, actions) temporaries are chunked
# at the same size.
SELECT_BLOCK_VALUES = 1 << 16

# selection_pmf under Laplace and Exponential noise, in noise-scale units. An
# action g > PRUNE_SCALES scales behind the best gets p = 0 (its p is at most
# the two-action tail e^-g (1 + g/2) / 2 < 1e-18), and the noisy maximum's
# value is integrated up to PRUNE_SCALES (no p_j loses more than e^-45 above).
# Below the lower cut every action's integrand is under e^LOG_CUT times its
# density; the CUT_ACTIONS smallest gaps certify the cut. Panels of
# GL_ORDER-point Gauss-Legendre are one scale wide for UNIT_PANELS scales
# above the cut, then WIDE_PANEL scales wide.
PRUNE_SCALES = 45.0
LOG_CUT = -60.0
CUT_ACTIONS = 256
GL_ORDER = 12
UNIT_PANELS = 8
WIDE_PANEL = 3.0


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


def select_batch(scores: np.ndarray, spec: MechanismSpec, rng: RngStream) -> np.ndarray:
    """Report-noisy-max on each row of a (trials, K) score matrix: the argmax
    of -G + Q, or without noise the argmin of G with uniform tie-breaking.

    The scores are only read, so a broadcast view of one row will do, and such
    a shared row (stride 0, as `sample_scores` returns for point masses) is
    selected from in O(K + trials): one uniform per trial through the inverse
    CDF of the row's exact selection pmf, `selection_pmf`. Distinct rows get
    their noisy values built block by block of rows, as Q - G in the inverse
    CDF's output array (bitwise -G + Q); PCG64 fills uniforms in C order, so
    the picks do not depend on the block size. Without noise, each distinct
    row draws one uniform to pick from its tie set.
    """
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    n, k = scores.shape
    # One row, as the per-step engine passes, has stride 0 too; it draws real
    # noise, which keeps that engine independent of selection_pmf.
    if n > 1 and scores.strides[0] == 0:
        # A zero-probability action adds nothing to cum, so no u lands on it.
        cum = np.cumsum(selection_pmf(scores[0], spec))
        return np.minimum(np.searchsorted(cum, rng.uniform(n) * cum[-1], side="right"), k - 1)
    if spec.noise is NoiseKind.NONE:
        mins = scores.min(axis=1, keepdims=True)
        is_min = _tie_mask(scores, mins)
        counts = is_min.sum(axis=1)
        pick = np.minimum((rng.uniform(n) * counts).astype(int), counts - 1)
        cum = np.cumsum(is_min, axis=1)
        return np.argmax(cum == (pick + 1)[:, None], axis=1)
    picks = np.empty(n, dtype=np.intp)
    rows = max(1, SELECT_BLOCK_VALUES // k)
    for lo in range(0, n, rows):
        block = scores[lo:lo + rows]
        noisy = noise_ppf(spec.noise, rng.uniform(block.shape), spec.scale())
        noisy -= block
        picks[lo:lo + rows] = np.argmax(noisy, axis=1)
    return picks


def selection_pmf(scores: np.ndarray, spec: MechanismSpec) -> np.ndarray:
    """Exact selection pmf of report-noisy-max on one score vector, any K.

    Gumbel noise gives the softmax, `log_gumbel_selection_pmf`; no noise
    splits the tie set evenly; Laplace and Exponential noise integrate
    `_hazard_pmf` by Gauss-Legendre quadrature, to about 1e-13.
    """
    scores = np.asarray(scores, dtype=float)
    if spec.noise is NoiseKind.NONE:
        ties = _tie_mask(scores, scores.min())
        return ties / ties.sum()
    if spec.noise is NoiseKind.GUMBEL:
        return np.exp(log_gumbel_selection_pmf(scores, spec.epsilon))
    return _hazard_pmf((scores - scores.min()) / spec.scale(), spec.noise)


def _log_cdf_sum(kind: NoiseKind, y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_i log F(y_n + g_i) for each node y_n, with unit-scale noise CDF F.

    Both families are written through t = e^-z, z = y + g, an outer product
    taken a chunk of actions at a time: Exponential F = 1 - t for z > 0 (the
    only z evaluated); Laplace F = 1 - t/2 for z >= 0 and e^z / 2 =
    e^min(z, 0) (1 - min(t, 1)/2) below, where the sum of the min(z, 0) over
    i comes from prefix sums of the sorted g.
    """
    total = np.zeros(y.size)
    cols = max(1, SELECT_BLOCK_VALUES // y.size)
    exp_y = np.exp(-y)
    for lo in range(0, g.size, cols):
        t = np.multiply.outer(exp_y, np.exp(-g[lo:lo + cols]))
        if kind is NoiseKind.LAPLACE:
            np.minimum(t, 1.0, out=t)
            t *= -0.5
        else:
            np.negative(t, out=t)
        total += np.log1p(t, out=t).sum(axis=1)
    if kind is NoiseKind.LAPLACE:
        ordered = np.sort(g)
        below = np.searchsorted(ordered, -y)
        total += below * y + np.concatenate([[0.0], np.cumsum(ordered)])[below]
    return total


def _reversed_hazard(kind: NoiseKind, y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """h(y_n + g_j) = f/F of unit-scale noise, as a (nodes, actions) matrix:
    1/expm1(z) = t / (1 - t) for Exponential; 1 below z = 0 and
    e^-z / (2 - e^-z) from it on for Laplace, i.e. min(t, 1) / (2 - min(t, 1))."""
    t = np.multiply.outer(np.exp(-y), np.exp(-g))
    if kind is NoiseKind.EXPONENTIAL:
        t /= 1.0 - t
        return t
    np.minimum(t, 1.0, out=t)
    t /= 2.0 - t
    return t


@functools.lru_cache(maxsize=None)
def _gauss_legendre():
    """GL_ORDER-point Gauss-Legendre nodes and weights on [-1, 1], made on
    first use, so that importing the package does not import numpy.polynomial."""
    return np.polynomial.legendre.leggauss(GL_ORDER)


def _quadrature_nodes(kind: NoiseKind, g: np.ndarray):
    """Gauss-Legendre nodes and weights on [cut, PRUNE_SCALES] for gaps g >= 0.

    The cut is the last point on a 4-scale, then 1/8-scale, grid where
    b(y) = sum of log F(y + g_i) over the CUT_ACTIONS + 1 smallest g less the
    smallest is at most LOG_CUT. b bounds log prod_{i != j} F(y + g_i) from
    above for every j and rises with y, so below the cut each integrand is
    under e^LOG_CUT f(y + g_j). Exponential's domain starts at 0 or above:
    below 0 the factor F(y + 0), and so every integrand, is 0. Laplace's F has
    a kink at each y = -g_i, so its panels are split there; Exponential's
    factors are analytic on the domain.
    """
    part = np.sort(g)[1:CUT_ACTIONS + 1]
    # b(lo) <= log F(lo + part[0]) = -61 - log 2 for Laplace.
    lo = 0.0 if kind is NoiseKind.EXPONENTIAL else -part[0] - 61.0
    for step in (4.0, 0.125):
        lo += step * np.count_nonzero(
            _log_cdf_sum(kind, lo + step * np.arange(1, 33), part) <= LOG_CUT)
    unit = lo + np.arange(UNIT_PANELS + 1.0)
    edges = np.concatenate([unit[unit < PRUNE_SCALES],
                            np.arange(unit[-1] + WIDE_PANEL, PRUNE_SCALES, WIDE_PANEL),
                            [PRUNE_SCALES]])
    if kind is NoiseKind.LAPLACE:
        edges = np.union1d(edges, -g[(-g > lo) & (-g < PRUNE_SCALES)])
    mid = (edges[1:] + edges[:-1]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    x, w = _gauss_legendre()
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def _hazard_pmf(g: np.ndarray, kind: NoiseKind) -> np.ndarray:
    """p_j = int h(y + g_j) W(y) dy for unit-scale Laplace or Exponential noise
    and gaps g = (G - min G) / beta, every j at once.

    W(y) = prod_i F(y + g_i) is the CDF of max_i(Q_i - g_i), shared by every
    j, and h = f / F the reversed hazard, so p_j = int f(y + g_j) prod_{i != j}
    F(y + g_i) dy. Each node takes one log-sum for W; p is then one product
    of the (nodes, actions) matrix of h with the weighted W.
    """
    p = np.zeros(g.size)
    keep = np.flatnonzero(g <= PRUNE_SCALES)
    if keep.size == 1:
        p[keep] = 1.0
        return p
    gk = g[keep]
    y, w = _quadrature_nodes(kind, gk)
    weighted = w * np.exp(_log_cdf_sum(kind, y, gk))
    cols = max(1, SELECT_BLOCK_VALUES // y.size)
    for lo in range(0, gk.size, cols):
        p[keep[lo:lo + cols]] = weighted @ _reversed_hazard(kind, y, gk[lo:lo + cols])
    return p


def log_gumbel_selection_pmf(scores: np.ndarray, epsilon: float) -> np.ndarray:
    """Log of the exact selection pmf under Gumbel(2/eps) noise: the log-softmax
    of -G * eps / 2, the scale the sampler uses, so pmf and sampler agree.

    Works along the last axis, so a (m, K) array gives m log-pmfs at once.
    """
    if epsilon <= 0.0:
        raise OutOfRange("epsilon must be positive")
    z = -np.asarray(scores, dtype=float) * (epsilon / 2.0)
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


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
    softmax closed form, `log_gumbel_selection_pmf`; no noise splits ties evenly.
    """
    scores = np.asarray(scores, dtype=float)
    k = scores.size
    if k > ORACLE_MAX_ACTIONS:
        raise TooManyActions(f"oracle supports at most {ORACLE_MAX_ACTIONS} actions, got {k}")
    if spec.noise in (NoiseKind.NONE, NoiseKind.GUMBEL):
        return selection_pmf(scores, spec)
    return _closed_form_pmf(scores / spec.scale(), spec.noise)
