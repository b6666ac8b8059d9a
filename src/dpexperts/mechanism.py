"""Per-epoch selection: Bernoulli resampling, report-noisy-max, and exact pmf oracles."""
from __future__ import annotations

import functools
import math

import numpy as np

from .core import MechanismSpec, NoiseKind, OutOfRange
from .noise import PIECES, RngStream, noise_cdf, noise_pdf, noise_ppf

# The pmf oracle is for small-instance verification only: its Laurent
# expansion has up to 2K+1 terms of mixed sign, and cancellation grows with K.
ORACLE_MAX_ACTIONS = 8

# Accumulated scores that are equal as real numbers can differ in the last few
# ulps depending on summation order, so noiseless tie detection uses a relative
# tolerance instead of exact float equality.
TIE_RTOL = 1e-9

# select_batch draws noise for this many float64 values at a time (512 KB), so
# a block's uniforms and noisy values stay in cache and no (trials, K)
# temporary is held. selection_pmf's (kept actions, nodes) temporaries are
# chunked at the same size.
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

# `_lattice_hazard_pmf` under Gumbel noise: the midpoint rule over a period
# is accurate to QUAD_TOL, bounded on the strip |Im o| < GUMBEL_STRIP (below
# pi/2, where |F| <= 1).
QUAD_TOL = 1e-13
GUMBEL_STRIP = 1.4


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

    Every row draws real noise, built block by block of rows as Q - G in the
    inverse CDF's output array (bitwise -G + Q); PCG64 fills uniforms in C
    order, so the picks do not depend on the block size. Without noise, each
    row draws one uniform to pick from its tie set. The scores are only read.
    """
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    n, k = scores.shape
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


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order: int = GL_ORDER):
    """Gauss-Legendre nodes and weights on [-1, 1], made on first use, so that
    importing the package does not import numpy.polynomial."""
    return np.polynomial.legendre.leggauss(order)


def _panel_nodes(edges: np.ndarray):
    """GL_ORDER-point Gauss-Legendre nodes and weights on each panel between
    consecutive sorted edges."""
    mid = (edges[1:] + edges[:-1]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    x, w = _gauss_legendre()
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def _lower_cut(kind: NoiseKind, part: np.ndarray) -> float:
    """The last point on a 4-scale, then 1/8-scale, grid where
    b(y) = sum_i log F(y + part_i) is at most LOG_CUT, for sorted part >= 0.

    b rises with y, and callers choose part so that b bounds the integrand
    below the cut. A law with no mass below 0 starts at 0: callers shift so
    that some factor F(y + 0) is 0, and so every integrand, below 0.
    """
    # b(lo) <= log F(lo + part[0]), which is -61 + log d for a law with mass
    # d e^z below 0 and -61 for Gumbel. Every grid point has y + part_i above
    # lo + part[0], or above 0 for a law starting at 0, so no F there is 0.
    if kind is NoiseKind.GUMBEL:
        lo = -part[0] - math.log(61.0)
    else:
        lo = -part[0] - 61.0 if PIECES[kind][0][1] else 0.0
    for step in (4.0, 0.125):
        y = lo + step * np.arange(1, 33)
        b = np.log(noise_cdf(kind, y[:, None] + part, 1.0)).sum(axis=1)
        lo += step * np.count_nonzero(b <= LOG_CUT)
    return lo


def _quadrature_nodes(kind: NoiseKind, g: np.ndarray):
    """Gauss-Legendre nodes and weights on [`_lower_cut`, PRUNE_SCALES] for
    gaps g >= 0 with min g = 0.

    The cut bounds b(y) over the CUT_ACTIONS + 1 smallest g less the
    smallest. b then bounds log prod_{i != j} F(y + g_i) from above for
    every j, so below the cut each integrand is under e^LOG_CUT f(y + g_j).
    Panels are one scale wide for UNIT_PANELS scales above the cut, then
    WIDE_PANEL scales wide. A law with mass below 0 has a kink at each
    y = -g_i, so its panels are split there; one without has factors
    analytic on the domain.
    """
    lo = _lower_cut(kind, np.sort(g)[1:CUT_ACTIONS + 1])
    unit = lo + np.arange(UNIT_PANELS + 1.0)
    edges = np.concatenate([unit[unit < PRUNE_SCALES],
                            np.arange(unit[-1] + WIDE_PANEL, PRUNE_SCALES, WIDE_PANEL),
                            [PRUNE_SCALES]])
    if PIECES[kind][0][1]:
        edges = np.union1d(edges, -g[(-g > lo) & (-g < PRUNE_SCALES)])
    return _panel_nodes(edges)


def _hazard_pmf(g: np.ndarray, kind: NoiseKind) -> np.ndarray:
    """p_j = int f(y + g_j) prod_{i != j} F(y + g_i) dy for unit-scale Laplace
    or Exponential noise and gaps g = (G - min G) / beta, every j at once.

    At each Gauss-Legendre node the product over the other actions is W / F_j
    (`_add_exclusive_products`), a block of (kept actions, nodes) at a time,
    with the node weights folded into f. F and f are read off t = e^-z for
    z = y + g: F = 1 + d t and f = -d t at z >= 0, and F = f = d' / t below
    0, for the `PIECES` d above 0 and d' below.
    """
    p = np.zeros(g.size)
    keep = np.flatnonzero(g <= PRUNE_SCALES)
    if keep.size == 1:
        p[keep] = 1.0
        return p
    (_, d_lo), (_, d_hi) = PIECES[kind]
    gk = g[keep]
    y, w = _quadrature_nodes(kind, gk)
    exp_g = np.exp(-gk)
    ones = np.ones(keep.size)
    cols = max(1, SELECT_BLOCK_VALUES // keep.size)
    for lo in range(0, y.size, cols):
        t = np.multiply.outer(exp_g, np.exp(-y[lo:lo + cols]))
        below = t > 1.0
        cdf = 1.0 + d_hi * t
        cdf[below] = d_lo / t[below]
        pdf = np.multiply(t, -d_hi, out=t)
        pdf[below] = cdf[below]
        pdf *= w[lo:lo + cols]
        _add_exclusive_products(p, keep, 1.0, pdf, cdf, ones)
    return p


def lattice_selection_pmf(lows: np.ndarray, pmfs, step: float, copies: np.ndarray,
                          spec: MechanismSpec) -> np.ndarray:
    """Exact selection pmf of report-noisy-max on independent random scores,
    marginal over the scores and the noise.

    Law i is lows[i] + step * k with probability pmfs[i][k], and copies[i]
    actions have it; the result holds each one's selection probability, so
    sum(copies * result) is 1. A one-entry pmf is a point and may lie
    anywhere; the longer pmfs are lattice laws and must share one lattice:
    step > 0 and lows congruent modulo step. Without noise the tie split is
    summed over the support (`_lattice_tie_pmf`); with noise
    p_j = int f_{Y_j} prod_{i != j} F_{Y_i} for Y_i = -S_i + Q_i is
    integrated on lattice-aligned periods (`_lattice_hazard_pmf`). A step
    h > 1 noise scales wide is first split into ceil(h) equal steps, with
    zeros between a lattice pmf's entries, so the kernel integrates steps
    at most one noise scale wide.
    """
    lows = np.asarray(lows, dtype=float)
    sizes = np.array([pmf.size for pmf in pmfs])
    best = (lows + step * (sizes - 1)).min()
    if spec.noise is NoiseKind.NONE:
        return _lattice_tie_pmf(lows, pmfs, sizes, step, copies, best)
    beta = spec.scale()
    split = math.ceil(step / beta)
    if split > 1:
        fine = [np.zeros((pmf.size - 1) * split + 1) for pmf in pmfs]
        for pmf, spread in zip(pmfs, fine):
            spread[::split] = pmf
        pmfs, sizes, step = fine, (sizes - 1) * split + 1, step / split
    # Scores are shift-invariant; shifting by the best top of support keeps
    # the nodes near 0, where a point's F(y + c) loses no digits.
    return _lattice_hazard_pmf((lows - best) / beta, pmfs, sizes, step / beta, copies, spec)


def _lattice_tie_pmf(lows, pmfs, sizes, step, copies, best) -> np.ndarray:
    """p_j = sum_s P(S_j = s) int_0^1 prod_{i != j} (P(S_i > s) + z P(S_i = s)) dz.

    Given S_j = s, j wins with probability E[1/(1 + N)], N the number of
    other actions tied at s, when none is below s; that expectation is the
    z-integral, a polynomial of degree K - 1 that ceil(K/2)-point
    Gauss-Legendre integrates exactly. At each node the product over the
    other actions is W / F_j (`_add_exclusive_products`) with
    F = P(S > s) + z P(S = s) and f = P(S = s); F's floor changes nothing
    that counts, as F_j >= z P(S_j = s) wherever P(S_j = s) > 0. Support
    values within TIE_RTOL of a smaller one tie with it, as in `_tie_mask`.
    Values above the best top of support lose to it surely, and laws whose
    support starts above it never win.
    """
    p = np.zeros(sizes.size)
    top = best + TIE_RTOL * (1.0 + abs(best))
    keep = np.flatnonzero(lows <= top)
    values = [lows[i] + step * np.arange(sizes[i]) for i in keep]
    support = np.unique(np.concatenate([v[v <= top] for v in values]))
    starts = support[np.concatenate(
        [[True], np.diff(support) > TIE_RTOL * (1.0 + np.abs(support[:-1]))])]
    eq = np.zeros((keep.size, starts.size))
    above = np.zeros((keep.size, 1))
    for row, (i, v) in enumerate(zip(keep, values)):
        within = v <= top
        tie = np.searchsorted(starts, v[within], side="right") - 1
        eq[row] = np.bincount(tie, weights=pmfs[i][within], minlength=starts.size)
        above[row] = pmfs[i][~within].sum()
    # P(S_i > s): the mass above later tie classes and above the top.
    gt = above + np.cumsum(eq[:, ::-1], axis=1)[:, ::-1] - eq
    many = copies[keep]
    x, w = _gauss_legendre(-(-int(many.sum()) // 2))
    for z, weight in zip((x + 1.0) / 2.0, w / 2.0):
        _add_exclusive_products(p, keep, weight, eq, gt + z * eq, many)
    return p


def _add_exclusive_products(p, laws, weight, f, cdf, copies) -> None:
    """p[laws] += weight * sum_n f_j(n) prod_{i != j} F_i(n), the product over
    the other actions at each node n, for (laws, nodes) arrays f and F = cdf
    and copies[i] actions with law i: that is (f_j / F_j) W for
    W = prod_i F_i^copies_i. F is floored at 1e-300 in place, so that f / F
    is finite; where the floor acts, f_j and W are negligible or 0.
    """
    np.maximum(cdf, 1e-300, out=cdf)
    joint = np.prod(cdf, axis=0)
    shared = copies > 1
    if shared.any():
        joint *= np.prod(cdf[shared] ** (copies[shared, None] - 1), axis=0)
    p[laws] += weight * ((f / cdf) @ joint)


def _next_fft_size(n: int) -> int:
    """Smallest 2^a 3^b >= n, a length pocketfft transforms fast."""
    return min((1 << max(0, math.ceil(math.log2(n / 3 ** b) - 1e-9))) * 3 ** b
               for b in range(int(math.log(n, 3)) + 2))


def _midpoint_count(h: float) -> int:
    """Midpoint nodes per period of width h for Gumbel noise, from the bound
    2 h M / (e^(2 pi a m / h) - 1) <= QUAD_TOL on the m-point midpoint rule
    for an h-periodic integrand analytic with |.| <= M on |Im o| < a
    (Trefethen and Weideman, SIAM Review 2014).

    With a = GUMBEL_STRIP and c = cos a, |F(z)| = exp(-c' e^-Re z) <= 1 for
    c' = cos Im z >= c, and |f(z)| <= phi(Re z) = e^-x exp(-c e^-x), which
    integrates to 1/c and peaks at 1/(c e). A sum of the unimodal phi over a
    lattice of spacing h is at most its integral over h plus its peak, so
    M = (1/h + 1/e) / c. That gives m = 2 at h = 1/2 and 4 at h = 1, the
    widest step `lattice_selection_pmf` leaves to the kernel.
    """
    c = math.cos(GUMBEL_STRIP)
    bound = 2.0 * (1.0 + h / math.e) / c
    return max(1, math.ceil(h * math.log1p(bound / QUAD_TOL) / (2.0 * math.pi * GUMBEL_STRIP)))


def _lattice_hazard_pmf(g, pmfs, sizes, h, copies, spec) -> np.ndarray:
    """p_j = int f_{Y_j}(y) prod_{i != j} F_{Y_i}(y) dy in noise-scale units:
    lowest scores g (top of support min 0) and lattice step h <= 1.

    A lattice law's F_Y(y) = sum_k pmf[k] F(y + g + h k) is the pmf
    correlated with F sampled on a grid of spacing h. The period is anchored
    at a lattice kink; points are evaluated directly. With
    W = prod_i F_{Y_i}^copies_i, p_j = int (f_{Y_j} / F_{Y_j}) W, summed
    over the in-period node offsets o (`_add_exclusive_products`); memory
    stays (laws x periods) per offset.

    Laplace and Exponential integrate the period as one Gauss-Legendre
    panel, split at each point's kink, so every kink is a panel edge: the
    period sum has a kink at o = 0 and is not smooth across it.
    Gumbel has no kinks. Summed over all periods, its integrand
    G(o) = sum_n f_{Y_j} prod F_{Y_i} (o + h n) is h-periodic and analytic
    in the strip |Im o| < pi/2, where |exp(-e^-z)| <= 1; the kernel drops
    only the terms beyond the end cuts below, which are negligible at the
    real nodes. So the midpoint rule, offsets (i + 1/2) h / m for i < m,
    each of weight h / m, converges exponentially in m / h, and
    `_midpoint_count` takes m from the rule's strip bound.

    Every lattice term's argument is z = o + h n with n an integer and
    0 < o < h, so n >= 0 exactly where z >= 0. Laplace and Exponential F is
    1 + a e^-z above 0 and b e^z below (`PIECES`), and f = F', so at
    offset o F_Y = T + a e^-o U + b e^(o - h) D and
    f_Y = -a e^-o U + b e^(o - h) D, from three correlations that do not
    depend on o: T = sum_{n >= 0} pmf, U = sum_{n >= 0} pmf e^(-h n) and
    D = sum_{n < 0} pmf e^(h (n + 1)) (Exponential has b = 0 and skips D).
    Every factor is at most 1, so nothing overflows at any h. Gumbel's F
    does not separate, so it takes one FFT convolution of F and one of f
    per offset.

    A law's floor t is its lowest support value with more than
    e^-PRUNE_SCALES of mass at or below it. A law with t > PRUNE_SCALES gets
    p = 0: it beats the best top of support 0 with probability at most that
    plus the two-action tail at gap PRUNE_SCALES, as in `_hazard_pmf`. The
    domain ends at PRUNE_SCALES - min t, above which no Y_j lies with
    probability over 2 e^-PRUNE_SCALES. Below the lower cut c the mass lost
    is at most P(max_i Y_i <= c) = W(c) <= prod_i F(c + top_i), and
    `_lower_cut` puts the log of that bound at LOG_CUT.
    """
    kind = spec.noise
    tail = math.exp(-PRUNE_SCALES)
    tops = g + h * (sizes - 1)
    floors = g + h * np.array([np.count_nonzero(np.cumsum(pmf) <= tail) for pmf in pmfs])
    p = np.zeros(sizes.size)
    keep = np.flatnonzero(floors <= PRUNE_SCALES)
    lattice = keep[sizes[keep] > 1]
    points = keep[sizes[keep] == 1]
    if copies[keep].sum() == 1:
        p[keep] = 1.0
        return p
    if lattice.size == 0:
        # The kept laws are points: the pmf of their score row, copies included.
        row = selection_pmf(np.repeat(g[keep] * spec.scale(), copies[keep]), spec)
        p[keep] = row[np.cumsum(copies[keep]) - 1]
        return p
    y_lo = _lower_cut(kind, np.sort(np.repeat(tops[keep], copies[keep]))[:CUT_ACTIONS])
    y_hi = PRUNE_SCALES - floors[keep].min()
    anchor = -g[lattice[0]]
    first = math.floor((y_lo - anchor) / h)
    periods = math.ceil((y_hi - anchor) / h) - first
    # Law i's kinks y = -(g_i + h k) are anchor - h (shift_i + k).
    shift = np.rint((g[lattice] + anchor) / h).astype(int)
    span = sizes[lattice]
    base = first + shift.min()
    count = int(periods + (shift + span).max() - shift.min() - 1)
    nfft = _next_fft_size(count)
    starts = shift - shift.min() + span - 1
    gather = (np.arange(lattice.size)[:, None], starts[:, None] + np.arange(periods))
    reversed_pmfs = np.zeros((lattice.size, nfft))
    for row, i in enumerate(lattice):
        reversed_pmfs[row, :span[row]] = pmfs[i][::-1]
    fft = np.fft
    kernels = fft.rfft(reversed_pmfs)

    def correlate(sequence):
        """(laws, periods): each law's pmf correlated with a grid sequence."""
        return fft.irfft(kernels * fft.rfft(sequence, nfft), nfft)[gather]

    n = base + np.arange(count)
    if kind is not NoiseKind.GUMBEL:
        # mass, upper and lower are the docstring's T, U and D.
        (_, b), (_, a) = PIECES[kind]
        ahead = n >= 0
        mass = correlate(ahead.astype(float))
        upper = correlate(np.where(ahead, np.exp(-h * np.maximum(n, 0)), 0.0))
        if b:
            lower = correlate(np.where(ahead, 0.0, np.exp(h * np.minimum(n + 1, 0))))
    if kind is NoiseKind.GUMBEL:
        m = _midpoint_count(h)
        offsets = h * (np.arange(m) + 0.5) / m
        weights = np.full(m, h / m)
    else:
        offsets, weights = _panel_nodes(np.union1d([0.0, h], np.mod(-g[points] - anchor, h)))
    y_period = anchor + h * (first + np.arange(periods))
    laws = np.concatenate([lattice, points])
    cdf = np.empty((laws.size, periods))
    pdf = np.empty((laws.size, periods))
    for offset, weight in zip(offsets, weights):
        if kind is NoiseKind.GUMBEL:
            z = offset + h * n
            cdf[:lattice.size] = correlate(noise_cdf(kind, z, 1.0))
            pdf[:lattice.size] = correlate(noise_pdf(kind, z, 1.0))
        else:
            up = upper * (a * math.exp(-offset))
            np.add(mass, up, out=cdf[:lattice.size])
            np.negative(up, out=pdf[:lattice.size])
            if b:
                down = lower * (b * math.exp(offset - h))
                cdf[:lattice.size] += down
                pdf[:lattice.size] += down
        if points.size:
            z = y_period + offset + g[points][:, None]
            cdf[lattice.size:] = noise_cdf(kind, z, 1.0)
            pdf[lattice.size:] = noise_pdf(kind, z, 1.0)
        # FFT rounding can leave F and f a few ulps below 0. Where W
        # underflows, every f_j prod_{i != j} F_i = (f_j / F_j) W is
        # negligible: nodes stay off the kinks, so f / F is bounded.
        np.maximum(pdf, 0.0, out=pdf)
        _add_exclusive_products(p, laws, weight, pdf, cdf, copies[laws])
    return p


def sample_pmf(pmf: np.ndarray, n: int, rng: RngStream) -> np.ndarray:
    """n i.i.d. draws from a pmf, one uniform each through its inverse CDF.

    Each draw picks the first entry whose cumulative sum exceeds x = u * total
    (u < 1 makes x < total, so there is one). The cumulative sum rises only
    at the support S, the nonzero entries, so that entry is S[c], where c
    counts the partial sums of pmf[S] before the last that are at most x
    (`_counts_at_most`). Adding a zero is exact, so these partial sums are
    bitwise the full cumulative sum's at S, and the picks are bitwise
    min(searchsorted(cumsum(pmf), x, "right"), K - 1).
    """
    support = np.flatnonzero(pmf)
    return support[_counts_at_most(np.cumsum(pmf[support]), n, rng)]


def _counts_at_most(cum: np.ndarray, n: int, rng: RngStream) -> np.ndarray:
    """For n draws x = u * cum[-1], u from one `rng.uniform(n)`, the number of
    entries of cum[:-1] at most x, by a branchless binary search vectorised
    over the draws.

    edges is cum[:-1] padded with +inf to 2^depth entries. Pass t settles bit
    depth - 1 - t of every count: with h = 2^(depth - 1 - t), x is compared
    with edges[(2 count + 1) h - 1], entry `count` of the view
    edges[h - 1::2h]. The first pass compares with a scalar (at depth 0 the
    +inf, so every count is 0); later passes share one buffer of gathered
    thresholds and one mask. take's mode="clip" clips nothing here, every
    index being in range, and spares the copy of `out` that "raise" makes.
    """
    x = rng.uniform(n)
    x *= cum[-1]
    depth = (cum.size - 1).bit_length()
    edges = np.full(1 << depth, np.inf)
    edges[:cum.size - 1] = cum[:-1]
    count = np.empty(n, dtype=np.intp)
    np.less_equal(edges[(1 << depth >> 1) - 1], x, out=count)
    if depth > 1:
        edge = np.empty(n)
        below = np.empty(n, dtype=bool)
        for t in range(1, depth):
            h = 1 << (depth - 1 - t)
            edges[h - 1::2 * h].take(count, out=edge, mode="clip")
            np.less_equal(edge, x, out=below)
            count <<= 1
            count += below
    return count


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
    rows = PIECES[kind]
    # The density's rows: d e^-|x| on each side.
    density = tuple((0.0, abs(d)) for _, d in rows)

    # coef[e, j, s, n + k]: coefficient of w^n in row j on segment s, anchored
    # at the segment's left (e = 0) or right (e = 1) end.
    coef = np.zeros((2, k, k + 1, 2 * k + 1))
    coef[..., k] = 1.0
    for col in range(k):
        shift = shifts[:, col:col + 1]
        neg, pos = density if col == 0 else rows
        # The factor's argument q + shift is >= 0 on the whole segment or < 0
        # on it; e^-|x| is e^(sigma x) with sigma = 1 below 0 and -1 above.
        c, d, sigma = (np.where(-shift <= lo, p, n) for n, p in zip((*neg, 1), (*pos, -1)))
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
