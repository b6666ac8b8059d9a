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

# `lattice_selection_pmf` returns None rather than make a (laws, n) array of
# more than this many values: the refined pmf matrix, laws times periods, or
# laws times tie classes. The kernel then holds a few arrays of that size,
# about 8 MB each. `engine.epoch_selection_pmf` counts its binomial matrix
# the same way.
PMF_MAX_VALUES = 1 << 20

# selection_pmf under Laplace and Exponential noise, in noise-scale units. An
# action g > PRUNE_SCALES scales behind the best gets p = 0 (its p is at most
# the two-action tail e^-g (1 + g/2) / 2 < 1e-18). Below the lower cut
# (`_lower_cut`) every action's integrand is under e^LOG_CUT times its
# density. Panels of GL_ORDER-point Gauss-Legendre are one scale wide for
# UNIT_PANELS scales above the cut, then WIDE_PANEL scales wide, up to the
# tail start y0 >= 0; above y0 the integrand is a polynomial in t = e^-y,
# integrated by one TAIL_ORDER-point rule in t.
#
# TAIL_ORDER is certified by the Bernstein-ellipse bound for Gauss quadrature
# (Trefethen, Approximation Theory and Approximation Practice, Thm 19.3, which
# states it for the (n+1)-point rule): an m-point rule on [-1, 1] errs by at
# most (64/15) M rho^(2-2m) / (rho^2 - 1) for an integrand bounded by M on the
# ellipse E_rho. Over t in [0, e^-y0], E_rho reaches |t| <= e^-y0 (rho+1)^2 /
# (4 rho), and the tail integrand -d tau_j prod_{i != j} (1 + d tau_i t) is
# there at most |d| tau_j e^((rho+1)^2 / (4 rho)), as S = |d| sum_i tau_i e^-y0
# <= 1. With the half-width e^-y0 / 2 and |d| tau_j e^-y0 <= 1, each p_j errs
# by at most (32/15) e^((rho+1)^2 / (4 rho)) rho^(2-2m) / (rho^2 - 1), and the
# errors of all p_j together by the same (the |d| tau_j e^-y0 sum to S). The
# integrand is entire, so rho is free: m = 7 gives 1.4e-18 at rho = 56, and
# m = 6 no better than 3.8e-15.
PRUNE_SCALES = 45.0
LOG_CUT = -60.0
GL_ORDER = 12
TAIL_ORDER = 7
UNIT_PANELS = 8
WIDE_PANEL = 3.0

# `_lattice_hazard_pmf` under Gumbel noise: the midpoint rule over a period
# is accurate to QUAD_TOL, bounded on the strip |Im o| < GUMBEL_STRIP (below
# pi/2, where |F| <= 1). Lattice terms at z are summed directly only inside
# GUMBEL_BAND. Below it e^-z > 745.2, so F(z) = exp(-e^-z) < e^-745.2 is under
# half the least subnormal: float64 rounds F to 0, and f = e^-z F with it.
# Above it e^-z < 2^-53, so F is 1 and f = e^-z F is e^-z, each to within the
# unit roundoff 2^-53 relative.
QUAD_TOL = 1e-13
GUMBEL_STRIP = 1.4
GUMBEL_BAND = (-math.log(745.2), 53 * math.log(2))

# `_geometric_suffix` runs its filters in blocks this many noise scales long,
# so that the factors e^(h i) within a block stay below e^300.
FILTER_SCALES = 300.0


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


def _group_rows(columns: np.ndarray):
    """The first index, group and count of each distinct row of
    `columns.T`, groups in lexicographic row order: what
    `np.unique(columns.T, axis=0, return_index=True, return_inverse=True,
    return_counts=True)` returns after its values, from one stable lexsort."""
    order = np.lexsort(columns[::-1])
    ordered = columns[:, order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = np.any(ordered[:, 1:] != ordered[:, :-1], axis=0)
    group = np.empty(order.size, dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    return order[starts], group, np.bincount(group)


def selection_pmf(scores: np.ndarray, spec: MechanismSpec) -> np.ndarray:
    """Exact selection pmf of report-noisy-max on one score vector, any K.

    Gumbel noise gives the softmax, `log_gumbel_selection_pmf`; no noise
    splits the tie set evenly; Laplace and Exponential noise integrate
    `_hazard_pmf` by Gauss-Legendre quadrature, on one vector only, each
    distinct score once for all its copies. On two-level scores (one
    action at 0 and K - 1 at L / 2048, eps = 1, L = 2^9 ... 2^23), p_0 is
    within 3.3e-16, 8.9e-15, 5.3e-14 and 4.7e-13 of the Exponential closed
    form at K = 16, 1024, 4096 and 2^16. The Gumbel and noiseless pmfs work
    along the last axis, one pmf per row of a stack.
    """
    scores = np.asarray(scores, dtype=float)
    if spec.noise is NoiseKind.NONE:
        ties = _tie_mask(scores, scores.min(axis=-1, keepdims=True))
        return ties / ties.sum(axis=-1, keepdims=True)
    if spec.noise is NoiseKind.GUMBEL:
        return np.exp(log_gumbel_selection_pmf(scores, spec.epsilon))
    if scores.ndim != 1:
        raise ValueError(f"one score vector only under {spec.noise.value} noise; "
                         f"rnm_pmf_oracle takes stacks (K <= {ORACLE_MAX_ACTIONS})")
    return _hazard_pmf((scores - scores.min()) / spec.scale(), np.ones(scores.size), spec.noise)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order: int = GL_ORDER):
    """Gauss-Legendre nodes and weights on [-1, 1], made on first use, so that
    importing the package does not import numpy.polynomial."""
    return np.polynomial.legendre.leggauss(order)


@functools.lru_cache(maxsize=None)
def _tail_rule():
    """TAIL_ORDER-point Gauss-Legendre in t over [0, e^-y0], in y = -log t:
    with t = e^-y0 u for u in [0, 1], the nodes are y0 - log u and the
    weights w_u / (2 u), free of y0. Returns the offsets -log u and those
    weights."""
    x, w = _gauss_legendre(TAIL_ORDER)
    u = (x + 1.0) / 2.0
    return -np.log(u), w / 2.0 / u


def _panel_nodes(edges: np.ndarray):
    """GL_ORDER-point Gauss-Legendre nodes and weights on each panel between
    consecutive sorted edges."""
    mid = (edges[1:] + edges[:-1]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    x, w = _gauss_legendre()
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def _lower_cut(kind: NoiseKind, part: np.ndarray, copies: np.ndarray) -> float:
    """The crossing of b(y) = sum_i copies_i log F(y + part_i) with LOG_CUT,
    less a rounding margin, so that b <= LOG_CUT there, for sorted parts
    part >= 0 with copies_i copies each. A part below 0, as a lattice top
    can round to, is taken as 0, which only raises b and so keeps the cut
    at or below the crossing.

    b rises with y, and callers choose part so that b bounds the integrand
    below the cut. Every F here is log-concave (Bagnoli and Bergstrom 2005),
    so b is concave and lies below each of its tangents: a Newton step
    towards LOG_CUT, from any point, lands where b <= LOG_CUT, and from such
    a point it rises towards the crossing. The steps start at the largest
    root of a bound on b and stop once a step is within rounding. Gumbel's
    b = -e^-y sum_i copies_i e^-part_i is its own bound. A law with mass
    d e^z below 0 has log F(z) <= log d + z everywhere, so over the k
    smallest parts b(y) <= k log d + k y + sum_{i<k} part_i, whose root is
    y_k. Exponential noise, which has none, has log F(z) <= -e^-z, so the
    Gumbel root bounds it too, and F(z) <= z, so by Jensen's inequality
    b(y) <= k log(y + m_k) for the mean m_k of the k smallest parts, whose
    root is e^(LOG_CUT / k) - m_k. Its cut is 0 at the lowest, as callers
    shift so that some factor F(y + 0), and so every integrand, is 0 below
    0. The steps settle within 20 on every part set tried (up to 65,535
    parts); the cap of 100 turns a NaN, which never settles, into an error.
    """
    part = np.maximum(part, 0.0)
    counts, sums = np.cumsum(copies), np.cumsum(copies * part)
    floor, y = -math.inf, math.log(copies @ np.exp(-part) / -LOG_CUT)
    if kind in PIECES and PIECES[kind][0][1]:
        y = ((LOG_CUT - sums) / counts).max() - math.log(PIECES[kind][0][1])
    elif kind in PIECES:
        floor, y = 0.0, max(0.0, y, (np.exp(LOG_CUT / counts) - sums / counts).max())
    for _ in range(100):
        z = y + part
        cdf = noise_cdf(kind, z, 1.0)
        log_cdf, rate = np.log(cdf), noise_pdf(kind, z, 1.0) / cdf
        slope = copies @ rate
        # Rounding z, F (Gumbel's e^-z = |log F| too), log F and the product
        # puts each term c log F within 2 eps c (1 + |log F| + r |z|) of its
        # value, for r = f / F and eps = 2^-52, and summing N terms adds
        # N eps |b| / 2: b is off by at most
        # E = (N + 4) eps sum_i c (1 + |log F| + r |z|). The last step, from
        # where |LOG_CUT - b| <= E, lands where b <= LOG_CUT + E, up to E
        # times the slope's rounding, and b falls by at least 2 E over the
        # two margins E / b' below it (concavity: b' rises as y falls).
        # eps |y| covers rounding y itself.
        err = (part.size + 4) * copies @ (1.0 - log_cdf + rate * np.abs(z)) / slope
        margin = 2.0 ** -52 * (err + abs(y))
        step = (LOG_CUT - copies @ log_cdf) / slope
        y += step
        if step <= margin:
            return max(floor, y - 2.0 * margin)
    raise ArithmeticError(f"no lower cut found for parts {part} with copies {copies}")


def _quadrature_nodes(kind: NoiseKind, g: np.ndarray, copies: np.ndarray):
    """Gauss-Legendre nodes and weights on [`_lower_cut`, inf) for sorted
    gaps g >= 0 with g[0] = 0, copies[i] actions at g[i].

    The cut bounds b(y) over every gap but one copy of the smallest. b then
    bounds log prod_{i != j} F(y + g_i) from above for every action j, so
    below the cut each integrand is under e^LOG_CUT f(y + g_j). Panels run
    up to y0 = max(0, cut, log(|d| sum_i copies_i tau_i)), for tau = e^-g
    and the `PIECES` d above 0: one scale wide for UNIT_PANELS scales above
    the cut, then WIDE_PANEL scales wide. A law with mass below 0 has a kink
    at each y = -g_i <= 0, so its panels are split there; one without has
    factors analytic on the domain. Above y0 every z = y + g_i >= 0, so with
    t = e^-y, F_i = 1 + d tau_i t and f_j dy = -d tau_j dt, and each p_j's
    tail is the integral of a polynomial over t in [0, e^-y0]: one
    TAIL_ORDER-point rule in t, mapped back as nodes y = -log t with weights
    w_t / t (`_tail_rule`), to the bound given at TAIL_ORDER
    (S = |d| sum_i copies_i tau_i e^-y0 <= 1).
    """
    rest = np.concatenate([[copies[0] - 1], copies[1:]])
    lo = _lower_cut(kind, g[rest > 0], rest[rest > 0])
    top = max(0.0, lo, math.log(abs(PIECES[kind][1][1]) * (copies @ np.exp(-g))))
    unit = lo + np.arange(UNIT_PANELS + 1.0)
    edges = np.concatenate([unit[unit < top],
                            np.arange(unit[-1] + WIDE_PANEL, top, WIDE_PANEL),
                            [top]])
    if PIECES[kind][0][1]:
        edges = np.union1d(edges, -g[-g > lo])
    y, w = _panel_nodes(edges)
    offsets, weights = _tail_rule()
    return np.concatenate([y, top + offsets]), np.concatenate([w, weights])


def _hazard_pmf(g: np.ndarray, copies: np.ndarray, kind: NoiseKind) -> np.ndarray:
    """p_j = int f(y + g_j) prod_{i != j} F(y + g_i) dy for unit-scale noise,
    for each of the copies[j] actions at gap g_j, every j at once: gaps
    g = (G - min G) / beta in any order. Gumbel's is the softmax
    e^-g_j / sum_i copies_i e^-g_i.

    Under Laplace and Exponential noise, a gap above PRUNE_SCALES gets
    p = 0, and when one action is left it gets 1. The kept gaps are sorted
    and grouped once (`_group_rows`), and each distinct gap is integrated
    once for all its copies. At each Gauss-Legendre node the product over
    the other actions is W / F_j (`_add_exclusive_products`), a block of
    (distinct gaps, nodes) at a time, with the node weights folded into f.
    F and f are read off t = e^-z for z = y + g: F = 1 + d t and f = -d t
    at z >= 0, and F = f = d' / t below 0, for the `PIECES` d above 0 and
    d' below. The nodes (`_quadrature_nodes`) are y-panels up to
    y0 = max(0, cut, log(|d| sum_i copies_i e^-g_i)) and, above y0, where
    no z is below 0, one TAIL_ORDER-point rule in e^-y, on which each p_j's
    tail is a polynomial; that rule errs by at most 1.4e-18 per entry.
    """
    if kind is NoiseKind.GUMBEL:
        return np.exp(-g) / (copies @ np.exp(-g))
    keep = np.flatnonzero(g <= PRUNE_SCALES)
    if keep.size == 1 and copies[keep[0]] == 1:
        return (g <= PRUNE_SCALES).astype(float)
    first, group, _ = _group_rows(g[keep][None])
    gaps, counts = g[keep][first], np.bincount(group, copies[keep])
    p = np.zeros(gaps.size)
    (_, d_lo), (_, d_hi) = PIECES[kind]
    y, w = _quadrature_nodes(kind, gaps, counts)
    exp_g = np.exp(-gaps)
    cols = max(1, SELECT_BLOCK_VALUES // gaps.size)
    for lo in range(0, y.size, cols):
        t = np.multiply.outer(exp_g, np.exp(-y[lo:lo + cols]))
        below = t > 1.0
        cdf = 1.0 + d_hi * t
        cdf[below] = d_lo / t[below]
        pdf = np.multiply(t, -d_hi, out=t)
        pdf[below] = cdf[below]
        pdf *= w[lo:lo + cols]
        _add_exclusive_products(p, slice(None), 1.0, pdf, cdf, counts)
    # Each kept action gets its group's p, and every other action 0.
    return np.bincount(keep, p[group], g.size)


def lattice_selection_pmf(lows: np.ndarray, pmfs: np.ndarray, sizes: np.ndarray, step: float,
                          copies: np.ndarray, spec: MechanismSpec) -> np.ndarray | None:
    """Exact selection pmf of report-noisy-max on independent random scores,
    marginal over the scores and the noise.

    Law i is lows[i] + step * k with probability pmfs[i, k] for
    k < sizes[i]: one zero-padded (laws, window) matrix. copies[i] actions
    have law i; the result holds each one's selection probability, so
    sum(copies * result) is 1. A law of size 1, a row [1, 0, ...], is a
    point and may lie anywhere; the longer laws are lattice laws and must
    share one lattice: step > 0 and lows congruent modulo step. Without
    noise the tie split is summed over the support (`_lattice_tie_pmf`);
    with noise p_j = int f_{Y_j} prod_{i != j} F_{Y_i} for
    Y_i = -S_i + Q_i is integrated on lattice-aligned periods
    (`_lattice_hazard_pmf`). A step h > 1 noise scales wide is first split
    into ceil(h) equal steps, with zeros between a row's entries, so the
    kernel integrates steps at most one noise scale wide. Returns None
    where this refined matrix or a kernel's (laws, n) arrays would hold more
    than PMF_MAX_VALUES values.
    """
    lows = np.asarray(lows, dtype=float)
    best = (lows + step * (sizes - 1)).min()
    if spec.noise is NoiseKind.NONE:
        return _lattice_tie_pmf(lows, pmfs, sizes, step, copies, best)
    beta = spec.scale()
    split = math.ceil(step / beta)
    if split > 1:
        width = (pmfs.shape[1] - 1) * split + 1
        if sizes.size * width > PMF_MAX_VALUES:
            return None
        fine = np.zeros((sizes.size, width))
        fine[:, ::split] = pmfs
        pmfs, sizes, step = fine, (sizes - 1) * split + 1, step / split
    # Scores are shift-invariant; shifting by the best top of support keeps
    # the nodes near 0, where a point's F(y + c) loses no digits.
    return _lattice_hazard_pmf((lows - best) / beta, pmfs, sizes, step / beta, copies, spec)


def _lattice_tie_pmf(lows, pmfs, sizes, step, copies, best) -> np.ndarray | None:
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
    if keep.size * starts.size > PMF_MAX_VALUES:
        return None
    eq = np.zeros((keep.size, starts.size))
    above = np.zeros((keep.size, 1))
    for row, (i, v) in enumerate(zip(keep, values)):
        within = v <= top
        tie = np.searchsorted(starts, v[within], side="right") - 1
        law = pmfs[i, :sizes[i]]
        eq[row] = np.bincount(tie, weights=law[within], minlength=starts.size)
        above[row] = law[~within].sum()
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
    joint = np.prod(np.maximum(cdf, 1e-300, out=cdf), axis=0)
    shared = copies > 1
    if shared.any():
        joint *= np.prod(cdf[shared] ** (copies[shared, None] - 1), axis=0)
    p[laws] += weight * ((f / cdf) @ joint)


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


def _geometric_suffix(x: np.ndarray, h: float) -> np.ndarray:
    """V[:, j] = sum_{k >= j} x[:, k] e^(-h (k - j)) for j = 0..w, with
    V[:, w] = 0, on rows x >= 0 of width w and h > 0: the filter
    V[j] = x[j] + e^-h V[j + 1], from cumulative sums of nonnegative terms.

    The rows run in blocks of B = floor(FILTER_SCALES / h) columns. At
    column i of a block, V = e^(-h (B - 1 - i)) sum_{i <= k < B} x[k]
    e^(h (B - 1 - k)) plus e^(-h (B - i)) times V at the next block's start,
    carried from the last block back. The factors lie in [e^-300, e^300],
    so nothing overflows however long the row, and as each term is scaled
    up before the sum and the sum down after it, no term underflows before
    the value it belongs to does.
    """
    rows, w = x.shape
    block = min(w, max(1, int(FILTER_SCALES / h)))
    blocks = -(-w // block)
    scale = np.exp(h * np.arange(block - 1, -1, -1))
    out = np.zeros((rows, blocks * block + 1))
    out[:, :w] = x
    local = out[:, :-1].reshape(rows, blocks, block)
    local *= scale
    local[:] = local[..., ::-1].cumsum(axis=2)[..., ::-1]
    local /= scale
    if blocks > 1:
        starts = np.zeros((rows, blocks + 1))
        carry = math.exp(-h * block)
        for b in range(blocks - 1, -1, -1):
            starts[:, b] = local[:, b, 0] + carry * starts[:, b + 1]
        local += starts[:, 1:, None] * (math.exp(-h) / scale)
    return out[:, :w + 1]


def _tail_sums(pmfs: np.ndarray, lowest: np.ndarray, periods: int, h: float, lower: bool):
    """(laws, periods) arrays T, U and D of `_lattice_hazard_pmf` for rows
    pmfs of width w whose entry k has lattice index n = lowest + t + k at
    period t: T = sum_{n >= 0} pmf, U = sum_{n >= 0} pmf e^(-h n) and
    D = sum_{n < 0} pmf e^(h (n + 1)), or None for D unless `lower`.

    With m = lowest + t and j = clip(-m, 0, w), T = S[j],
    U = V[j] e^(-h max(m, 0)) and D = Dv[j] e^(-h max(-m - w, 0)), for the
    suffix sum S[j] = sum_{k >= j} pmf[k] and the geometric filters
    V[j] = pmf[j] + e^-h V[j + 1] and Dv[j + 1] = e^-h Dv[j] + pmf[j],
    Dv[0] = 0 (`_geometric_suffix`, on the reversed rows for Dv). Both
    factors are e^(-h |m + j|): where they differ, V[w] = 0 or Dv[0] = 0.
    Every term is nonnegative, so each sum is accurate relative to itself.
    """
    rows, w = pmfs.shape
    m = lowest[:, None] + np.arange(periods)
    j = np.clip(-m, 0, w)
    decay = np.exp(-h * np.abs(m + j))
    # Flat indices of row r's column j in a (laws, w + 1) array.
    j += (w + 1) * np.arange(rows)[:, None]
    suffix = np.zeros((rows, w + 1))
    suffix[:, :w] = pmfs[:, ::-1].cumsum(axis=1)[:, ::-1]
    mass = suffix.take(j)
    upper = _geometric_suffix(pmfs, h).take(j)
    upper *= decay
    if not lower:
        return mass, upper, None
    down = _geometric_suffix(pmfs[:, ::-1], h)[:, ::-1].take(j)
    down *= decay
    return mass, upper, down


def _lattice_hazard_pmf(g, pmfs, sizes, h, copies, spec) -> np.ndarray | None:
    """p_j = int f_{Y_j}(y) prod_{i != j} F_{Y_i}(y) dy in noise-scale units:
    lowest scores g (top of support min 0), lattice step h <= 1, and law i
    the first sizes[i] entries of row i of the (laws, window) matrix pmfs.

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
    f_Y = -a e^-o U + b e^(o - h) D, from three sums that do not depend on
    o: T = sum_{n >= 0} pmf, U = sum_{n >= 0} pmf e^(-h n) and
    D = sum_{n < 0} pmf e^(h (n + 1)) (Exponential has b = 0 and skips D).
    `_tail_sums` takes them from cumulative sums of nonnegative terms, and
    a < 0 < b, so f_Y is a sum of nonnegative terms too. Every factor is at
    most 1, so nothing overflows at any h. Gumbel's F does not separate, but
    float64 makes F and f 0 below GUMBEL_BAND, and F = 1 and f = e^-z above
    it. With N the first index above the band, F_Y = T + B_F and
    f_Y = e^-(o + h N) U + B_f, for T and U of `_tail_sums` on the indices
    n - N, and band sums B_F and B_f: each row correlated directly with F
    and f sampled at the band's z, about 43 / h samples per offset. Terms
    below the band are 0 and skipped. Every term of every sum is
    nonnegative, so under every noise kind small entries are accurate
    relative to themselves, down to the prune.

    A law's floor t is its lowest support value with more than
    e^-PRUNE_SCALES of mass at or below it. A law with t > PRUNE_SCALES gets
    p = 0: it beats the best top of support 0 with probability at most that
    plus the two-action tail at gap PRUNE_SCALES, as in `_hazard_pmf`. The
    domain ends at PRUNE_SCALES - min t, above which no Y_j lies with
    probability over 2 e^-PRUNE_SCALES. Below the lower cut c the mass lost
    is at most P(max_i Y_i <= c) = W(c) <= prod_i F(c + top_i)^copies_i,
    and `_lower_cut` puts the log of that bound at LOG_CUT, with tops that
    round below 0 taken as 0. When one action is left, or every kept law is
    a point, `_hazard_pmf` of the kept tops gives the pmf.
    """
    kind = spec.noise
    tops = g + h * (sizes - 1)
    floors = g + h * (pmfs.cumsum(axis=1) <= math.exp(-PRUNE_SCALES)).sum(axis=1)
    p = np.zeros(sizes.size)
    keep = np.flatnonzero(floors <= PRUNE_SCALES)
    lattice = keep[sizes[keep] > 1]
    points = keep[sizes[keep] == 1]
    if lattice.size == 0 or copies[keep].sum() == 1:
        # One action is left, or only points, whose tops are their gaps.
        p[keep] = _hazard_pmf(tops[keep], copies[keep], kind)
        return p
    order = keep[np.argsort(tops[keep])]
    y_lo = _lower_cut(kind, tops[order], copies[order])
    y_hi = PRUNE_SCALES - floors[keep].min()
    anchor = -g[lattice[0]]
    first = math.floor((y_lo - anchor) / h)
    periods = math.ceil((y_hi - anchor) / h) - first
    if keep.size * periods > PMF_MAX_VALUES:
        return None
    # Law i's kinks y = -(g_i + h k) are anchor - h (shift_i + k).
    shift = np.rint((g[lattice] + anchor) / h).astype(int)
    span = sizes[lattice]
    width = span.max()
    if kind is NoiseKind.GUMBEL:
        # Band indices bottom <= n < top, so top is the docstring's N; mass and
        # upper are T and U of the indices n >= top.
        bottom, top = math.floor(GUMBEL_BAND[0] / h), math.ceil(GUMBEL_BAND[1] / h)
        band = h * np.arange(bottom, top)
        mass, upper, _ = _tail_sums(pmfs[lattice, :width], first + shift - top, periods, h,
                                    lower=False)
        # The period at which law i's full correlation with the band starts.
        starts = bottom - first - shift - span + 1
        m = _midpoint_count(h)
        offsets = h * (np.arange(m) + 0.5) / m
        weights = np.full(m, h / m)
    else:
        # mass, upper and lower are the docstring's T, U and D.
        (_, b), (_, a) = PIECES[kind]
        mass, upper, lower = _tail_sums(pmfs[lattice, :width], first + shift, periods, h,
                                        lower=bool(b))
        offsets, weights = _panel_nodes(np.union1d([0.0, h], np.mod(-g[points] - anchor, h)))
    y_period = anchor + h * (first + np.arange(periods))
    laws = np.concatenate([lattice, points])
    cdf = np.empty((laws.size, periods))
    pdf = np.empty((laws.size, periods))
    for offset, weight in zip(offsets, weights):
        if kind is NoiseKind.GUMBEL:
            cdf[:lattice.size] = mass
            pdf[:lattice.size] = upper * math.exp(-offset - h * top)
            z = offset + band
            for out, grid in ((cdf, noise_cdf(kind, z, 1.0)), (pdf, noise_pdf(kind, z, 1.0))):
                for row, (i, start) in enumerate(zip(lattice, starts)):
                    full = np.correlate(grid, pmfs[i, :sizes[i]], "full")
                    lo, hi = max(start, 0), min(start + full.size, periods)
                    if lo < hi:
                        out[row, lo:hi] += full[lo - start:hi - start]
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
    or Exponential noise, every j of every row of a (m, K) stack at once.

    Between consecutive breakpoints (0 and the G_j - G_i) every factor is a
    constant plus one exponential, so the integrand is a Laurent polynomial in
    w = exp(q - a) for an anchor a. The terms of power n > 0 are expanded at
    the segment's right end and those of power n < 0 at its left end, where
    |w^n| is largest. Each factor's exponential is at most 1 at either end, so
    every coefficient stays bounded however wide the gaps, and a term
    integrates to coef * (1 - exp(-|n| width)) / |n| without overflow. The
    constant term integrates to coef * width.

    The stack is taken in chunks of rows whose coefficient arrays hold at most
    SELECT_BLOCK_VALUES values, and each row's arithmetic is that of a stack
    of one, so a row's pmf does not depend on the stack around it.
    """
    m, k = scores.shape
    chunk = max(1, SELECT_BLOCK_VALUES // (2 * k * (k + 1) * (2 * k + 1)))
    if m > chunk:
        return np.concatenate([_closed_form_pmf(scores[lo:lo + chunk], kind)
                               for lo in range(0, m, chunk)])
    # Row j of a vector holds action j's factors: the density (shift 0), then
    # F(q + G_i - G_j).
    others = ~np.eye(k, dtype=bool)
    shifts = np.zeros((m, k, k))
    shifts[..., 1:] = (scores[:, None, :] - scores[:, :, None])[:, others].reshape(m, k, k - 1)
    # Row j's segments; repeated breakpoints leave zero-width segments, which
    # integrate to 0.
    edges = np.sort(-shifts, axis=-1)
    lo = np.concatenate([np.full((m, k, 1), -np.inf), edges], axis=-1)
    hi = np.concatenate([edges, np.full((m, k, 1), np.inf)], axis=-1)
    width = hi - lo
    # Unbounded segments are anchored at their finite end: there, every term
    # that would grow towards the infinite end has coefficient zero.
    anchors = np.stack([np.where(np.isfinite(lo), lo, hi), np.where(np.isfinite(hi), hi, lo)])
    rows = PIECES[kind]
    # The density's rows: d e^-|x| on each side.
    density = tuple((0.0, abs(d)) for _, d in rows)

    # coef[e, r, j, s, n + k]: coefficient of w^n in row j of vector r on
    # segment s, anchored at the segment's left (e = 0) or right (e = 1) end.
    coef = np.zeros((2, m, k, k + 1, 2 * k + 1))
    coef[..., k] = 1.0
    for col in range(k):
        shift = shifts[..., col:col + 1]
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

    n = np.arange(1, k + 1)
    decay = -np.expm1(-n * width[..., None]) / n  # (1 - exp(-|n| width)) / |n|, |n| = 1..k
    finite_width = np.where(np.isfinite(width), width, 0.0)
    return ((coef[1, ..., k + 1:] * decay).sum(axis=(-2, -1))
            + (coef[0, ..., :k] * decay[..., ::-1]).sum(axis=(-2, -1))
            + (coef[0, ..., k] * finite_width).sum(axis=-1))


def rnm_pmf_oracle(scores: np.ndarray, spec: MechanismSpec) -> np.ndarray:
    """Exact selection pmf: p_j = int f(q) prod_{i != j} F(q + G_i - G_j) dq.

    Works along the last axis, so a (m, K) stack of score vectors gives m
    pmfs in one call, each bitwise the pmf of its row alone. Laplace and
    Exponential noise use the piecewise closed form of `_closed_form_pmf`,
    independent of the samplers; Gumbel noise uses its softmax closed form,
    `log_gumbel_selection_pmf`; no noise splits each row's ties evenly.
    """
    scores = np.asarray(scores, dtype=float)
    k = scores.shape[-1]
    if k > ORACLE_MAX_ACTIONS:
        raise TooManyActions(f"oracle supports at most {ORACLE_MAX_ACTIONS} actions, got {k}")
    if spec.noise in (NoiseKind.NONE, NoiseKind.GUMBEL):
        return selection_pmf(scores, spec)
    stack = (scores / spec.scale()).reshape(-1, k)
    return _closed_form_pmf(stack, spec.noise).reshape(scores.shape)
