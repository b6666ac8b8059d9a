"""Full trajectory of the epoch-doubling noisy-max follow-the-leader algorithm."""
from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from .core import Instance, MechanismSpec, OutOfRange, RunRecord
from .mechanism import (
    PMF_MAX_VALUES,
    PRUNE_SCALES,
    TIE_RTOL,
    _group_rows,
    bernoulli_resample,
    lattice_selection_pmf,
    sample_pmf,
    select_batch,
    selection_pmf,
)
from .noise import RngStream


class InvalidHorizon(ValueError):
    """Horizon must be an integer in [1, 2^1024)."""


def epoch_lengths(horizon: int) -> List[int]:
    """Doubling epoch lengths 1, 2, 4, ... with the last epoch truncated at T;
    T must be below 2^1024, from where it and epoch lengths overflow a float."""
    if horizon < 1:
        raise InvalidHorizon(f"horizon must be >= 1, got {horizon}")
    if horizon >= 1 << 1024:
        raise InvalidHorizon("horizon must be below 2^1024, where it and an epoch "
                             "length overflow a float")
    lengths = []
    t, r = 0, 1
    while t < horizon:
        length = min(1 << (r - 1), horizon - t)
        lengths.append(length)
        t += length
        r += 1
    return lengths


def _sample_epoch_losses(instance: Instance, length: int, rng: RngStream) -> np.ndarray:
    """(length, K) loss matrix; one uniform u per coordinate, and the loss
    law (b, a, q) of `Instance.laws` maps u < q to a and the rest to b."""
    u = rng.uniform((length, instance.k))
    b, a, q = instance.laws.T
    return np.where(u < q, a, b)


def run_rnm_ftnl(instance: Instance, spec: MechanismSpec, horizon: int,
                 rng: RngStream) -> RunRecord:
    """Simulate one trajectory and return its exact pseudoregret contribution.

    Uniform draws are consumed in a fixed order: one for the uniform initial
    action, then per epoch the loss uniforms (length x K), the resampling
    uniforms (length x K, only when resampling is on), and the selection's
    uniforms: `select_batch` on the epoch's one score row, K with noise and
    one without. Nothing reads the final epoch's losses, since its selection
    is never used, so that epoch draws nothing.
    """
    lengths = epoch_lengths(horizon)
    action = rng.index(instance.k)  # J_0 uniform over [K]
    regret = 0.0
    epochs = []
    for r, length in enumerate(lengths, start=1):
        regret += length * float(instance.gaps[action])
        epochs.append((r, action, length))
        if r < len(lengths):
            losses = _sample_epoch_losses(instance, length, rng)
            contrib = bernoulli_resample(losses, rng) if spec.resample else losses
            action = int(select_batch(contrib.sum(axis=0), spec, rng)[0])
    return RunRecord(horizon=horizon, epoch_actions=tuple(epochs), pseudoregret=regret,
                     seed=rng.seed)


def sample_scores(instance: Instance, resample: int, length: int, trials: int,
                  rng: RngStream) -> np.ndarray:
    """(trials, K) accumulated-score samples for one epoch of the given length.

    Distributionally exact shortcut for Monte Carlo at scale: each score is
    base + step * Binomial(length, q) (`_score_laws`). With resampling the
    accumulated bits are Binomial(length, mu_j) regardless of the loss law
    (a Bernoulli bit with a random mean in [0, 1] is marginally Bernoulli of
    the expected mean, independently across steps); without resampling, the
    loss b + (a - b) Bernoulli(q) sums to length b + (a - b) Binomial(length, q).

    Every column with a step draws its binomial, in column order, even at
    q = 0 or 1, where numpy still consumes the stream; point masses without
    resampling consume no randomness, and then every row is the one score
    row, returned as a read-only broadcast view of it (`select_batch` only
    reads its scores). A draw of 2^63 steps or more, whose counts overflow
    numpy's int64, raises OutOfRange.
    """
    base, step, _, q = _score_laws(instance, resample, length)
    draws = np.flatnonzero(step)
    if not draws.size:
        return np.broadcast_to(base, (trials, instance.k))
    if length >= 1 << 63:
        raise OutOfRange(f"{length} steps overflow the sampler's int64 counts")
    gen = rng.generator
    scores = np.tile(base, (trials, 1))
    for j in draws:
        scores[:, j] += step[j] * gen.binomial(length, float(q[j]), size=trials)
    return scores


# A binomial pmf is cut where its log falls BINOMIAL_LOG_CUT below the mode's.
# `_binomial_pmfs` builds its laws in blocks of rows whose windows hold at most
# BINOMIAL_BLOCK_VALUES values (256 KB), so that a block's arrays stay in cache.
BINOMIAL_LOG_CUT = 70.0
BINOMIAL_BLOCK_VALUES = 1 << 15

# Lattice columns share one lattice when their steps agree to this relative
# tolerance and their lowest scores differ by whole steps to within this
# fraction of a step.
LATTICE_RTOL = 1e-12
LATTICE_ATOL_STEPS = 1e-6


def _binomial_pmf(n: int, p: float):
    """(lowest count, pmf) of Binomial(n, p): the one-row call of
    `_binomial_pmfs`."""
    low, pmfs, sizes = _binomial_pmfs(n, [p])
    return int(low[0]), pmfs[0, :sizes[0]]


def _binomial_pmfs(n: int, qs):
    """(lowest counts, pmfs, sizes) of Binomial(n, q) for each q in qs, numpy
    only: row i of the zero-padded (laws, window) matrix pmfs holds the
    sizes[i] probabilities of counts lowest[i], lowest[i] + 1, ... A q of 0
    or 1 is a point at 0 or n, the row [1, 0, ...] of size 1.

    The log-pmf relative to the mode m = floor((n + 1) q) is a cumsum of the
    log-ratios log((n - k) q / ((k + 1)(1 - q))) outwards from m, on a
    window doubled until both ends are below -BINOMIAL_LOG_CUT or at 0 and
    n. The pmf is cut there and divided by its sum. The cut is safe: the pmf
    is unimodal and its log is concave, so beyond the cut it falls faster
    than the Gaussian-like shape that carries unit mass inside, and the
    dropped mass is of order e^-70 = 4e-31, far below the 1e-13 the
    selection pmf is integrated to. Anchoring the mode's level with
    math.lgamma instead of the sum would be off by 4e-11 at n = 2^19 and
    2e-8 at n = 2^29: lgamma(n + 1) is about 1e7 there, and its rounding is
    absolute.

    The laws are built a block of rows at a time (`_binomial_block`), each
    block's arrays within BINOMIAL_BLOCK_VALUES values. No row's arithmetic
    depends on the window or on the other rows, so every row is bitwise its
    one-row call.
    """
    # Each block starts from half-windows of 12 standard deviations.
    widths = [int(12.0 * math.sqrt(n * q * (1.0 - q))) + 16 for q in qs]
    rows = max(1, BINOMIAL_BLOCK_VALUES // (2 * max(widths) + 1))
    blocks = [_binomial_block(n, qs[i:i + rows], max(widths[i:i + rows]))
              for i in range(0, len(qs), rows)]
    if len(blocks) == 1:
        return blocks[0]
    lows = np.concatenate([low for low, _, _ in blocks])
    sizes = np.concatenate([size for _, _, size in blocks])
    pmfs = np.zeros((lows.size, sizes.max()))
    for i, (_, block, _) in zip(range(0, len(qs), rows), blocks):
        pmfs[i:i + rows, :block.shape[1]] = block
    return lows, pmfs, sizes


def _binomial_block(n: int, qs, width: int):
    """`_binomial_pmfs` of a few laws, from a half-window of `width` counts
    each side of every mode m = floor((n + 1) q).

    Rows 2i and 2i + 1 of log_pmf walk down and up from law i's mode: entry
    t is log P(k) / P(k + 1) at k = m - 1 - t, and log P(k + 1) / P(k) at
    k = m + t, so their cumsums are the log-pmf at m - 1 - t and m + 1 + t
    relative to the mode's. With s = k down and s = -k up, each ratio is
    (a + s) / (b - s): (k + 1) / (n - k) down and (n - k) / (1 + k) up,
    times the odds q / (1 - q) up and divided by them down. s is clipped at
    -1 down and -n up, where the ratio is 0, so counts past 0 and n take
    log-pmf -inf. The log-odds are taken with math.log, as np.log can
    differ from it by an ulp.
    """
    counts = [min(int((n + 1) * q), n) for q in qs]
    walks = np.array([walk for m, q in zip(counts, qs) for walk in _binomial_walks(n, m, q)])
    start, a, b, log_odds, floor = walks.T[..., None]
    while True:
        s = np.maximum(start - np.arange(width), floor)
        with np.errstate(divide="ignore"):
            log_pmf = np.log((a + s) / (b - s))
        log_pmf += log_odds
        log_pmf = log_pmf.cumsum(axis=1)
        # The counts kept are the first of each walk, as the log-pmf is
        # concave; a walk is done once its last count is cut.
        kept = (log_pmf >= -BINOMIAL_LOG_CUT).sum(axis=1).tolist()
        if max(kept) < width:
            break
        width *= 2
    # Row i of `laid` is law i's pmf, unnormalised, from count m - width to
    # m + width: the down walk reversed, the mode, the up walk. Each row's
    # kept counts are divided by their sum straight into its row of pmfs.
    # np.exp runs on the contiguous walks: on strided views its SIMD loop
    # can round differently.
    below, above = kept[0::2], kept[1::2]
    walked = np.exp(log_pmf)
    laid = np.concatenate([walked[0::2, ::-1], np.ones((len(qs), 1)), walked[1::2]], axis=1)
    sizes = [down + 1 + up for down, up in zip(below, above)]
    pmfs = np.zeros((len(qs), max(sizes)))
    for row, law, down, size in zip(pmfs, laid, below, sizes):
        kept_law = law[width - down:width - down + size]
        np.divide(kept_law, kept_law.sum(), out=row[:size])
    return np.array([m - down for m, down in zip(counts, below)]), pmfs, np.array(sizes)


def _binomial_walks(n: int, mode: int, q: float):
    """Per-row constants (start, a, b, log-odds, floor) of the two walks of
    `_binomial_block` from `mode`. A point, q = 0 or 1, has every count
    past 0 or n but its mode: its walk towards the other end takes log-odds
    -inf, and the clipped walk 0 in place of +inf, so both are -inf."""
    if q <= 0.0 or q >= 1.0:
        down, up = (0.0, -math.inf) if q <= 0.0 else (-math.inf, 0.0)
    else:
        up = math.log(q) - math.log1p(-q)
        down = -up
    return (mode - 1.0, 1.0, n, down, -1.0), (-mode, n, 1.0, up, -n)


def _score_laws(instance: Instance, resample: int, length: int):
    """Columns (base, step, n, q): each action's epoch score as
    base + step * Binomial(n, q), the laws `sample_scores` draws from:
    Binomial(length, mu) with resampling, and without it
    length b + (a - b) Binomial(length, q) for the loss law (b, a, q) of
    `Instance.laws`. n is a float: lengths from 2^63 on overflow an int64."""
    n = float(length)
    if resample:
        low, high, q = np.zeros(instance.k), np.ones(instance.k), instance.means
    else:
        low, high, q = instance.laws.T
    return n * low, high - low, np.full(instance.k, n), q


def epoch_selection_pmf(instance: Instance, spec: MechanismSpec, length: int):
    """Exact pmf of the action selected after one epoch of `length` steps,
    marginal over that epoch's scores and the selection noise.

    Each score is a point or a lattice variable (`_score_laws`). When every
    score is a point, as with point-mass losses and no resampling, the pmf
    is `selection_pmf` of the one score row every trial has. Otherwise
    actions with the same law are grouped, and `lattice_selection_pmf`
    integrates the selection over the laws, passed as one (laws, window)
    pmf matrix from `_binomial_pmfs`: every random law shares n = length,
    and a point is a row [1, 0, ...] of size 1 with q = 0.

    Actions that surely lose get p = 0 before their pmfs are built: by
    Hoeffding, a count the binomial cut keeps lies within
    sqrt(n (BINOMIAL_LOG_CUT + log(n + 1)) / 2) of n q, and an action whose
    lowest possible score is more than PRUNE_SCALES noise scales (ties,
    without noise) above every other's highest is one
    `lattice_selection_pmf` would prune anyway. When every action left has
    the same law, the pmf is uniform over them by exchangeability (one-hot
    when one is left), whatever their window.

    Returns None where the random scores share no single lattice (lattice
    steps or offsets that differ, which only the Python API builds), where
    the (laws, window) matrix, windows of that Hoeffding radius either side
    of n q, would hold more than PMF_MAX_VALUES values, and where
    `lattice_selection_pmf` refuses one of its arrays.
    """
    base, step, n, q = _score_laws(instance, spec.resample, length)
    random = (q > 0.0) & (q < 1.0)
    base += step * np.where(random, 0.0, np.round(q) * n)
    if not random.any():
        return selection_pmf(base, spec)
    step, n, q = (np.where(random, column, 0) for column in (step, n, q))
    radius = step * (np.sqrt(n * (BINOMIAL_LOG_CUT + np.log(n + 1.0)) / 2.0) + 1.0)
    centre = base + step * n * q
    best = (centre + radius).min()
    near = np.flatnonzero(
        centre - radius <= best + PRUNE_SCALES * spec.scale() + TIE_RTOL * (1.0 + abs(best)))
    # Each action near the best gets its pmf entry, and every other action 0.
    first, group, copies = _group_rows(np.stack([base[near], step[near], n[near], q[near]]))
    if copies.size == 1:
        return np.bincount(near, minlength=instance.k) / near.size
    lattice = near[random[near]]
    if lattice.size == 0:
        return np.bincount(near, selection_pmf(base[near], spec), instance.k)
    # The laws share one lattice, and their (laws, window) matrix, each row
    # within the Hoeffding radius of its mean, fits in PMF_MAX_VALUES; a
    # point has q = 0 and step 0, so its row is [1, 0, ...] and its lowest
    # score its base.
    unit = step[lattice[0]]
    whole = (base[lattice] - base[lattice[0]]) / unit
    if (np.any(np.abs(step[lattice] - unit) > LATTICE_RTOL * unit)
            or np.any(np.abs(whole - np.round(whole)) > LATTICE_ATOL_STEPS)
            or copies.size * (2.0 * radius[near].max() / unit + 1.0) > PMF_MAX_VALUES):
        return None
    laws = near[first]
    low, pmfs, sizes = _binomial_pmfs(int(n[lattice[0]]), q[laws].tolist())
    lows = base[laws] + step[laws] * low
    selected = lattice_selection_pmf(lows, pmfs, sizes, unit, copies, spec)
    return None if selected is None else np.bincount(near, selected[group], instance.k)


def epoch_pmfs(instance: Instance, spec: MechanismSpec, horizon: int) -> list:
    """`epoch_selection_pmf` of every epoch of the horizon but the last,
    whose selection is never played: lengths 1, 2, 4, ... Every horizon's
    non-final epochs have these lengths, so the list for the largest horizon
    serves every smaller one."""
    return [epoch_selection_pmf(instance, spec, length)
            for length in epoch_lengths(horizon)[:-1]]


def run_batch(instance: Instance, spec: MechanismSpec, horizon: int, trials: int,
              rng: RngStream, pmfs: Optional[Sequence] = None) -> np.ndarray:
    """Per-trial pseudoregret for `trials` independent trajectories.

    Scores never depend on the actions played (full information), so the
    selection entering epoch r depends only on epoch r-1's scores and the
    per-epoch selections are independent across epochs. Each epoch's picks
    are drawn from its exact selection pmf, `epoch_selection_pmf`, one
    uniform per trial through its inverse CDF (`sample_pmf`, a binary
    search over the pmf's support whose picks are bitwise those of
    `np.searchsorted` on the whole cumulative sum), so the per-trial regret
    has the distribution of looping `run_rnm_ftnl` (checked against it in
    the test suite). `pmfs`, `epoch_pmfs` of this or a larger horizon, saves
    recomputing them.

    An epoch whose pmf has one nonzero entry picks that action on every
    trial whatever its uniforms, so it skips them (`RngStream.skip`) and
    the next epoch adds one scalar regret to every trial: the stream, the
    picks and the regrets are bitwise those of drawing the uniforms.

    Fallback: where `epoch_selection_pmf` returns None (scores on no single
    lattice, or a (laws, n) array over PMF_MAX_VALUES values), the epoch
    samples its (trials, K) scores with `sample_scores` and selects with
    `select_batch`; an epoch of 2^63 steps or more, whose counts overflow the
    sampler's int64, raises OutOfRange naming it.
    """
    lengths = epoch_lengths(horizon)
    if pmfs is None:
        pmfs = epoch_pmfs(instance, spec, horizon)
    gaps = instance.gaps
    k = instance.k
    regret = np.zeros(trials)
    actions = np.minimum((rng.uniform(trials) * k).astype(int), k - 1)
    for r, length in enumerate(lengths, start=1):
        regret += length * gaps[actions]
        if r < len(lengths):
            pmf = pmfs[r - 1]
            if pmf is None:
                try:
                    scores = sample_scores(instance, spec.resample, length, trials, rng)
                except OutOfRange as exc:
                    raise OutOfRange(f"epoch {r} has no exact selection pmf, and its {exc}") from exc
                actions = select_batch(scores, spec, rng)
            elif np.count_nonzero(pmf) == 1:
                rng.skip(trials)
                actions = np.argmax(pmf)
            else:
                actions = sample_pmf(pmf, trials, rng)
    return regret
