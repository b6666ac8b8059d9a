"""Full trajectory of the epoch-doubling noisy-max follow-the-leader algorithm."""
from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from .core import (
    Bernoulli,
    FiniteSupport,
    Instance,
    MechanismSpec,
    NoiseKind,
    OutOfRange,
    PointMass,
    RunRecord,
)
from .mechanism import (
    PRUNE_SCALES,
    TIE_RTOL,
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
    """(length, K) loss matrix; one uniform per coordinate through each model's
    inverse CDF: point-mass columns in one assignment, Bernoulli columns in one
    u < p comparison, finite supports through `model.sample`."""
    u = rng.uniform((length, instance.k))
    losses = np.empty_like(u)
    point = np.array([isinstance(m, PointMass) for m in instance.models])
    coin = np.array([isinstance(m, Bernoulli) for m in instance.models])
    losses[:, point] = instance.means[point]
    losses[:, coin] = u[:, coin] < instance.means[coin]
    for j in np.flatnonzero(~(point | coin)):
        losses[:, j] = instance.models[j].sample(u[:, j])
    return losses


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

    Distributionally exact shortcut for Monte Carlo at scale: with resampling
    the accumulated bits are Binomial(length, mu_j) regardless of the loss
    model (a Bernoulli bit with a random mean in [0, 1] is marginally Bernoulli
    of the expected mean, independently across steps); without resampling,
    point masses accumulate deterministically, Bernoulli losses are binomial,
    and finite-support losses reduce to multinomial atom counts.

    Point-mass columns consume no randomness; the random columns draw in
    column order.
    """
    point = np.array([not resample and isinstance(m, PointMass) for m in instance.models])
    gen = rng.generator
    scores = np.empty((trials, instance.k))
    scores[:, point] = length * instance.means[point]
    for j, model in enumerate(instance.models):
        if point[j]:
            continue
        if resample or isinstance(model, Bernoulli):
            scores[:, j] = gen.binomial(length, model.mean(), size=trials)
        elif isinstance(model, FiniteSupport):
            values = np.array([v for v, _ in model.atoms])
            probs = np.array([p for _, p in model.atoms])
            counts = gen.multinomial(length, probs / probs.sum(), size=trials)
            scores[:, j] = counts @ values
        else:
            raise TypeError(f"unknown loss model {model!r}")
    return scores


# A binomial pmf is cut where its log falls BINOMIAL_LOG_CUT below the mode's.
BINOMIAL_LOG_CUT = 70.0

# Lattice columns share one lattice when their steps agree to this relative
# tolerance and their lowest scores differ by whole steps to within this
# fraction of a step.
LATTICE_RTOL = 1e-12
LATTICE_ATOL_STEPS = 1e-6

# epoch_selection_pmf leaves an epoch to the sampler when its laws times its
# window, in refined lattice steps, exceed this many values: the kernel then
# holds a few arrays of that size, about 8 MB each. `lattice_selection_pmf`
# splits a step h noise scales wide into ceil(h) steps, so a window of w
# lattice steps holds w ceil(h) values.
PMF_MAX_VALUES = 1 << 20


def _binomial_pmf(n: int, p: float):
    """(lowest count, pmf) of Binomial(n, p), numpy only.

    The log-pmf relative to the mode m = floor((n + 1) p) is a cumsum of the
    log-ratios log((n - k) p / ((k + 1)(1 - p))) outwards from m, on a window
    doubled until both ends are below -BINOMIAL_LOG_CUT or at 0 and n. The
    pmf is cut there and divided by its sum. The cut is safe: the pmf is
    unimodal and its log is concave, so beyond the cut it falls faster than
    the Gaussian-like shape that carries unit mass inside, and the dropped
    mass is of order e^-70 = 4e-31, far below the 1e-13 the selection pmf
    is integrated to. Anchoring the mode's level with
    math.lgamma instead of the sum would be off by 4e-11 at n = 2^19 and 2e-8
    at n = 2^29: lgamma(n + 1) is about 1e7 there, and its rounding is
    absolute.
    """
    if p <= 0.0 or p >= 1.0:
        return (0 if p <= 0.0 else n), np.ones(1)
    mode = min(int((n + 1) * p), n)
    log_odds = math.log(p) - math.log1p(-p)
    width = int(12.0 * math.sqrt(n * p * (1.0 - p))) + 16
    while True:
        up = np.arange(mode, min(n, mode + width), dtype=float)
        down = np.arange(mode - 1, max(-1, mode - 1 - width), -1, dtype=float)
        log_up = np.cumsum(np.log((n - up) / (up + 1.0)) + log_odds)
        log_down = np.cumsum(np.log((down + 1.0) / (n - down)) - log_odds)
        if ((up.size == n - mode or log_up[-1] < -BINOMIAL_LOG_CUT)
                and (down.size == mode or log_down[-1] < -BINOMIAL_LOG_CUT)):
            break
        width *= 2
    log_pmf = np.concatenate([log_down[::-1], [0.0], log_up])
    kept = np.flatnonzero(log_pmf >= -BINOMIAL_LOG_CUT)
    pmf = np.exp(log_pmf[kept[0]:kept[-1] + 1])
    return mode - down.size + int(kept[0]), pmf / pmf.sum()


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
    integrates the selection over the laws.

    Actions that surely lose get p = 0 before their pmfs are built: by
    Hoeffding, a count the binomial cut keeps lies within
    sqrt(n (BINOMIAL_LOG_CUT + log(n + 1)) / 2) of n q, and an action whose
    lowest possible score is more than PRUNE_SCALES noise scales (ties,
    without noise) above every other's highest is one
    `lattice_selection_pmf` would prune anyway. When every action left has
    the same law, the pmf is uniform over them by exchangeability (one-hot
    when one is left), whatever their window.

    Returns None where the random scores share no single lattice (a finite
    support with three or more atoms, or lattice steps or offsets that
    differ), and where the laws times the integration window, in lattice
    steps refined to at most one noise scale (ceil(h) per step h noise
    scales wide), would exceed PMF_MAX_VALUES: supports many steps wide that
    overlap, noise many steps wide, or steps many noise scales wide.
    """
    base, step, n, q = _score_laws(instance, spec.resample, length)
    if np.isnan(q).any():
        return None
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
    pmf = np.zeros(instance.k)
    _, first, group, copies = np.unique(
        np.stack([base[near], step[near], n[near], q[near]], axis=1), axis=0,
        return_index=True, return_inverse=True, return_counts=True)
    if copies.size == 1:
        pmf[near] = 1.0 / near.size
        return pmf
    lattice = near[random[near]]
    if lattice.size == 0:
        pmf[near] = selection_pmf(base[near], spec)
        return pmf
    unit = step[lattice[0]]
    whole = (base[lattice] - base[lattice[0]]) / unit
    if (np.any(np.abs(step[lattice] - unit) > LATTICE_RTOL * unit)
            or np.any(np.abs(whole - np.round(whole)) > LATTICE_ATOL_STEPS)):
        return None
    # The window runs from 61 noise scales below the best top to 45 above
    # the lowest score (`_lattice_hazard_pmf`), and each convolution also
    # spans the widest support.
    spread = (centre + radius)[near].max() - (centre - radius)[near].min()
    width = (spread + 110.0 * spec.scale()) / unit + 2.0 * radius[near].max() / unit + 4.0
    split = math.ceil(unit / spec.scale()) if spec.noise is not NoiseKind.NONE else 1
    if copies.size * width * split > PMF_MAX_VALUES:
        return None
    lows, pmfs = [], []
    for i in near[first]:
        low, column = _binomial_pmf(int(n[i]), q[i]) if random[i] else (0, np.ones(1))
        lows.append(base[i] + step[i] * low)
        pmfs.append(column)
    pmf[near] = lattice_selection_pmf(np.array(lows), pmfs, unit, copies, spec)[group.ravel()]
    return pmf


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

    Fallback: where `epoch_selection_pmf` returns None (scores on no single
    lattice, or an integration window over PMF_MAX_VALUES), the epoch
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
                if length >= 1 << 63:
                    raise OutOfRange(f"epoch {r} has no exact selection pmf, and its {length} "
                                     "steps overflow the sampler's int64 counts")
                scores = sample_scores(instance, spec.resample, length, trials, rng)
                actions = select_batch(scores, spec, rng)
            else:
                actions = sample_pmf(pmf, trials, rng)
    return regret
