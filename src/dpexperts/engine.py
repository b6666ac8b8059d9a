"""Full trajectory of the epoch-doubling noisy-max follow-the-leader algorithm."""
from __future__ import annotations

from typing import List

import numpy as np

from .core import (
    Bernoulli,
    FiniteSupport,
    Instance,
    MechanismSpec,
    PointMass,
    RunRecord,
)
from .mechanism import bernoulli_resample, select_batch
from .noise import RngStream


class InvalidHorizon(ValueError):
    """Horizon must be a positive integer."""


def epoch_lengths(horizon: int) -> List[int]:
    """Doubling epoch lengths 1, 2, 4, ... with the last epoch truncated at T."""
    if horizon < 1:
        raise InvalidHorizon(f"horizon must be >= 1, got {horizon}")
    lengths = []
    t, r = 0, 1
    while t < horizon:
        length = min(1 << (r - 1), horizon - t)
        lengths.append(length)
        t += length
        r += 1
    return lengths


def _sample_epoch_losses(instance: Instance, length: int, rng: RngStream) -> np.ndarray:
    """(length, K) loss matrix; one uniform per coordinate through each model's inverse CDF."""
    u = rng.uniform((length, instance.k))
    losses = np.empty_like(u)
    for j, model in enumerate(instance.models):
        losses[:, j] = model.sample(u[:, j])
    return losses


def run_rnm_ftnl(instance: Instance, spec: MechanismSpec, horizon: int,
                 rng: RngStream) -> RunRecord:
    """Simulate one trajectory and return its exact pseudoregret contribution.

    Uniform draws are consumed in a fixed order: one for the uniform initial
    action, then per epoch the loss uniforms (length x K), the resampling
    uniforms (length x K, only when resampling is on), and the selection's
    uniforms: `select_batch` on the epoch's one score row, K with noise and
    one without. The selection after the final epoch is never used and is
    skipped.
    """
    lengths = epoch_lengths(horizon)
    action = rng.index(instance.k)  # J_0 uniform over [K]
    regret = 0.0
    epochs = []
    for r, length in enumerate(lengths, start=1):
        regret += length * float(instance.gaps[action])
        epochs.append((r, action, length))
        losses = _sample_epoch_losses(instance, length, rng)
        contrib = bernoulli_resample(losses, rng) if spec.resample else losses
        if r < len(lengths):
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
    column order. When no column is random (no resampling, every model a
    point mass) the result is `np.broadcast_to` of the single score row: a
    read-only view in which every trial shares that row's memory.
    """
    point = np.array([not resample and isinstance(m, PointMass) for m in instance.models])
    fixed = length * instance.means[point]
    if point.all():
        return np.broadcast_to(fixed, (trials, instance.k))
    gen = rng.generator
    scores = np.empty((trials, instance.k))
    scores[:, point] = fixed
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


def run_batch(instance: Instance, spec: MechanismSpec, horizon: int, trials: int,
              rng: RngStream) -> np.ndarray:
    """Per-trial pseudoregret for `trials` independent trajectories.

    Scores never depend on the actions played (full information), so the
    selection entering epoch r depends only on epoch r-1's scores and the
    per-epoch selections are independent across epochs. Each epoch is sampled
    via `sample_scores`; the result is distributionally identical to looping
    `run_rnm_ftnl` (checked against it in the test suite).
    """
    lengths = epoch_lengths(horizon)
    gaps = instance.gaps
    k = instance.k
    regret = np.zeros(trials)
    actions = np.minimum((rng.uniform(trials) * k).astype(int), k - 1)
    for r, length in enumerate(lengths, start=1):
        regret += length * gaps[actions]
        if r < len(lengths):
            scores = sample_scores(instance, spec.resample, length, trials, rng)
            actions = select_batch(scores, spec, rng)
    return regret
