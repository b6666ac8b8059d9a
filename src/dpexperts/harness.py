"""Monte Carlo pseudoregret estimation, sweeps, and selection frequencies."""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import Instance, MechanismSpec, OutOfRange, RegretEstimate
from .engine import epoch_pmfs, run_batch, sample_scores
from .mechanism import select_batch
from .noise import RngStream, derive_seed

CSV_HEADER = "run_id,instance,K,B,noise,epsilon,T,trials,regret_mean,regret_stderr,seed"


@dataclass(frozen=True)
class SweepCell:
    """One (instance, spec, T) cell of a sweep with its regret estimate."""

    run_id: int
    label: str
    instance: Instance
    spec: MechanismSpec
    horizon: int
    trials: int
    estimate: RegretEstimate
    seed: int


def estimate_pseudoregret(instance: Instance, spec: MechanismSpec, horizon: int,
                          trials: int, base_seed: int,
                          pmfs: Optional[Sequence] = None) -> RegretEstimate:
    """Mean and stderr of the pseudoregret over independent trajectories;
    `pmfs` is as in `run_batch`."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = RngStream(derive_seed(base_seed, 0))
    regrets = run_batch(instance, spec, horizon, trials, rng, pmfs=pmfs)
    stderr = float(regrets.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return RegretEstimate(mean=float(regrets.mean()), stderr=stderr, trials=trials)


def selection_frequency(instance: Instance, spec: MechanismSpec, r: int,
                        trials: int, base_seed: int) -> np.ndarray:
    """Empirical pmf of the selection made at the end of epoch r; its
    2^(r - 1) steps are sampled by `sample_scores`, which raises OutOfRange
    where a count would overflow an int64 (r >= 64)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if r < 1:
        raise ValueError("epoch index must be >= 1")
    rng = RngStream(derive_seed(base_seed, r))
    scores = sample_scores(instance, spec.resample, 1 << (r - 1), trials, rng)
    selections = select_batch(scores, spec, rng)
    return np.bincount(selections, minlength=instance.k) / trials


def sweep(instances: Sequence[Tuple[str, Instance]], specs: Sequence[MechanismSpec],
          horizons: Sequence[int], trials: int, base_seed: int) -> List[SweepCell]:
    """Evaluate every instance x spec x horizon cell, in deterministic order.

    Each cell draws from its own derived seed. Each (instance, spec) pair
    computes its epoch pmfs once, for the largest horizon, and every
    horizon's cell samples from them. An OutOfRange from a cell is raised
    again with the instance label in front.
    """
    longest = max(horizons, default=1)
    cells = []
    pairs = [(label, instance, spec) for label, instance in instances for spec in specs]
    for idx, (label, instance, spec) in enumerate(pairs):
        pmfs = epoch_pmfs(instance, spec, longest)
        for run_id, horizon in enumerate(horizons, start=idx * len(horizons)):
            seed = derive_seed(base_seed, run_id)
            try:
                estimate = estimate_pseudoregret(instance, spec, horizon, trials, seed,
                                                 pmfs=pmfs)
            except OutOfRange as exc:
                raise OutOfRange(f"{label}: {exc}") from exc
            cells.append(SweepCell(run_id=run_id, label=label, instance=instance, spec=spec,
                                   horizon=horizon, trials=trials, estimate=estimate,
                                   seed=seed))
    return cells


def cells_to_csv(cells: Sequence[SweepCell]) -> str:
    """Render sweep cells to the canonical CSV schema."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for c in cells:
        writer.writerow([
            c.run_id, c.label, c.instance.k, c.spec.resample, c.spec.noise.value,
            repr(c.spec.epsilon), c.horizon, c.trials,
            repr(c.estimate.mean), repr(c.estimate.stderr), c.seed,
        ])
    return buf.getvalue()
