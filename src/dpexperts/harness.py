"""Monte Carlo pseudoregret estimation, sweeps, selection frequencies, and
scaling-shape tables."""
from __future__ import annotations

import csv
import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import Instance, MechanismSpec, NoiseKind, RegretEstimate
from .engine import run_batch, sample_scores
from .mechanism import select_batch
from .noise import RngStream, derive_seed

CSV_HEADER = "run_id,instance,K,B,noise,epsilon,T,trials,regret_mean,regret_stderr,seed"

DEFAULT_FREQUENCY_TRIALS = 100_000
DEFAULT_REGRET_TRIALS = 10_000


class AxisMismatch(ValueError):
    """Sweep cells do not vary along the requested axis only."""


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
                          trials: int, base_seed: int) -> RegretEstimate:
    """Mean and stderr of the pseudoregret over independent trajectories."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = RngStream(derive_seed(base_seed, 0))
    regrets = run_batch(instance, spec, horizon, trials, rng)
    stderr = float(regrets.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return RegretEstimate(mean=float(regrets.mean()), stderr=stderr, trials=trials)


def selection_frequency(instance: Instance, spec: MechanismSpec, r: int,
                        trials: int, base_seed: int) -> np.ndarray:
    """Empirical pmf of the selection made at the end of epoch r."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if r < 1:
        raise ValueError("epoch index must be >= 1")
    rng = RngStream(derive_seed(base_seed, r))
    scores = sample_scores(instance, spec.resample, 1 << (r - 1), trials, rng)
    selections = select_batch(scores, spec, rng)
    return np.bincount(selections, minlength=instance.k) / trials


def default_workers() -> int:
    """Sweep worker count from DPEXPERTS_THREADS, 1 if unset."""
    raw = os.environ.get("DPEXPERTS_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"DPEXPERTS_THREADS must be a positive integer, got {raw!r}")
    return workers


def sweep(instances: Sequence[Tuple[str, Instance]], specs: Sequence[MechanismSpec],
          horizons: Sequence[int], trials: int, base_seed: int,
          max_workers: Optional[int] = None) -> List[SweepCell]:
    """Evaluate every instance x spec x horizon cell, in deterministic order.

    Cells draw from per-cell derived seeds, so parallel and sequential execution
    produce identical results. Worker count defaults to DPEXPERTS_THREADS (1 if
    unset).
    """
    grid = [
        (label, instance, spec, horizon)
        for label, instance in instances
        for spec in specs
        for horizon in horizons
    ]
    if max_workers is None:
        max_workers = default_workers()

    def evaluate(idx_cell):
        idx, (label, instance, spec, horizon) = idx_cell
        seed = derive_seed(base_seed, idx)
        estimate = estimate_pseudoregret(instance, spec, horizon, trials, seed)
        return SweepCell(run_id=idx, label=label, instance=instance, spec=spec,
                         horizon=horizon, trials=trials, estimate=estimate, seed=seed)

    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(evaluate, enumerate(grid)))
    return [evaluate(item) for item in enumerate(grid)]


def cell_axis_value(cell: SweepCell, axis: str) -> float:
    if axis == "K":
        return float(cell.instance.k)
    if axis == "epsilon":
        return float(cell.spec.epsilon)
    if axis == "T":
        return float(cell.horizon)
    if axis == "delta_min":
        if cell.instance.delta_min is None:
            raise AxisMismatch(f"cell {cell.run_id} has no positive gap")
        return float(cell.instance.delta_min)
    raise AxisMismatch(f"unknown axis {axis!r}")


def _normalize(axis: str, axis_value: float, regret: float) -> float:
    if axis == "K":
        return regret / math.log(axis_value)
    if axis == "epsilon":
        return regret * axis_value
    if axis == "delta_min":
        return regret * axis_value
    return regret  # T axis: the claim is flatness, report regret unchanged


def scaling_report(cells: Sequence[SweepCell], axis: str) -> List[Tuple[float, float, float]]:
    """Rows of (axis value, regret, axis-normalized regret), sorted by axis value.

    Requires the cells to vary along the requested axis only; everything else
    (noise, B, and the non-axis coordinates) must be constant.
    """
    if not cells:
        return []
    values = [cell_axis_value(c, axis) for c in cells]
    if len(set(values)) != len(values):
        raise AxisMismatch(f"cells do not vary along axis {axis!r}")
    others = {
        "K": lambda c: (c.spec, c.horizon),
        "epsilon": lambda c: (c.label, c.instance.k, c.spec.resample, c.spec.noise, c.horizon),
        "T": lambda c: (c.label, c.spec),
        "delta_min": lambda c: (c.instance.k, c.spec, c.horizon),
    }[axis]
    if len({others(c) for c in cells}) != 1:
        raise AxisMismatch("cells vary in a non-axis coordinate")
    rows = [
        (v, c.estimate.mean, _normalize(axis, v, c.estimate.mean))
        for v, c in sorted(zip(values, cells), key=lambda t: t[0])
    ]
    return rows


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


def write_csv(cells: Sequence[SweepCell], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cells_to_csv(cells))
