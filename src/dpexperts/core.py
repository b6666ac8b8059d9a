"""Shared domain types: loss laws, problem instances, mechanism configs, run records."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

# Validation tolerance for probabilities and derived quantities.
PROB_TOL = 1e-12


class InvalidSupport(ValueError):
    """A loss value lies outside [0, 1], or a loss takes three or more values."""


class InvalidProbabilities(ValueError):
    """Atom probabilities are negative or do not sum to 1."""


class OutOfRange(ValueError):
    """An input coordinate lies outside its required range."""


def _check_unit_interval(value: float, what: str) -> None:
    if not (0.0 <= value <= 1.0):
        raise InvalidSupport(f"{what} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class TwoPointLoss:
    """Loss b + (a - b) Bernoulli(q): a with probability q, else b, with
    0 <= b <= a <= 1. A point mass is (v, v, 0) and a Bernoulli loss (0, 1, p)."""

    b: float
    a: float
    q: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.b <= self.a <= 1.0:
            raise InvalidSupport(f"loss values need 0 <= b <= a <= 1, got b={self.b!r}, "
                                 f"a={self.a!r}")
        if not 0.0 <= self.q <= 1.0:
            raise InvalidProbabilities(f"P[loss = a] must lie in [0, 1], got {self.q!r}")

    def mean(self) -> float:
        return self.b + (self.a - self.b) * self.q


def PointMass(value: float) -> TwoPointLoss:
    """Loss that is always equal to `value`."""
    _check_unit_interval(value, "point mass value")
    return TwoPointLoss(value, value, 0.0)


def Bernoulli(p: float) -> TwoPointLoss:
    """Loss in {0, 1} with P[loss = 1] = p."""
    _check_unit_interval(p, "Bernoulli mean")
    return TwoPointLoss(0.0, 1.0, p)


def FiniteSupport(atoms) -> TwoPointLoss:
    """Loss taking finitely many values; atoms is a tuple of (value, prob)
    whose probabilities sum to 1, with at most two values of positive
    probability: b < a, and q = P(a) / total."""
    atoms = tuple((float(v), float(p)) for v, p in atoms)
    if not atoms:
        raise InvalidProbabilities("finite-support model needs at least one atom")
    for v, p in atoms:
        _check_unit_interval(v, "finite-support value")
        if not (math.isfinite(p) and p >= 0.0):
            raise InvalidProbabilities(f"atom probability {p!r} is negative or not finite")
    total = math.fsum(p for _, p in atoms)
    if abs(total - 1.0) > PROB_TOL:
        raise InvalidProbabilities(f"atom probabilities sum to {total!r}, expected 1")
    values = sorted({v for v, p in atoms if p > 0.0})
    if len(values) > 2:
        raise InvalidSupport(f"a loss takes at most two values, got {len(values)} of "
                             f"positive probability")
    if len(values) == 1:
        return PointMass(values[0])
    b, a = values
    return TwoPointLoss(b, a, math.fsum(p for v, p in atoms if v == a) / total)


@dataclass(frozen=True)
class Instance:
    """K actions with loss models and the derived means/gaps.

    Actions keep their given order; gaps are taken against the minimum mean, and
    delta_min is the smallest strictly positive gap (None when all means tie).
    Row j of laws is (b, a, q) of models[j], a `TwoPointLoss`: action j's
    loss is b + (a - b) Bernoulli(q).
    Immutable after construction; safe to share across concurrent trials.
    """

    models: tuple
    means: np.ndarray
    gaps: np.ndarray
    delta_min: Optional[float]
    laws: np.ndarray

    @property
    def k(self) -> int:
        return len(self.models)


def make_instance(models) -> Instance:
    """Build an Instance from a nonempty list of `TwoPointLoss` laws."""
    models = tuple(models)
    if not models:
        raise OutOfRange("an instance needs at least one action")
    means = np.array([m.mean() for m in models], dtype=float)
    gaps = means - means.min()
    positive = gaps[gaps > 0.0]
    delta_min = float(positive.min()) if positive.size else None
    laws = np.array([(m.b, m.a, m.q) for m in models], dtype=float)
    return Instance(models=models, means=means, gaps=gaps, delta_min=delta_min, laws=laws)


class NoiseKind(str, Enum):
    LAPLACE = "laplace"
    EXPONENTIAL = "exponential"
    GUMBEL = "gumbel"
    NONE = "none"


@dataclass(frozen=True)
class MechanismSpec:
    """Selection-step configuration: resampling bit, noise family, privacy parameter."""

    resample: int
    noise: NoiseKind
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.resample not in (0, 1):
            raise OutOfRange(f"resample bit must be 0 or 1, got {self.resample!r}")
        noise = NoiseKind(self.noise)
        object.__setattr__(self, "noise", noise)
        if noise is not NoiseKind.NONE and not 0.0 < self.epsilon < math.inf:
            raise OutOfRange(f"epsilon must be positive and finite for {noise.value} noise")
        if noise is not NoiseKind.NONE and not math.isfinite(self.scale()):
            raise OutOfRange(f"epsilon {float(self.epsilon)!r} is too small: the noise scale "
                             f"2/epsilon overflows")

    def scale(self) -> float:
        """Noise scale: 2/eps for Laplace, Exponential and Gumbel, 0 without noise.

        Neighbouring score vectors differ by at most 1 in every coordinate, in
        either direction, so the score sensitivity is 1 but not monotone.
        Report-noisy-max is eps-DP under that relation at scale 2/eps for each
        family; one-sided Exponential noise at 1/eps would only be 2eps-DP.
        """
        if self.noise is NoiseKind.NONE:
            return 0.0
        return 2.0 / self.epsilon


@dataclass(frozen=True)
class RunRecord:
    """One trajectory: per-epoch selections and the exact pseudoregret contribution."""

    horizon: int
    epoch_actions: tuple  # of (epoch index r, action played through epoch r, length)
    pseudoregret: float
    seed: int

    def __post_init__(self) -> None:
        total = sum(length for _, _, length in self.epoch_actions)
        if total != self.horizon:
            raise OutOfRange(f"epoch lengths sum to {total}, expected horizon {self.horizon}")
        if self.pseudoregret < 0.0:
            raise OutOfRange(f"negative pseudoregret {self.pseudoregret!r}")


@dataclass(frozen=True)
class RegretEstimate:
    """Monte Carlo pseudoregret estimate for one (instance, spec, T) cell."""

    mean: float
    stderr: float
    trials: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise OutOfRange("trials must be >= 1")
        if self.stderr < 0.0:
            raise OutOfRange("stderr must be >= 0")
