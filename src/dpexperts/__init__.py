"""Simulation lab for epsilon-differentially-private stochastic decision-theoretic
online learning: epoch-doubling noisy-max follow-the-leader variants, exact and
Monte Carlo pseudoregret measurement, and numeric verification of the
supporting bounds and scaling claims."""

from .core import (
    Bernoulli,
    FiniteSupport,
    Instance,
    MechanismSpec,
    NoiseKind,
    PointMass,
    RegretEstimate,
    RunRecord,
    TwoPointLoss,
    make_instance,
)
from .engine import run_rnm_ftnl
from .harness import estimate_pseudoregret, selection_frequency, sweep
from .noise import RngStream, derive_seed

__all__ = [
    "Bernoulli",
    "FiniteSupport",
    "Instance",
    "MechanismSpec",
    "NoiseKind",
    "PointMass",
    "RegretEstimate",
    "RngStream",
    "RunRecord",
    "TwoPointLoss",
    "derive_seed",
    "estimate_pseudoregret",
    "make_instance",
    "run_rnm_ftnl",
    "selection_frequency",
    "sweep",
]
