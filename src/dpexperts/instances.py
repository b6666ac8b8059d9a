"""Constructors for the problem-instance families used by the experiments and bounds."""
from __future__ import annotations

import numpy as np

from .core import Bernoulli, FiniteSupport, Instance, OutOfRange, PointMass, make_instance


class BadK(ValueError):
    """Action count too small for the requested construction."""


class InstanceSpecError(ValueError):
    """Unparseable instance-spec string."""


def paper_example_two_actions() -> Instance:
    """Two actions where the suboptimal one usually shows the lower realized loss."""
    return make_instance([
        PointMass(0.3),
        FiniteSupport(((0.4, 0.8), (0.0, 0.2))),
    ])


def lower_bound_family(k: int, delta_min: float, l: int) -> Instance:
    """Worst-case deterministic family: zero mean at l, delta_min at its cyclic
    neighbors, 1 everywhere else. `l` is 1-based; indices wrap cyclically."""
    if k < 6:
        raise BadK(f"construction needs K >= 6, got {k}")
    if not (0.0 < delta_min < 1.0):
        raise OutOfRange("delta_min must lie in (0, 1)")
    if not (1 <= l <= k):
        raise OutOfRange(f"l must lie in 1..{k}")
    means = np.ones(k)
    means[l - 1] = 0.0
    means[(l - 2) % k] = delta_min
    means[l % k] = delta_min
    return deterministic_instance(means)


def worst_nonprivate_instance(k: int, delta_min: float) -> Instance:
    """Point-mass means (0, delta, ..., delta): hardest shape without privacy."""
    if k < 2:
        raise BadK(f"needs K >= 2, got {k}")
    if not (0.0 < delta_min <= 1.0):
        raise OutOfRange("delta_min must lie in (0, 1]")
    means = np.full(k, delta_min)
    means[0] = 0.0
    return deterministic_instance(means)


def deterministic_instance(means) -> Instance:
    """All-point-mass instance from a vector of means in [0, 1]."""
    means = np.asarray(means, dtype=float)
    if means.size == 0:
        raise OutOfRange("means must be nonempty")
    return make_instance([PointMass(float(m)) for m in means])


def uniform_grid_instance(k: int) -> Instance:
    """Deterministic means on the uniform grid (j - 1) / (K - 1)."""
    if k < 2:
        raise BadK(f"needs K >= 2, got {k}")
    return deterministic_instance(np.arange(k) / (k - 1))


def bernoulli_instance(means) -> Instance:
    """All-Bernoulli instance from a vector of means in [0, 1]."""
    means = np.asarray(means, dtype=float)
    if means.size == 0:
        raise OutOfRange("means must be nonempty")
    return make_instance([Bernoulli(float(m)) for m in means])


def _parse_kv(body: str, spec: str, keys: tuple) -> dict:
    out = {}
    for part in body.split(","):
        if "=" not in part:
            raise InstanceSpecError(f"expected key=value in {spec!r}")
        key, value = (side.strip() for side in part.split("=", 1))
        if key not in keys or key in out:
            raise InstanceSpecError(f"unknown or repeated key {key!r} in {spec!r}; "
                                    f"expected {', '.join(keys)} once each")
        out[key] = value
    return out


def parse_instance_spec(spec: str) -> Instance:
    """Parse the CLI instance grammar.

    Forms: "det:v1,v2,...", "bern:p1,p2,...", "grid:K=64",
    "lower-bound:K=16,delta=0.1,l=3", "worst-np:K=8,delta=0.25", "paper-example".
    """
    spec = spec.strip()
    try:
        if spec == "paper-example":
            return paper_example_two_actions()
        head, _, body = spec.partition(":")
        if head == "det":
            return deterministic_instance([float(v) for v in body.split(",")])
        if head == "bern":
            return bernoulli_instance([float(v) for v in body.split(",")])
        if head == "grid":
            kv = _parse_kv(body, spec, ("K",))
            return uniform_grid_instance(int(kv["K"]))
        if head == "lower-bound":
            kv = _parse_kv(body, spec, ("K", "delta", "l"))
            return lower_bound_family(int(kv["K"]), float(kv["delta"]), int(kv["l"]))
        if head == "worst-np":
            kv = _parse_kv(body, spec, ("K", "delta"))
            return worst_nonprivate_instance(int(kv["K"]), float(kv["delta"]))
    except (KeyError, ValueError) as exc:
        if isinstance(exc, InstanceSpecError):
            raise
        raise InstanceSpecError(f"cannot parse instance spec {spec!r}: {exc}") from exc
    raise InstanceSpecError(f"unknown instance spec {spec!r}")
