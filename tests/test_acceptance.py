"""End-to-end acceptance gate.

Each criterion runs one named verification suite, prints a single pass/fail
line with the suite's detail and wall time, and asserts both the outcome and
the runtime budget. Criterion 1 compares Monte Carlo on distinct score rows,
which draws real noise, with the exact selection pmf for every noise kind, at
B=0 and B=1, and must fail when that pmf is wrong. It is the one check of the
score and selection samplers; criteria 4, 5, 9 and 10 read the exact pmfs.
Criterion 8 is split by noise family; every family runs at scale 2/eps and
must meet e^eps under per-coordinate perturbations in {-1, 0, 1} (Gumbel
also in {-0.5, 0.5}), and every family's suite must fail at scale 1/eps.
Criteria 11 and 12 sample regret and noise.
"""
import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import special

from dpexperts import mechanism, verify
from dpexperts.core import NoiseKind

# Seconds per suite: 20 times its median over 5 runs on a shared 2-core VM,
# and at least 1 s, so that a budget catches a slowdown. Budgets only tighten.
BUDGETS = {
    "exact-vs-mc": 12.0,
    "shape-K": 1.0,
    "shape-eps": 1.0,
    "t-independence": 1.1,
    "monotonicity": 1.0,
    "binomial": 1.0,
    "softmax-derivative": 1.0,
    "softmax-series": 3.6,
    "privacy-gumbel": 1.0,
    "privacy-laplace": 1.0,
    "privacy-exponential": 1.0,
    "tails": 1.0,
    "resampling": 1.0,
    "laplace-shape": 1.2,
    "noise-ks": 1.0,
}


def _run(criterion: str, suite: str):
    start = time.perf_counter()
    result = verify.SUITES[suite]()
    elapsed = time.perf_counter() - start
    status = "PASS" if result.passed else "FAIL"
    print(f"[{criterion}] {status} ({elapsed:.1f}s) {result.detail}", flush=True)
    assert elapsed < BUDGETS[suite], f"{suite} exceeded {BUDGETS[suite]}s budget"
    assert result.passed, f"{criterion}: {result.detail}"


def test_criterion_01_exact_vs_monte_carlo():
    _run("criterion 1: exact vs Monte Carlo agreement, every noise family", "exact-vs-mc")


# A wrong exact pmf, the number of the 14 cells it fails, and the resampling
# bit of the first: the softmax at exponent -G eps instead of -G eps / 2 and
# the Laplace/Exponential kernel on doubled gaps fail deterministic B=0 cells;
# the lattice kernel on doubled scores and step, and the tie split with its
# laws reversed, fail Bernoulli B=1 cells.
PMF_MUTANTS = {
    "log_gumbel_selection_pmf": (lambda f: lambda scores, eps: f(scores, 2.0 * eps), 4, 0),
    "_hazard_pmf": (lambda f: lambda g, copies, kind: f(2.0 * g, copies, kind), 6, 0),
    "_lattice_hazard_pmf": (lambda f: lambda g, pmfs, sizes, h, copies, spec:
                            f(2.0 * g, pmfs, sizes, 2.0 * h, copies, spec), 3, 1),
    "_lattice_tie_pmf": (lambda f: lambda lows, pmfs, sizes, step, copies, best:
                         f(lows[::-1], pmfs[::-1], sizes[::-1], step, copies[::-1], best), 1, 1),
}


@pytest.mark.parametrize("name", sorted(PMF_MUTANTS))
def test_criterion_01_fails_under_a_wrong_pmf(monkeypatch, name):
    mutate, cells, resample = PMF_MUTANTS[name]
    monkeypatch.setattr(mechanism, name, mutate(getattr(mechanism, name)))
    result = verify.SUITES["exact-vs-mc"]()
    assert not result.passed
    assert result.detail.startswith(f"{cells} of 14 cells off, first cell ")
    assert f"(B={resample}, " in result.detail


def test_criterion_02_log_k_scaling():
    _run("criterion 2: regret scales like ln K", "shape-K")


def test_criterion_03_inverse_epsilon_scaling():
    _run("criterion 3: regret scales like 1/epsilon", "shape-eps")


def test_criterion_04_horizon_independence():
    _run("criterion 4: regret constant in T", "t-independence")


def test_criterion_05_selection_frequency_monotone():
    _run("criterion 5: exact selection pmf monotone, <= 1/j", "monotonicity")


def test_criterion_06_binomial_cdf_monotone_grid():
    _run("criterion 6: binomial CDF monotone in p, exact grid", "binomial")


def test_criterion_07_softmax_derivative_and_series_bounds():
    _run("criterion 7a: derivative bound", "softmax-derivative")
    _run("criterion 7b: partial-sum bound", "softmax-series")


def test_criterion_08a_privacy_ratio_gumbel():
    _run("criterion 8a: Gumbel privacy ratio <= e^eps", "privacy-gumbel")


def test_criterion_08b_privacy_ratio_laplace():
    _run("criterion 8b: Laplace privacy ratio <= e^eps", "privacy-laplace")


def test_criterion_08c_privacy_ratio_exponential():
    # Report-noisy-max with Exponential noise is eps-DP for scores that move by
    # up to 1 in either direction only at scale 2/eps. At scale 1/eps the worst
    # grid ratio is e^{2 eps} (7.389 at eps = 2), not 2e^eps - 1, which is the
    # ratio of the two-action pair (0, 1) / (1, 0).
    _run("criterion 8c: Exponential privacy ratio <= e^eps", "privacy-exponential")


# 1/2 e^-a (1 + a/2), 1/2 e^-a and the logistic expit(-a): the worse
# action's p among two actions whose scores differ by a noise scales.
TWO_ACTION_PICK = {
    NoiseKind.LAPLACE: lambda a: 0.5 * np.exp(-a) * (1.0 + a / 2.0),
    NoiseKind.EXPONENTIAL: lambda a: 0.5 * np.exp(-a),
    NoiseKind.GUMBEL: lambda a: special.expit(-a),
}

# K = 2 base vectors each suite draws, and the neighbours of each: 3 over
# 3^2 - 1 shifts for Laplace and Exponential, 15 over 5^2 - 1 for Gumbel.
TWO_ACTION_GRID = {
    NoiseKind.LAPLACE: (3, 8),
    NoiseKind.EXPONENTIAL: (3, 8),
    NoiseKind.GUMBEL: (15, 24),
}


@pytest.mark.parametrize("kind", list(TWO_ACTION_PICK))
def test_criterion_08_two_action_grid_pmfs_match_closed_forms(monkeypatch, kind):
    # Every two-action pmf the privacy grid scores, base vectors and stacked
    # neighbours alike.
    seen = []
    oracle = verify.rnm_pmf_oracle

    def recorded(scores, spec):
        pmf = oracle(scores, spec)
        if scores.shape[-1] == 2:
            seen.append((scores.reshape(-1, 2), spec.scale(), pmf.reshape(-1, 2)))
        return pmf

    monkeypatch.setattr(verify, "rnm_pmf_oracle", recorded)
    assert verify.SUITES[f"privacy-{kind.value}"]().passed
    bases, neighbours = TWO_ACTION_GRID[kind]
    assert sum(len(scores) for scores, _, _ in seen) == bases * (1 + neighbours)
    for scores, beta, pmf in seen:
        d = scores[:, 1] - scores[:, 0]
        worse = TWO_ACTION_PICK[kind](np.abs(d) / beta)
        assert np.abs(pmf[:, 1] - np.where(d > 0.0, worse, 1.0 - worse)).max() <= 1e-12
        assert np.abs(pmf[:, 0] - np.where(d > 0.0, 1.0 - worse, worse)).max() <= 1e-12


def _oracle_at_scale_one_over_eps(monkeypatch):
    oracle = verify.rnm_pmf_oracle
    monkeypatch.setattr(verify, "rnm_pmf_oracle", lambda scores, spec: oracle(
        scores, dataclasses.replace(spec, epsilon=2.0 * spec.epsilon)))


def test_criterion_08c_fails_at_scale_one_over_eps(monkeypatch):
    # Exponential report-noisy-max at scale 1/eps is only 2eps-DP: the worst
    # grid ratio is e^{2 eps}, and the suite must see it.
    _oracle_at_scale_one_over_eps(monkeypatch)
    for eps in (0.5, 1.0, 2.0):
        ratio = verify._oracle_ratio_grid(NoiseKind.EXPONENTIAL, eps, np.random.default_rng(4))
        assert ratio == pytest.approx(math.exp(2.0 * eps), rel=1e-12)
    assert not verify.SUITES["privacy-exponential"]().passed


@pytest.mark.parametrize("kind", [NoiseKind.GUMBEL, NoiseKind.LAPLACE])
def test_criterion_08ab_fail_at_scale_one_over_eps(monkeypatch, kind):
    # Scores move by up to 1 in either direction, so at scale 1/eps the
    # Gumbel and Laplace grids see ratios above e^eps too.
    _oracle_at_scale_one_over_eps(monkeypatch)
    result = verify.SUITES[f"privacy-{kind.value}"]()
    assert not result.passed
    if kind is NoiseKind.GUMBEL:
        # One failure per base vector, the first that vector's worst ratio.
        assert result.detail == "eps=0.5: ratio 2.605227"


def test_criterion_09_selection_tail_bounds():
    _run("criterion 9: exact selection tails below analytic bounds", "tails")


def test_criterion_10_resampling_first_selection():
    _run("criterion 10: resampling caps the first suboptimal pick at 1/2", "resampling")


def test_criterion_11_laplace_regret_shape_in_k():
    _run("criterion 11: Laplace regret*eps/ln^2 K shows no upward trend in K", "laplace-shape")


def test_criterion_12_noise_sampler_matches_its_cdf():
    _run("criterion 12: noise samples within KS distance 0.01 of the analytic CDF", "noise-ks")
