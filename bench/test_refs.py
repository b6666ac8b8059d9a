"""Known-answer tests for the benchmark's independent references.

Run with: python3 -m pytest bench -q
"""
import itertools
import math

import numpy as np
import pytest
from scipy import special, stats

import refs

CONTINUOUS = ("laplace", "exponential", "gumbel")
# Midpoint-rule error of the 1-D integral at the default grid step.
QUAD_TOL = 5e-5


@pytest.mark.parametrize("noise", refs.NOISES)
def test_equal_scores_give_half(noise):
    assert refs.two_action_pick(noise, 0.0, 2.0) == pytest.approx(0.5, abs=1e-15)
    pmf = refs.det_pick_pmf([3.0, 3.0], noise, 2.0)
    assert pmf == pytest.approx([0.5, 0.5], abs=QUAD_TOL)


@pytest.mark.parametrize("noise", refs.NOISES)
def test_huge_gap_gives_zero(noise):
    assert refs.two_action_pick(noise, 1e4, 2.0) == pytest.approx(0.0, abs=1e-300)
    assert refs.two_action_pick(noise, -1e4, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert refs.det_pick_pmf([0.0, 1e4], noise, 2.0) == pytest.approx([1.0, 0.0], abs=QUAD_TOL)


@pytest.mark.parametrize("noise", CONTINUOUS)
def test_two_action_closed_form_matches_sampled_noise(noise):
    rng = np.random.default_rng(1)
    beta, n = 2.0, 400_000
    draw = {
        "laplace": lambda: rng.laplace(0.0, beta, n),
        "exponential": lambda: rng.exponential(beta, n),
        "gumbel": lambda: rng.gumbel(0.0, beta, n),
    }[noise]
    diff = draw() - draw()
    for d in (-3.0, -0.5, 0.7, 4.0):
        freq = float(np.mean(diff > d))
        p = float(refs.two_action_pick(noise, d, beta))
        assert abs(freq - p) < 5.0 * math.sqrt(p * (1 - p) / n)


@pytest.mark.parametrize("noise", ("laplace", "exponential"))
def test_quadrature_matches_two_action_closed_form(noise):
    for d in (0.0, 0.3, 1.7, 9.0):
        pmf = refs.rnm_pmf_quadrature([0.0, d], noise, 2.0)
        assert pmf[1] == pytest.approx(refs.two_action_pick(noise, d, 2.0), abs=QUAD_TOL)
        assert pmf.sum() == pytest.approx(1.0, abs=QUAD_TOL)


def test_quadrature_matches_gumbel_softmax():
    scores = np.array([0.0, 0.4, 1.3, 2.0, 2.0, 7.5, 200.0])
    pmf = refs.rnm_pmf_quadrature(scores, "gumbel", 2.0)
    assert pmf == pytest.approx(special.softmax(-scores / 2.0), abs=1e-9)


@pytest.mark.parametrize("noise", CONTINUOUS)
def test_quadrature_equal_scores_are_uniform(noise):
    pmf = refs.rnm_pmf_quadrature(np.full(5, 1.25), noise, 0.5)
    assert pmf == pytest.approx(np.full(5, 0.2), abs=QUAD_TOL)


@pytest.mark.parametrize("noise", ("laplace", "exponential"))
def test_quadrature_error_falls_as_step_squared(noise):
    exact = refs.two_action_pick(noise, 1.7, 2.0)
    err = [abs(refs.rnm_pmf_quadrature([0.0, 1.7], noise, 2.0, points_per_scale=m)[1] - exact)
           for m in (refs.POINTS_PER_SCALE, 4 * refs.POINTS_PER_SCALE)]
    assert err[1] < err[0] / 8.0


@pytest.mark.parametrize("noise", ("laplace", "exponential"))
def test_quadrature_matches_sampled_selection(noise):
    rng = np.random.default_rng(7)
    scores = np.array([0.0, 0.5, 1.0, 3.0])
    n = 400_000
    q = rng.laplace(0.0, 1.0, (n, 4)) if noise == "laplace" else rng.exponential(1.0, (n, 4))
    freq = np.bincount(np.argmax(-scores + q, axis=1), minlength=4) / n
    pmf = refs.rnm_pmf_quadrature(scores, noise, 1.0)
    assert np.all(np.abs(freq - pmf) < 5.0 * np.sqrt(pmf * (1 - pmf) / n) + 1e-12)


def test_epoch_lengths():
    assert refs.epoch_lengths(1) == [1]
    assert refs.epoch_lengths(7) == [1, 2, 4]
    assert refs.epoch_lengths(10) == [1, 2, 4, 3]
    assert sum(refs.epoch_lengths((1 << 30) - 1)) == (1 << 30) - 1


def _brute_two_action(actions, resample, noise, beta, horizon):
    """Enumerate every loss sequence of every epoch (tiny horizons only)."""
    def outcomes(action):
        if resample or action[0] == "bernoulli":
            p = refs.action_mean(action)
            return [(1.0, p), (0.0, 1.0 - p)]
        if action[0] == "point":
            return [(action[1], 1.0)]
        _, a, b, q = action
        return [(a, q), (b, 1.0 - q)]

    means = [refs.action_mean(a) for a in actions]
    gaps = [m - min(means) for m in means]
    lengths = refs.epoch_lengths(horizon)
    total = lengths[0] * 0.5 * sum(gaps)
    for prev, length in zip(lengths, lengths[1:]):
        p1 = 0.0
        seqs = [list(itertools.product(outcomes(a), repeat=prev)) for a in actions]
        for seq0 in seqs[0]:
            for seq1 in seqs[1]:
                prob = math.prod(w for _, w in seq0) * math.prod(w for _, w in seq1)
                d = sum(v for v, _ in seq1) - sum(v for v, _ in seq0)
                p1 += prob * float(refs.two_action_pick(noise, round(d, 12), beta))
        total += length * (gaps[0] * (1 - p1) + gaps[1] * p1)
    return total


@pytest.mark.parametrize("actions,resample", [
    ((("point", 0.3), ("two-atom", 0.4, 0.0, 0.8)), 0),
    ((("point", 0.3), ("two-atom", 0.4, 0.0, 0.8)), 1),
    ((("bernoulli", 0.4), ("bernoulli", 0.5)), 0),
])
@pytest.mark.parametrize("noise", refs.NOISES)
def test_two_action_regret_matches_enumeration(actions, resample, noise):
    got = refs.two_action_regret(actions, resample, noise, 2.0, 15)
    assert got == pytest.approx(_brute_two_action(actions, resample, noise, 2.0, 15), rel=1e-12)


def test_binomial_difference_matches_direct_convolution():
    n = 50
    d, pmf = refs._difference(refs.epoch_score_lattice(("bernoulli", 0.55), n, 0),
                              refs.epoch_score_lattice(("bernoulli", 0.35), n, 0))
    k = np.arange(n + 1)
    direct = np.convolve(stats.binom.pmf(k, n, 0.55), stats.binom.pmf(k, n, 0.35)[::-1])
    support = np.arange(-n, n + 1)
    lookup = dict(zip(support.tolist(), direct))
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    for value, mass in zip(d, pmf):
        assert mass == pytest.approx(lookup[int(round(value))], abs=1e-15)


def test_det_regret_noiseless_is_first_epoch_only():
    means = [0.0, 0.25, 0.5, 1.0]
    assert refs.det_regret(means, "none", 0.0, (1 << 30) - 1) == pytest.approx(np.mean(means))


def test_det_regret_gumbel_by_hand():
    # T = 3: a uniform first step, then two steps on the softmax of the 1-step scores.
    means = np.array([0.0, 1.0])
    p_bad = special.expit(-1.0 / 2.0)
    assert refs.det_regret(means, "gumbel", 2.0, 3) == pytest.approx(0.5 + 2.0 * p_bad)


def test_regret_upper_bound():
    assert refs.regret_upper_bound([0.0, 0.5], 7) == pytest.approx(3.5)


def test_instance_means():
    assert refs.grid_means(5) == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert refs.lower_bound_means(6, 0.1, 1) == pytest.approx([0.0, 0.1, 1.0, 1.0, 1.0, 0.1])
    assert refs.worst_np_means(3, 0.25) == pytest.approx([0.0, 0.25, 0.25])
