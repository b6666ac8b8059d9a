import math

import mpmath as mp
import numpy as np
import pytest

from dpexperts.core import MechanismSpec, NoiseKind, OutOfRange
from dpexperts.mechanism import (
    ORACLE_MAX_ACTIONS,
    TooManyActions,
    bernoulli_resample,
    gumbel_selection_pmf,
    log_gumbel_selection_pmf,
    report_noisy_max,
    rnm_pmf_oracle,
    select_batch,
)
from dpexperts.noise import RngStream


class TestResampling:
    def test_resampled_bits_have_right_mean(self):
        loss = np.full(200_000, 0.37)
        bits = bernoulli_resample(loss, RngStream(4))
        assert set(np.unique(bits)) <= {0.0, 1.0}
        assert bits.mean() == pytest.approx(0.37, abs=0.005)

    def test_endpoints_are_deterministic(self):
        loss = np.array([0.0, 1.0, 0.0, 1.0])
        assert bernoulli_resample(loss, RngStream(0)).tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_rejects_losses_outside_unit_interval(self):
        with pytest.raises(OutOfRange):
            bernoulli_resample(np.array([0.5, 1.2]), RngStream(0))
        with pytest.raises(OutOfRange):
            bernoulli_resample(np.array([-0.01]), RngStream(0))


class TestNoNoiseSelection:
    def test_unique_minimum_always_wins(self):
        spec = MechanismSpec(0, NoiseKind.NONE)
        rng = RngStream(1)
        for _ in range(50):
            assert report_noisy_max(np.array([3.0, 1.0, 2.0]), spec, rng) == 1

    def test_ties_broken_uniformly(self):
        spec = MechanismSpec(0, NoiseKind.NONE)
        rng = RngStream(2)
        picks = np.array([report_noisy_max(np.array([1.0, 5.0, 1.0, 1.0]), spec, rng)
                          for _ in range(30_000)])
        counts = np.bincount(picks, minlength=4) / len(picks)
        assert counts[1] == 0.0
        for j in (0, 2, 3):
            assert counts[j] == pytest.approx(1.0 / 3.0, abs=0.01)

    def test_select_batch_matches_single_on_ties(self):
        spec = MechanismSpec(0, NoiseKind.NONE)
        scores = np.tile([2.0, 2.0, 7.0], (60_000, 1))
        picks = select_batch(scores, spec, RngStream(3))
        counts = np.bincount(picks, minlength=3) / len(picks)
        assert counts[2] == 0.0
        assert counts[0] == pytest.approx(0.5, abs=0.01)


class TestGumbelPmf:
    def test_two_action_closed_form(self):
        # Scores (0, 1) at eps = 2 give softmax exponents (0, -1).
        p = gumbel_selection_pmf(np.array([0.0, 1.0]), 2.0)
        assert p[0] == pytest.approx(math.e / (math.e + 1.0))
        assert p[1] == pytest.approx(1.0 / (math.e + 1.0))

    def test_log_pmf_consistent(self):
        g = np.array([0.3, 2.0, 1.1, 0.0])
        p = gumbel_selection_pmf(g, 0.7)
        assert np.allclose(np.exp(log_gumbel_selection_pmf(g, 0.7)), p)
        assert p.sum() == pytest.approx(1.0)

    def test_shift_invariance(self):
        g = np.array([1.0, 4.0, 2.5])
        assert np.allclose(gumbel_selection_pmf(g, 1.3),
                           gumbel_selection_pmf(g + 100.0, 1.3))

    def test_requires_positive_epsilon(self):
        with pytest.raises(OutOfRange):
            gumbel_selection_pmf(np.array([0.0, 1.0]), 0.0)

    def test_sampler_matches_pmf(self):
        g = np.array([0.0, 1.0, 3.0])
        spec = MechanismSpec(0, NoiseKind.GUMBEL, epsilon=1.0)
        picks = select_batch(np.tile(g, (200_000, 1)), spec, RngStream(11))
        freq = np.bincount(picks, minlength=3) / len(picks)
        assert np.allclose(freq, gumbel_selection_pmf(g, 1.0), atol=0.005)


def _mp_unit_noise(kind: NoiseKind):
    """(cdf, pdf) of unit-scale noise in mpmath, written from the definitions."""
    if kind is NoiseKind.LAPLACE:
        return (lambda x: mp.exp(x) / 2 if x < 0 else 1 - mp.exp(-x) / 2,
                lambda x: mp.exp(-abs(x)) / 2)
    if kind is NoiseKind.EXPONENTIAL:
        return (lambda x: mp.mpf(0) if x < 0 else -mp.expm1(-x),
                lambda x: mp.mpf(0) if x < 0 else mp.exp(-x))
    return (lambda x: mp.exp(-mp.exp(-x)), lambda x: mp.exp(-x - mp.exp(-x)))


def mpmath_pmf(scores, kind: NoiseKind, beta: float, step=None):
    """Reference selection pmf by mpmath quadrature over the noisy value.

    With g = G / beta, action i's noisy value -g_i + Q_i has density
    f(y + g_i) and CDF F(y + g_i), so p_j = int f(y + g_j) prod_{i != j}
    F(y + g_i) dy, with kinks at y = -g_i. The range stops 36 noise scales
    beyond the outermost kinks, where every integrand's tail is below e^-36;
    `step` further splits it into subintervals that many scales wide.
    """
    cdf, pdf = _mp_unit_noise(kind)
    # Every j integrates over the same nodes, so the factors are evaluated once.
    memo = {}

    def factors(y):
        if y not in memo:
            memo[y] = ([cdf(y + x) for x in g], [pdf(y + x) for x in g])
        return memo[y]

    def integrand(y, j):
        cdfs, pdfs = factors(y)
        return pdfs[j] * mp.fprod(c for i, c in enumerate(cdfs) if i != j)

    with mp.workdps(15):
        g = [mp.mpf(float(s)) / beta for s in scores]
        kinks = sorted(set(-x for x in g))
        points = [kinks[0] - 36] + kinks + [kinks[-1] + 36]
        if step is not None:
            n = int((points[-1] - points[0]) / step)
            points = sorted(set(points) | {points[0] + i * step for i in range(1, n + 1)})
        return np.array([float(mp.quad(lambda y: integrand(y, j), points))
                         for j in range(len(g))])


BETAS = (0.5, 1.0, 2.0, 4.0, 8.0)


class TestQuadratureOracle:
    """The exact pmf oracle against closed forms, the sampler and mpmath quadrature."""

    def test_exponential_two_action_closed_form(self):
        # P[suboptimal] = exp(-g/beta)/2 for gap g and Exponential(beta) noise,
        # here beta = 2/eps = 2 and g = 1.
        spec = MechanismSpec(0, NoiseKind.EXPONENTIAL, epsilon=1.0)
        pmf = rnm_pmf_oracle(np.array([0.0, 1.0]), spec)
        assert pmf[1] == pytest.approx(0.5 * math.exp(-0.5), abs=1e-9)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)

    def test_laplace_two_action_closed_form(self):
        # P[suboptimal] = (2 + g/beta) exp(-g/beta) / 4 for Laplace(beta).
        spec = MechanismSpec(0, NoiseKind.LAPLACE, epsilon=1.0)
        pmf = rnm_pmf_oracle(np.array([0.0, 1.0]), spec)
        expected = 0.25 * (2.0 + 0.5) * math.exp(-0.5)
        assert pmf[1] == pytest.approx(expected, abs=1e-9)

    def test_gumbel_softmax_agrees_with_mpmath(self):
        g = np.array([0.2, 1.7, 0.9, 2.4])
        expected = mpmath_pmf(g, NoiseKind.GUMBEL, 2.0 / 1.5)
        assert np.abs(gumbel_selection_pmf(g, 1.5) - expected).max() <= 1e-12

    # One score vector per family and K; beta cycles so each family meets every
    # scale. The full K x beta product costs about 5 s of mpmath per family.
    @pytest.mark.parametrize("kind", [NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL,
                                      NoiseKind.GUMBEL])
    @pytest.mark.parametrize("k", range(2, ORACLE_MAX_ACTIONS + 1))
    def test_oracle_agrees_with_mpmath(self, kind, k):
        beta = BETAS[k % len(BETAS)]
        g = np.round(np.random.default_rng(k).uniform(0.0, 5.0, size=k), 2)
        pmf = rnm_pmf_oracle(g, MechanismSpec(0, kind, epsilon=2.0 / beta))
        assert np.abs(pmf - mpmath_pmf(g, kind, beta)).max() <= 1e-12

    @pytest.mark.parametrize("scores, kind, eps", [
        # The Laplace privacy suite's worst score vector at eps = 2.
        ([2.13, 4.41, 2.52, 2.61], NoiseKind.LAPLACE, 2.0),
        # Tied scores give repeated breakpoints, hence zero-width segments.
        ([1.0, 1.0, 2.0, 1.0], NoiseKind.EXPONENTIAL, 1.0),
    ])
    def test_witness_agrees_with_mpmath(self, scores, kind, eps):
        pmf = rnm_pmf_oracle(np.array(scores), MechanismSpec(0, kind, epsilon=eps))
        assert np.abs(pmf - mpmath_pmf(scores, kind, 2.0 / eps)).max() <= 1e-12

    @pytest.mark.parametrize("kind", [NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL])
    def test_wide_gaps_keep_relative_accuracy(self, kind):
        # Gaps of 200 and 400 noise scales: pmf entries near 1e-86 and 1e-173.
        # The reference needs one-scale subintervals to resolve them.
        g = [0.0, 50.0, 100.0]
        pmf = rnm_pmf_oracle(np.array(g), MechanismSpec(0, kind, epsilon=8.0))
        expected = mpmath_pmf(g, kind, 0.25, step=1)
        assert 1e-180 < pmf[2] < pmf[1] < 1e-80
        assert np.abs(pmf / expected - 1.0).max() <= 1e-9

    def test_oracle_agrees_with_sampler(self):
        g = np.array([0.0, 0.5, 2.0])
        spec = MechanismSpec(0, NoiseKind.LAPLACE, epsilon=1.0)
        pmf = rnm_pmf_oracle(g, spec)
        picks = select_batch(np.tile(g, (200_000, 1)), spec, RngStream(21))
        freq = np.bincount(picks, minlength=3) / len(picks)
        assert np.allclose(freq, pmf, atol=0.005)

    def test_no_noise_oracle_splits_ties(self):
        spec = MechanismSpec(0, NoiseKind.NONE)
        pmf = rnm_pmf_oracle(np.array([1.0, 1.0, 2.0]), spec)
        assert pmf.tolist() == [0.5, 0.5, 0.0]

    def test_action_cap(self):
        spec = MechanismSpec(0, NoiseKind.LAPLACE, epsilon=1.0)
        with pytest.raises(TooManyActions):
            rnm_pmf_oracle(np.zeros(ORACLE_MAX_ACTIONS + 1), spec)
