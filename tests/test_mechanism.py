import math
import warnings
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from dpexperts import mechanism
from dpexperts.core import MechanismSpec, NoiseKind, OutOfRange
from dpexperts.engine import sample_scores
from dpexperts.instances import uniform_grid_instance
from dpexperts.mechanism import (
    ORACLE_MAX_ACTIONS,
    SELECT_BLOCK_VALUES,
    TooManyActions,
    bernoulli_resample,
    log_gumbel_selection_pmf,
    rnm_pmf_oracle,
    sample_pmf,
    select_batch,
    selection_pmf,
)
from dpexperts.noise import PIECES, RngStream, noise_cdf, noise_pdf, noise_ppf


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


def gumbel_pmf(scores, epsilon):
    return np.exp(log_gumbel_selection_pmf(scores, epsilon))


class TestBroadcastSelection:
    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_broadcast_row_selects_like_its_copy(self, kind):
        # The scores are only read, so a read-only view of one row draws the
        # same real noise, and picks the same, as its materialised copy.
        row = np.array([3.0, 1.0, 1.0, 2.5, 1.0, 1.5, 4.0])
        spec = MechanismSpec(0, kind, epsilon=1.0 if kind is not NoiseKind.NONE else 0.0)
        view = np.broadcast_to(row, (2000, row.size))
        rng, expected = RngStream(6), RngStream(6)
        picks = select_batch(view, spec, rng)
        assert np.array_equal(picks, select_batch(np.tile(row, (2000, 1)), spec, expected))
        assert rng.generator.bit_generator.state == expected.generator.bit_generator.state

    @pytest.mark.parametrize("kind", [NoiseKind.GUMBEL, NoiseKind.LAPLACE,
                                      NoiseKind.EXPONENTIAL])
    def test_pmf_picks_match_noise(self, kind):
        # Picks drawn from the row's exact pmf (the Gumbel-max identity makes
        # it the softmax) and picks through real noise on copies of the row
        # choose each action equally often.
        row = 8.0 * uniform_grid_instance(64).means
        spec = MechanismSpec(0, kind, epsilon=1.0)
        n = 200_000
        from_pmf = np.bincount(sample_pmf(selection_pmf(row, spec), n, RngStream(41)),
                               minlength=64) / n
        noise = np.bincount(select_batch(np.tile(row, (n, 1)), spec, RngStream(42)),
                            minlength=64) / n
        p = selection_pmf(row, spec)
        sigma = np.sqrt(2.0 * p * (1.0 - p) / n)
        assert np.all(np.abs(from_pmf - noise) <= 4.0 * sigma)

    def test_late_epoch_picks_the_best_action(self):
        # At epoch 30 of grid:K=4096 every other action is 2^29/4095, about
        # 131,000, behind, while noise at scale 2 from a double uniform stays
        # below 80: real noise never lets another action win.
        inst = uniform_grid_instance(4096)
        scores = sample_scores(inst, 0, 1 << 29, 400, RngStream(7))
        for kind in (NoiseKind.GUMBEL, NoiseKind.LAPLACE):
            spec = MechanismSpec(0, kind, epsilon=1.0)
            assert np.all(select_batch(scores, spec, RngStream(8)) == 0)
        spec = MechanismSpec(0, NoiseKind.GUMBEL, epsilon=1.0)
        middle = np.broadcast_to([1e6, 0.0, 1e6], (400, 3))
        assert np.all(select_batch(middle, spec, RngStream(9)) == 1)


def _one_block_picks(scores, spec, rng):
    """select_batch's noise path with the whole matrix as one block."""
    noisy = noise_ppf(spec.noise, rng.uniform(scores.shape), spec.scale())
    noisy -= scores
    return np.argmax(noisy, axis=1)


class TestBlockedSelection:
    @pytest.mark.parametrize("kind", [NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL,
                                      NoiseKind.GUMBEL])
    @pytest.mark.parametrize("n, k, block", [
        (1000, 200, SELECT_BLOCK_VALUES),  # 327 rows a block: 1000 is not a multiple
        (3, SELECT_BLOCK_VALUES + 5, SELECT_BLOCK_VALUES),  # each row wider than a block
        (101, 5, 12),  # many small blocks, the last one short
    ])
    def test_blocks_match_one_block(self, monkeypatch, kind, n, k, block):
        monkeypatch.setattr(mechanism, "SELECT_BLOCK_VALUES", block)
        scores = np.random.default_rng(n).uniform(0.0, 3.0, size=(n, k))
        spec = MechanismSpec(0, kind, epsilon=1.0)
        rng, expected = RngStream(5), RngStream(5)
        assert np.array_equal(select_batch(scores, spec, rng),
                              _one_block_picks(scores, spec, expected))
        assert rng.generator.bit_generator.state == expected.generator.bit_generator.state


SUPPORT_SIZES = [1, 2, 3] + [s for m in range(2, 13) for s in (1 << m, (1 << m) + 1) if s <= 4096]


class TestSamplePmf:
    @given(st.sampled_from(SUPPORT_SIZES), st.integers(0, 3), st.integers(0, 3),
           st.integers(0, 2**32 - 1), st.integers(1, 100_000), st.booleans())
    @example(1, 0, 0, 0, 1, False)  # one-hot
    @example(1, 3, 0, 1, 100_000, False)  # one-hot, zeros in front
    @example(1, 0, 3, 2, 7, False)  # one-hot, zeros behind
    @example(4096, 2, 3, 3, 100_000, True)
    @settings(max_examples=80, deadline=None)
    def test_picks_are_bitwise_the_searchsorted_picks(self, size, lead, trail, seed, n, wide):
        # `size` nonzero entries among zeros in front, inside and at the end.
        # Wide weights span 2^-60..1, so many partial sums repeat, and a
        # draw must pass a whole run of equal sums.
        gen = np.random.default_rng(seed)
        body = size + int(gen.integers(0, size + 1))
        weights = gen.random(size) + 0.5
        if wide:
            weights = np.ldexp(weights, gen.integers(-60, 1, size))
        pmf = np.zeros(lead + body + trail)
        pmf[lead + np.sort(gen.choice(body, size, replace=False))] = weights
        ours, ref = RngStream(seed), RngStream(seed)
        picks = sample_pmf(pmf, n, ours)
        cum = np.cumsum(pmf)
        expected = np.minimum(np.searchsorted(cum, ref.uniform(n) * cum[-1], side="right"),
                              pmf.size - 1)
        assert picks.dtype == expected.dtype and np.array_equal(picks, expected)
        assert ours.uniform() == ref.uniform()

    def test_a_draw_on_a_partial_sum_picks_the_entry_after_it(self):
        # Random uniforms almost never put x = u * total exactly on a partial
        # sum; these do, every fourth draw, over a dyadic pmf whose sums are exact.
        class Grid:
            def uniform(self, n):
                return np.arange(n) / n

        pmf = np.zeros(13)
        pmf[[1, 2, 4, 5, 7, 9, 10, 12]] = 0.125
        cum = np.cumsum(pmf)
        expected = np.searchsorted(cum, Grid().uniform(32) * cum[-1], side="right")
        assert np.array_equal(sample_pmf(pmf, 32, Grid()), expected)


class TestNoNoiseSelection:
    def test_unique_minimum_always_wins(self):
        spec = MechanismSpec(0, NoiseKind.NONE)
        rng = RngStream(1)
        for _ in range(50):
            assert select_batch(np.array([3.0, 1.0, 2.0]), spec, rng)[0] == 1

    def test_ties_broken_uniformly(self):
        spec = MechanismSpec(0, NoiseKind.NONE)
        rng = RngStream(2)
        picks = np.array([select_batch(np.array([1.0, 5.0, 1.0, 1.0]), spec, rng)[0]
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
        p = gumbel_pmf(np.array([0.0, 1.0]), 2.0)
        assert p[0] == pytest.approx(math.e / (math.e + 1.0))
        assert p[1] == pytest.approx(1.0 / (math.e + 1.0))

    def test_log_pmf_consistent(self):
        g = np.array([0.3, 2.0, 1.1, 0.0])
        weights = np.exp(-g * 0.35)
        p = gumbel_pmf(g, 0.7)
        assert np.allclose(p, weights / weights.sum())
        assert p.sum() == pytest.approx(1.0)

    def test_shift_invariance(self):
        g = np.array([1.0, 4.0, 2.5])
        assert np.allclose(log_gumbel_selection_pmf(g, 1.3),
                           log_gumbel_selection_pmf(g + 100.0, 1.3))

    def test_requires_positive_epsilon(self):
        with pytest.raises(OutOfRange):
            log_gumbel_selection_pmf(np.array([0.0, 1.0]), 0.0)

    def test_sampler_matches_pmf(self):
        g = np.array([0.0, 1.0, 3.0])
        spec = MechanismSpec(0, NoiseKind.GUMBEL, epsilon=1.0)
        picks = select_batch(np.tile(g, (200_000, 1)), spec, RngStream(11))
        freq = np.bincount(picks, minlength=3) / len(picks)
        assert np.allclose(freq, gumbel_pmf(g, 1.0), atol=0.005)


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
        assert np.abs(gumbel_pmf(g, 1.5) - expected).max() <= 1e-12

    # One score vector per family and K; beta cycles so each family meets every
    # scale. The full K x beta product costs about 5 s of mpmath per family.
    @pytest.mark.parametrize("kind", [NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL,
                                      NoiseKind.GUMBEL])
    @pytest.mark.parametrize("k", range(2, ORACLE_MAX_ACTIONS + 1))
    def test_oracle_agrees_with_mpmath(self, kind, k):
        beta = BETAS[k % len(BETAS)]
        g = np.round(np.random.default_rng(k).uniform(0.0, 5.0, size=k), 2)
        spec = MechanismSpec(0, kind, epsilon=2.0 / beta)
        expected = mpmath_pmf(g, kind, beta)
        assert np.abs(rnm_pmf_oracle(g, spec) - expected).max() <= 1e-12
        assert np.abs(selection_pmf(g, spec) - expected).max() <= 1e-12

    @pytest.mark.parametrize("scores, kind, eps", [
        # The Laplace privacy suite's worst score vector at eps = 2.
        ([2.13, 4.41, 2.52, 2.61], NoiseKind.LAPLACE, 2.0),
        # Tied scores give repeated breakpoints, hence zero-width segments.
        ([1.0, 1.0, 2.0, 1.0], NoiseKind.EXPONENTIAL, 1.0),
    ])
    def test_witness_agrees_with_mpmath(self, scores, kind, eps):
        spec = MechanismSpec(0, kind, epsilon=eps)
        expected = mpmath_pmf(scores, kind, 2.0 / eps)
        assert np.abs(rnm_pmf_oracle(np.array(scores), spec) - expected).max() <= 1e-12
        assert np.abs(selection_pmf(np.array(scores), spec) - expected).max() <= 1e-12

    @pytest.mark.parametrize("kind", [NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL])
    def test_wide_gaps_keep_relative_accuracy(self, kind):
        # Gaps of 200 and 400 noise scales: pmf entries near 1e-86 and 1e-173.
        # The reference needs one-scale subintervals to resolve them.
        g = [0.0, 50.0, 100.0]
        pmf = rnm_pmf_oracle(np.array(g), MechanismSpec(0, kind, epsilon=8.0))
        expected = mpmath_pmf(g, kind, 0.25, step=1)
        assert 1e-180 < pmf[2] < pmf[1] < 1e-80
        assert np.abs(pmf / expected - 1.0).max() <= 1e-9
        # selection_pmf prunes both: they are more than PRUNE_SCALES scales behind.
        assert selection_pmf(np.array(g), MechanismSpec(0, kind, epsilon=8.0)).tolist() == [
            1.0, 0.0, 0.0]

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


def _spec(kind: NoiseKind) -> MechanismSpec:
    return MechanismSpec(0, kind, epsilon=0.0 if kind is NoiseKind.NONE else 1.5)


class TestOracleStack:
    """`rnm_pmf_oracle` along the last axis: each row of a (m, K) stack gets
    bitwise the pmf of a call on that row alone."""

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("k", range(2, ORACLE_MAX_ACTIONS + 1))
    def test_stack_equals_per_vector_calls(self, kind, k):
        # Scores on a 0.25 grid tie often, within rows and across them.
        scores = np.random.default_rng(k).integers(0, 9, size=(30, k)) / 4.0
        stacked = rnm_pmf_oracle(scores, _spec(kind))
        assert stacked.shape == scores.shape
        assert np.array_equal(stacked, [rnm_pmf_oracle(row, _spec(kind)) for row in scores])

    def test_no_noise_splits_each_rows_own_ties(self):
        scores = np.array([[1.0, 1.0, 2.0], [3.0, 2.0, 2.0], [4.0, 4.0, 4.0]])
        pmf = rnm_pmf_oracle(scores, _spec(NoiseKind.NONE))
        assert pmf.tolist() == [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [1 / 3, 1 / 3, 1 / 3]]

    @pytest.mark.parametrize("kind", [NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL])
    def test_stack_wider_than_one_chunk(self, kind):
        k, m = ORACLE_MAX_ACTIONS, 100
        # One row's coefficient arrays hold 2K(K+1)(2K+1) values.
        assert m * 2 * k * (k + 1) * (2 * k + 1) > 3 * SELECT_BLOCK_VALUES
        scores = np.random.default_rng(9).uniform(0.0, 3.0, size=(m, k))
        stacked = rnm_pmf_oracle(scores, _spec(kind))
        assert np.array_equal(stacked, [rnm_pmf_oracle(row, _spec(kind)) for row in scores])
        # A stack of any leading shape is scored row by row too.
        assert np.array_equal(rnm_pmf_oracle(scores.reshape(4, 25, k), _spec(kind)),
                              stacked.reshape(4, 25, k))

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_action_cap_reads_the_last_axis(self, kind):
        with pytest.raises(TooManyActions):
            rnm_pmf_oracle(np.zeros((3, ORACLE_MAX_ACTIONS + 1)), _spec(kind))
        assert rnm_pmf_oracle(np.zeros((ORACLE_MAX_ACTIONS + 1, 2)), _spec(kind)).shape == (
            ORACLE_MAX_ACTIONS + 1, 2)


# Unit-scale arguments on both sides of 0; Exponential's t-forms are only
# evaluated at z > 0.
T_FORM_Z = {
    NoiseKind.LAPLACE: np.concatenate([-np.logspace(-12, np.log10(700.0), 40), [0.0],
                                       np.logspace(-12, np.log10(700.0), 40)]),
    NoiseKind.EXPONENTIAL: np.logspace(-12, np.log10(700.0), 60),
}


class TestTForms:
    """The `PIECES` laws against mpmath, element by element.

    `_hazard_pmf` reads the same table through t = e^-z, which exp rounds
    to within an ulp of 1 relative, and takes F = 1 + d t off it.
    Where F is near 0 that is a difference of nearly equal numbers, so F is
    accurate to about ulp(1) / F relatively. That is the error it is meant
    to have: where F is small, so is every integrand with that factor."""

    @pytest.mark.parametrize("kind", list(PIECES))
    def test_table_cdf_and_pdf(self, kind):
        # noise_cdf and noise_pdf read the same table without a t-form, and
        # keep an ulp or so relative on both sides of 0, Exponential's F near
        # 0+ included: F = -expm1(-z) there, which 1 - e^-z would miss by up
        # to 1e-4 relative at z = 1e-12.
        z = np.concatenate([T_FORM_Z[kind], -T_FORM_Z[kind], np.logspace(-12, -3, 30)])
        for fn, ref in zip((noise_cdf, noise_pdf), _mp_unit_noise(kind)):
            with mp.workdps(40):
                want = np.array([float(ref(mp.mpf(x))) for x in z])
            got = fn(kind, z, 1.0)
            assert np.all(got[want == 0.0] == 0.0)
            assert np.all(np.abs(got[want != 0.0] / want[want != 0.0] - 1.0) <= 1e-15)

# (kind, part): one action at 0, 256 graded gaps, 255 ties, 1023 graded
# gaps (more than the 256 smallest that a grid search once read), three
# ties 2 scales behind, where Exponential's b(0) is above LOG_CUT, a best
# part just below 0, as a lattice law's top can round, and a Gumbel grid 40
# scales wide, whose first factor starts near e^-61.
LOWER_CUT_PARTS = [(kind, part) for kind in (*PIECES, NoiseKind.GUMBEL)
                   for part in (np.zeros(1), 0.02 * np.arange(256), np.zeros(255),
                                np.arange(1, 1024) / 2046, np.full(3, 2.0),
                                np.array([-1e-9, 1.0]))]
LOWER_CUT_PARTS.append((NoiseKind.GUMBEL, np.linspace(0.0, 40.0, 256)))


class TestLowerCut:
    @pytest.mark.parametrize("kind, part", LOWER_CUT_PARTS)
    @pytest.mark.parametrize("grouped", [False, True])
    def test_cut_is_within_rounding_below_the_crossing(self, kind, part, grouped):
        # b(y) = sum_i log F(y + part_i) in mpmath: b(lo) <= LOG_CUT < b(lo + 1e-6),
        # so a cut one noise scale low fails. The parts go in one by one, or
        # as distinct values with their copies, as the kernels pass them.
        # A law with no mass below 0 may stay at 0, where b can be above LOG_CUT.
        values, copies = np.unique(part, return_counts=True) if grouped else (
            part, np.ones(part.size, dtype=int))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            lo = mechanism._lower_cut(kind, values, copies)
        cdf, _ = _mp_unit_noise(kind)
        with mp.workdps(30):
            def b(y):
                return mp.fsum(mp.log(cdf(mp.mpf(y) + mp.mpf(x))) for x in part)
            if not (kind is NoiseKind.EXPONENTIAL and lo == 0.0):
                assert b(lo) <= mechanism.LOG_CUT
            assert b(lo + 1e-6) > mechanism.LOG_CUT

    @pytest.mark.parametrize("kind", [NoiseKind.LAPLACE, NoiseKind.GUMBEL])
    def test_nan_part_raises(self, kind):
        # Newton steps that never settle fail loudly instead of looping.
        with pytest.raises(ArithmeticError):
            mechanism._lower_cut(kind, np.array([0.0, np.nan]), np.ones(2, dtype=int))

    def test_lattice_top_rounded_below_zero(self):
        # Shifted by the best top near 2.7e8, the first law's top rounds to
        # -6e-9 noise scales. Its cut takes that part as 0: taken as it is,
        # the Exponential start e^-60 - part rounds to the part itself, where
        # F(0) = 0 makes every Newton step NaN. Shifting the scores down by
        # an exact integer first gives the same pmf.
        spec = MechanismSpec(0, NoiseKind.EXPONENTIAL, 0.5)
        lows = np.array([268996012.90000004, 268996013.3])
        pmfs, sizes, copies = np.full((2, 40), 1.0 / 40), np.array([40, 40]), np.array([1, 1])
        p = mechanism.lattice_selection_pmf(lows, pmfs, sizes, 0.4, copies, spec)
        near = mechanism.lattice_selection_pmf(lows - 268996000.0, pmfs, sizes, 0.4, copies, spec)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(p, near, rtol=0, atol=1e-12)


def unit_log_cdf_pdf(z, kind: NoiseKind):
    """(log F, log f) of unit-scale Laplace noise, or of Exponential noise at z > 0."""
    if kind is NoiseKind.LAPLACE:
        log_cdf = np.where(z < 0.0, z - math.log(2.0), np.log1p(-0.5 * np.exp(-np.abs(z))))
        return log_cdf, -np.abs(z) - math.log(2.0)
    return np.log(-np.expm1(-z)), -z


def midpoint_pmf(g, kind: NoiseKind, lo: float, h: float, top: float = 30.0):
    """Reference selection pmf for unit-scale noise and gaps g >= 0:
    p_j = int f(y + g_j) prod_{i != j} F(y + g_i) dy over [lo, top] by the
    midpoint rule at steps h and h/2, Richardson-extrapolated.

    The extrapolation cancels the h^2 error term only where the integrand is
    smooth in each cell, so every Laplace kink y = -g_i above lo must lie on a
    cell edge. Above top every p_j loses less than e^-30. Actions more than 60
    scales behind are dropped: their F differs from 1 by under e^-50 on the
    range, and their p_j is below it.
    """
    g = np.asarray(g, dtype=float)
    keep = g <= 60.0

    def rule(step):
        p = np.zeros(int(keep.sum()))
        y = lo + step * (np.arange(int(round((top - lo) / step))) + 0.5)
        for chunk in np.array_split(y, max(1, y.size // 256)):
            log_cdf, log_pdf = unit_log_cdf_pdf(chunk[:, None] + g[keep], kind)
            log_w = log_cdf.sum(axis=1, keepdims=True)
            p += step * np.exp(log_w - log_cdf + log_pdf).sum(axis=0)
        return p

    pmf = np.zeros(g.size)
    pmf[keep] = (4.0 * rule(h / 2.0) - rule(h)) / 3.0
    return pmf


class TestTailSums:
    """`_tail_sums` against exponential tilting: for X ~ Binomial(n, q),
    E[e^(-h X); X >= j] = c^n P[Binomial(n, q') >= j] with c = 1 - q + q e^-h
    and q' = q e^-h / c, and the same with e^(h X) below j."""

    @pytest.mark.parametrize("n", [1, 7, 60, 333, 1000])
    @pytest.mark.parametrize("h", [1.0, 0.7, 0.3, 0.05])
    def test_matches_exponential_tilting(self, n, h):
        # h = 1 and 0.7 run the filters in several blocks at n >= 333.
        qs = [0.03, 0.3, 0.5, 0.85]
        pmfs = stats.binom.pmf(np.arange(n + 1), n, np.array(qs)[:, None])
        # Lattice index m + k for entry k at period t: m = -(n + 3) + t, so
        # the periods run from all entries below 0 to all of them above it.
        periods = n + 7
        m = -(n + 3) + np.arange(periods)
        mass, upper, lower = mechanism._tail_sums(pmfs, np.full(len(qs), -(n + 3)), periods, h,
                                                  lower=True)
        for i, q in enumerate(qs):
            below, above = 1.0 - q + q * math.exp(h), 1.0 - q + q * math.exp(-h)
            tails = (stats.binom.sf(-m - 1, n, q),
                     stats.binom.sf(np.maximum(-m, 0) - 1, n, q * math.exp(-h) / above),
                     stats.binom.cdf(-m - 1, n, q * math.exp(h) / below))
            with np.errstate(divide="ignore"):
                logs = (np.log(tails[0]), -h * m + n * math.log(above) + np.log(tails[1]),
                        h * (m + 1) + n * math.log(below) + np.log(tails[2]))
            # Compared where scipy's tail probability and the sum are over
            # 1e-250: scipy's pmf and tails are off by a few 1e-13 in these
            # far tails, and by up to 1e-12 below that.
            # The sums are exactly 0 where no entry is on their side.
            for got, tail, log, zero in zip((mass[i], upper[i], lower[i]), tails, logs,
                                            (-m > n, -m > n, m >= 0)):
                assert np.all(got[zero] == 0.0)
                sized = ~zero & (tail > 1e-250) & (log > math.log(1e-250))
                assert np.abs(got[sized] / np.exp(log[sized]) - 1.0).max() <= 1e-12


class TestSelectionPmf:
    """The Laplace and Exponential kernel beyond the oracle's K <= 8, which
    test_oracle_agrees_with_mpmath and the witness tests cover."""

    @pytest.mark.parametrize("kind", [NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL])
    def test_relative_accuracy_across_wide_gaps(self, kind):
        # Gaps of 20 and 40 noise scales: entries near 1e-8 and 1e-17, both
        # kept (under PRUNE_SCALES).
        g = [0.0, 50.0, 100.0]
        pmf = selection_pmf(np.array(g), MechanismSpec(0, kind, epsilon=0.8))
        expected = mpmath_pmf(g, kind, 2.5, step=1)
        assert 1e-20 < pmf[2] < pmf[1] < 1e-7
        assert np.abs(pmf / expected - 1.0).max() <= 1e-9

    # Rows of grid:K=4096 after epochs of length 1, 256 and 4096 at eps = 1
    # (scale 2): lo is a multiple of the kink spacing length / 8190, and h
    # divides it, so the reference's Laplace kinks sit on cell edges.
    @pytest.mark.parametrize("kind", [NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL])
    @pytest.mark.parametrize("length, kinks_below, cells", [(1, 0, 0), (256, 64, 1),
                                                            (4096, 20, 20)])
    def test_grid_rows_match_midpoint_reference(self, kind, length, kinks_below, cells):
        spacing = length / 8190.0
        g = spacing * np.arange(4096)
        if kind is NoiseKind.EXPONENTIAL or kinks_below == 0:
            lo, h = 0.0, 0.025  # no kink above 0; W = 0 below 0 for Exponential
        else:
            lo, h = -kinks_below * spacing, spacing / cells
        if kind is NoiseKind.LAPLACE:
            # Below lo <= 0 every integrand is at most W(y) <= W(lo) e^(y - lo).
            assert unit_log_cdf_pdf(lo + g, kind)[0].sum() < -50.0
        pmf = selection_pmf(length * uniform_grid_instance(4096).means,
                            MechanismSpec(0, kind, epsilon=1.0))
        assert np.abs(pmf - midpoint_pmf(g, kind, lo, h)).max() <= 1e-8

    @pytest.mark.parametrize("kind", [NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL])
    def test_pmf_is_a_distribution(self, kind):
        # 300 scores with a tied minimum, a tied pair and one action 100
        # scales behind the best, so pruned.
        scores = np.random.default_rng(3).uniform(0.0, 30.0, 300)
        scores[[17, 230]] = scores.min() - 1.0
        scores[[5, 299]] = scores[5]
        scores[100] = scores.min() + 200.0
        pmf = selection_pmf(scores, MechanismSpec(0, kind, epsilon=1.0))
        assert abs(pmf.sum() - 1.0) <= 1e-11
        assert pmf[17] == pmf[230]
        assert pmf[5] == pmf[299]
        assert pmf[100] == 0.0
        assert pmf.min() >= 0.0

    @pytest.mark.parametrize("k", [16, 1024, 4096, 1 << 16])
    def test_two_level_rows_match_the_exponential_closed_form(self, k):
        # One action at 0 and k - 1 at L / 2048 after epoch r (L = 2^(r-1)),
        # eps = 1: with c = e^-g for the gap g = L / 4096 in noise scales,
        # p_0 = int_0^1 (1 - c u)^(k-1) du = -expm1(k log1p(-c)) / (c k).
        # The k - 1 tied actions are integrated once, so they share one p.
        spec = MechanismSpec(0, NoiseKind.EXPONENTIAL, epsilon=1.0)
        for r in range(10, 25):
            length = 1 << (r - 1)
            scores = np.full(k, length / 2048.0)
            scores[0] = 0.0
            pmf = selection_pmf(scores, spec)
            with mp.workdps(50):
                c = mp.exp(-mp.mpf(length) / 4096)
                p0 = float(-mp.expm1(k * mp.log1p(-c)) / (c * k))
            assert abs(pmf[0] - p0) <= 1e-12
            assert np.all(pmf[1:] == pmf[1])

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from([NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL]),
           k=st.integers(2, 64), levels=st.integers(1, 6), spread=st.floats(0.0, 50.0),
           seed=st.integers(0, 2**32 - 1))
    def test_groups_match_their_repeated_rows(self, kind, k, levels, spread, seed):
        # Gaps on at most `levels` values, so most rows have ties: the kernel
        # on each distinct gap with its copies against the same kernel on
        # every action one by one (a grouping that leaves each action its
        # own group of 1), to 1e-15 absolute.
        def one_by_one(columns):
            order = np.argsort(columns[0], kind="stable")
            group = np.empty(order.size, dtype=np.intp)
            group[order] = np.arange(order.size)
            return order, group, np.ones(order.size, dtype=int)

        g = spread * np.random.default_rng(seed).integers(0, levels, k) / levels
        spec = MechanismSpec(0, kind, epsilon=2.0)
        with mock.patch.object(mechanism, "_group_rows", one_by_one):
            repeated = selection_pmf(g, spec)
        grouped = selection_pmf(g, spec)
        assert np.abs(grouped - repeated).max() <= 1e-15

    @pytest.mark.parametrize("kind", [NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL])
    @pytest.mark.parametrize("stack", [[[0.0, 0.0], [100.0, 100.0]], np.zeros((3, 3))])
    def test_a_stack_is_refused_with_one_error(self, kind, stack):
        # The kernel takes one vector; a stack used to fail inside it, with an
        # error that depended on the stack's shape.
        spec = MechanismSpec(0, kind, epsilon=1.0)
        with pytest.raises(ValueError, match="rnm_pmf_oracle takes stacks"):
            selection_pmf(np.array(stack), spec)
        k = len(stack[0])
        assert selection_pmf(np.array(stack)[0], spec) == pytest.approx([1.0 / k] * k, abs=1e-13)


def _panel_rule_nodes(kind: NoiseKind, g: np.ndarray, copies: np.ndarray, wide: float):
    """The y-panel rule `_quadrature_nodes` used before its tail rule, kept
    as the reference: GL_ORDER-point panels from the lower cut up to
    PRUNE_SCALES, one scale wide for UNIT_PANELS scales and then `wide`,
    split at the kinks. It used wide = WIDE_PANEL; the reference takes 1, as
    a 3-scale panel starting at y = 0 errs by up to 1.4e-13
    (`test_tail_rule_mends_a_wide_panel_at_zero`). Its cut takes every gap
    but one copy of the smallest, one by one."""
    top = mechanism.PRUNE_SCALES
    rest = np.repeat(g, copies.astype(int))[1:]
    lo = mechanism._lower_cut(kind, rest, np.ones(rest.size, dtype=int))
    unit = lo + np.arange(mechanism.UNIT_PANELS + 1.0)
    edges = np.concatenate([unit[unit < top], np.arange(unit[-1] + wide, top, wide), [top]])
    if PIECES[kind][0][1]:
        edges = np.union1d(edges, -g[(-g > lo) & (-g < top)])
    return mechanism._panel_nodes(edges)


def _panel_rule_pmf(g: np.ndarray, kind: NoiseKind, wide: float = 1.0) -> np.ndarray:
    """`_hazard_pmf`'s arithmetic on the nodes of `_panel_rule_nodes`."""
    with mock.patch.object(mechanism, "_quadrature_nodes",
                           lambda kind, gk, copies: _panel_rule_nodes(kind, gk, copies, wide)):
        return mechanism._hazard_pmf(g, np.ones(g.size), kind)


def _tail_bound(m: int) -> float:
    """The bound given at TAIL_ORDER on the error of each p_j's tail under
    an m-point rule in t, minimised over the ellipse parameter rho."""
    rho = np.linspace(1.01, 200.0, 20_000)
    return float((32.0 / 15.0 * np.exp((rho + 1.0) ** 2 / (4.0 * rho))
                  * rho ** (2.0 - 2.0 * m) / (rho ** 2 - 1.0)).min())


TAIL_BOUNDS = [_tail_bound(m) for m in range(1, mechanism.TAIL_ORDER + 1)]


class TestTailRule:
    """The TAIL_ORDER-point rule in t = e^-y above y0, against the panels it
    replaced and against exact polynomial integrals."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from([NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL]),
           k=st.integers(2, 4096), spread=st.floats(0.0, 60.0), power=st.floats(0.2, 5.0),
           ties=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_panel_rule(self, kind, k, spread, power, ties, seed):
        # Gaps in [0, 60] scales, bunched near 0 or near the spread, on a
        # quarter-scale grid when `ties`. 1e-15 absolute, plus sqrt(K) ulps
        # of each entry: the rounding of the product of K factors, which
        # moves with the nodes (a K = 3913 Laplace row differs by 1.5e-15 at
        # p = 0.16, and a finer rule lies 8e-16 from this one there).
        rng = np.random.default_rng(seed)
        g = spread * rng.random(k) ** power
        if ties:
            g = np.round(4.0 * g) / 4.0
        g -= g.min()
        want = _panel_rule_pmf(g, kind)
        got = selection_pmf(g, MechanismSpec(0, kind, epsilon=2.0))
        assert np.all(np.abs(got - want) <= 1e-15 + math.sqrt(k) * 2.3e-16 * want)

    def test_tail_rule_mends_a_wide_panel_at_zero(self):
        # worst-np:K=8,delta=0.25 at eps = 0.25: gaps 1/32 behind one action.
        # The lower cut sits near -8, so the unit panels end at -1/32, and
        # with WIDE_PANEL the next panel covers [0, 2.97], 1.4e-13 off.
        g = np.array([0.0] + [1.0 / 32.0] * 7)
        spec = MechanismSpec(0, NoiseKind.LAPLACE, epsilon=2.0)
        oracle = rnm_pmf_oracle(g, spec)
        assert np.abs(selection_pmf(g, spec) - oracle).max() <= 1e-15
        assert np.abs(_panel_rule_pmf(g, NoiseKind.LAPLACE) - oracle).max() <= 1e-15
        wide = _panel_rule_pmf(g, NoiseKind.LAPLACE, mechanism.WIDE_PANEL)
        assert np.abs(wide - oracle).max() > 1e-13

    def test_tail_order_is_the_least_certified(self):
        # The bound falls below 1e-17 first at TAIL_ORDER.
        assert TAIL_BOUNDS[-1] <= 1.5e-18 and TAIL_BOUNDS[-2] > 1e-15

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from([NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL]),
           k=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_rule_integrates_the_tail_polynomial_within_the_bound(self, kind, k, seed):
        # tau in (0, 1], top = e^-y0 with y0 >= 0 and S = |d| sum tau top <= 1,
        # at S = 1 where it can be: each m-point rule up to TAIL_ORDER meets
        # the bound against the exact integral of -d tau_j prod_{i != j}
        # (1 + d tau_i t) over [0, top], up to a few ulps of the integral (<= 1).
        d = PIECES[kind][1][1]
        tau = np.random.default_rng(seed).random(k)
        tau[0] = 1.0
        top = min(1.0, 1.0 / (abs(d) * tau.sum()))
        for j in range(k):
            poly = np.polynomial.Polynomial([-d * tau[j]])
            for i in np.delete(np.arange(k), j):
                poly *= np.polynomial.Polynomial([1.0, d * tau[i]])
            exact = poly.integ()(top)
            for m, bound in enumerate(TAIL_BOUNDS, start=1):
                x, w = mechanism._gauss_legendre(m)
                rule = top / 2.0 * (w @ poly(top / 2.0 * (x + 1.0)))
                assert abs(rule - exact) <= bound + 4e-16
            # The kernel's form in y: nodes y0 + offsets, f dy = poly(t) t dy.
            offsets, weights = mechanism._tail_rule()
            t = top * np.exp(-offsets)
            assert abs(weights @ (poly(t) * t) - exact) <= TAIL_BOUNDS[-1] + 4e-16

    @pytest.mark.parametrize("kind", [NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL])
    @pytest.mark.parametrize("k", [2, 3, 16, 255, 4096, 65536])
    def test_equal_scores_are_uniform(self, kind, k):
        pmf = selection_pmf(np.full(k, 7.0), MechanismSpec(0, kind, epsilon=1.0))
        assert np.abs(pmf - 1.0 / k).max() <= 1e-15
