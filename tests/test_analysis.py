import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpexperts.analysis import (
    MAX_EPOCHS,
    PARTIAL_SUM_CONSTANT,
    AdjacencyViolation,
    SoftmaxSpec,
    binomial_cdf,
    check_derivative_bound,
    exact_binomial_cdfs,
    exact_det_gumbel_regret,
    exact_det_regret_epochs,
    gumbel_privacy_ratio,
    partial_sum_f,
    softmax_f,
    tail_bound,
)
from dpexperts.core import MechanismSpec, NoiseKind, OutOfRange


GUMBEL_1 = MechanismSpec(0, NoiseKind.GUMBEL, epsilon=1.0)


class TestExactCalculator:
    def test_hand_computed_two_epoch_value(self):
        # Epoch 1: mean gap 1/2. Epoch 2: 2 * gap * softmax weight e^-1/(1+e^-1).
        expected = 0.5 + 2.0 * math.exp(-1.0) / (1.0 + math.exp(-1.0))
        assert exact_det_gumbel_regret([0.0, 1.0], 2.0, 2) == pytest.approx(expected)
        assert expected == pytest.approx(1.0379, abs=1e-4)

    def test_epoch_contributions_sum_to_total(self):
        means = [0.0, 0.3, 0.9]
        contr = exact_det_regret_epochs(means, GUMBEL_1, 12)
        assert len(contr) == 12
        assert math.fsum(contr) == pytest.approx(exact_det_gumbel_regret(means, 1.0, 12))

    def test_contributions_vanish_for_large_epochs(self):
        contr = exact_det_regret_epochs([0.0, 0.5], GUMBEL_1, 40)
        assert contr[-1] < 1e-12

    @pytest.mark.parametrize("kind", [NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL])
    @pytest.mark.parametrize("eps", [0.3, 1.0, 4.0])
    def test_two_action_tails(self, kind, eps):
        # det:0,1: the action behind by a = 2^(r-2) eps / 2 noise scales is
        # selected with probability 1/2 e^-a (1 + a/2) under Laplace noise and
        # 1/2 e^-a under Exponential noise, and costs 1 per step of epoch r.
        contr = exact_det_regret_epochs([0.0, 1.0], MechanismSpec(0, kind, epsilon=eps), 40)
        assert contr[0] == 0.5
        for r, c in enumerate(contr[1:], start=2):
            a = 2.0 ** (r - 2) * eps / 2.0
            tail = 0.5 * math.exp(-a) * ((1.0 + a / 2.0) if kind is NoiseKind.LAPLACE else 1.0)
            assert abs(c - 2.0 ** (r - 1) * tail) <= 1e-12

    def test_epoch_count_is_capped(self):
        # Epoch 1025 would last 2^1024 steps, which overflows a float.
        assert MAX_EPOCHS == 1024
        assert exact_det_gumbel_regret([0.0, 1.0], 1.0, MAX_EPOCHS) > 0.0
        with pytest.raises(OutOfRange):
            exact_det_regret_epochs([0.0, 1.0], GUMBEL_1, MAX_EPOCHS + 1)

    def test_all_tied_means_give_zero_regret(self):
        assert exact_det_gumbel_regret([0.4, 0.4, 0.4], 1.0, 10) == 0.0

    def test_validation(self):
        with pytest.raises(OutOfRange):
            exact_det_gumbel_regret([0.0, 1.0], 0.0, 5)
        with pytest.raises(OutOfRange):
            exact_det_gumbel_regret([0.0, 1.0], 1.0, 0)


class TestBinomialCdf:
    @given(st.integers(min_value=0, max_value=40),
           st.integers(min_value=0, max_value=40),
           st.fractions(min_value=0, max_value=1, max_denominator=1000))
    @settings(max_examples=200)
    def test_float_matches_exact_rational(self, k, extra, p):
        n = k + extra
        exact = exact_binomial_cdfs(n, p)[k]
        assert binomial_cdf(k, n, float(p)) == pytest.approx(float(exact), abs=1e-9)

    def test_edges(self):
        assert binomial_cdf(5, 5, 0.3) == 1.0
        assert binomial_cdf(0, 10, 0.0) == 1.0
        assert binomial_cdf(9, 10, 1.0) == 0.0
        assert binomial_cdf(10, 10, 1.0) == 1.0

    def test_monotone_in_p_on_a_small_grid(self):
        grid = [Fraction(i, 10) for i in range(11)]
        for n in (1, 7, 20):
            for k in range(n + 1):
                vals = [exact_binomial_cdfs(n, p)[k] for p in grid]
                assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(OutOfRange):
            binomial_cdf(5, 4, 0.5)
        with pytest.raises(OutOfRange):
            binomial_cdf(1, 4, 1.5)


nonneg_weights = st.lists(st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
                          min_size=1, max_size=8).map(lambda xs: np.array(xs + [0.0]))


class TestSoftmaxFunction:
    def test_spec_requires_zero_entry(self):
        SoftmaxSpec(np.array([0.0, 2.0]))
        with pytest.raises(OutOfRange):
            SoftmaxSpec(np.array([1.0, 2.0]))
        with pytest.raises(OutOfRange):
            SoftmaxSpec(np.array([-1.0, 0.0]))
        with pytest.raises(OutOfRange):
            SoftmaxSpec(np.array([]))

    @given(nonneg_weights, st.floats(min_value=-5.0, max_value=1100.0, allow_nan=False))
    # 2^x * 8 overflows to inf while its weight underflows to 0: inf * 0 gave nan.
    @example(np.array([8.0, 0.0]), 1022.0)
    # From x = 1024 on, 2.0 ** x itself overflows.
    @example(np.array([8.0, 0.0]), 1100.0)
    def test_f_nonnegative_and_finite(self, a, x):
        val = softmax_f(SoftmaxSpec(a), x)
        assert math.isfinite(val)
        assert val >= 0.0

    @given(nonneg_weights, st.floats(min_value=1.0, max_value=64.0))
    # f need not decay from x = 0: here f(60) ~ 9.1e-4 > f(0) ~ 7.9e-22, since
    # f(x) ~ 2^x a / 2 keeps rising until 2^x a ~ 1.
    @example(np.array([1.58e-21, 0.0]), 1.0)
    def test_f_decays_for_large_arguments(self, a, target):
        # With s = 2^x * (smallest positive weight) >= 1, each positive t_i is at
        # least s, t e^{-t} decreases for t >= 1 and the zero entry keeps the
        # denominator >= 1, so f(x) <= (K - 1) s e^{-s}. For s < 1 the same
        # argument gives (K - 1) / e.
        spec = SoftmaxSpec(a)
        positive = a[a > 0.0]
        if positive.size == 0:
            assert softmax_f(spec, 60.0) == 0.0
            return
        # Aim 2^x * min(positive) at target, capping x so that 2^x * a stays
        # finite even for subnormal weights.
        x = min(math.log2(target) - math.log2(positive.min()), 1000.0)
        s = (2.0 ** x) * positive.min()
        per_action = s * math.exp(-s) if s >= 1.0 else math.exp(-1.0)
        assert softmax_f(spec, x) <= (len(a) - 1) * per_action * (1.0 + 1e-12)

    def test_derivative_bound_numeric(self):
        spec = SoftmaxSpec(np.array([0.0, 1.0, 3.0]))
        worst = check_derivative_bound(spec, np.linspace(-2.0, 10.0, 61), 1e-5)
        assert worst <= 1e-6
        with pytest.raises(OutOfRange):
            check_derivative_bound(spec, [0.0], 0.0)

    @given(nonneg_weights)
    def test_partial_sum_below_constant_times_log_k(self, a):
        spec = SoftmaxSpec(a)
        assert partial_sum_f(spec, 60) <= PARTIAL_SUM_CONSTANT * math.log(len(a)) + 1e-9

    def test_partial_sum_validation(self):
        with pytest.raises(OutOfRange):
            partial_sum_f(SoftmaxSpec(np.array([0.0, 1.0])), 0)


class TestTailBounds:
    def test_decreasing_in_epoch(self):
        for kind in (NoiseKind.EXPONENTIAL, NoiseKind.GUMBEL, NoiseKind.LAPLACE):
            vals = [tail_bound(kind, r, 0.4, 1.0) for r in range(1, 12)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_exponential_formula(self):
        r, d, eps = 5, 0.3, 1.0
        n = 2.0 ** (r - 1)
        # Noise term: P[Exponential(2/eps) > n d / 2] = exp(-eps n d / 4).
        expected = math.exp(-n * d * d / 4.0) + math.exp(-eps * n * d / 4.0)
        assert tail_bound(NoiseKind.EXPONENTIAL, r, d, eps) == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(OutOfRange):
            tail_bound(NoiseKind.GUMBEL, 3, 0.0, 1.0)
        with pytest.raises(OutOfRange):
            tail_bound(NoiseKind.GUMBEL, 3, 0.5, -1.0)
        with pytest.raises(OutOfRange):
            tail_bound(NoiseKind.NONE, 3, 0.5, 1.0)


class TestGumbelPrivacyRatio:
    def test_identical_scores_give_ratio_one(self):
        g = np.array([1.0, 2.0, 0.5])
        assert gumbel_privacy_ratio(g, g, 1.0) == pytest.approx(1.0)

    def test_unit_shift_bounded_by_exp_eps(self):
        g = np.array([0.0, 3.0])
        for eps in (0.5, 1.0, 2.0):
            ratio = gumbel_privacy_ratio(g, g + np.array([1.0, -1.0]), eps)
            assert ratio <= math.exp(eps) + 1e-12

    def test_adjacency_enforced(self):
        with pytest.raises(AdjacencyViolation):
            gumbel_privacy_ratio(np.array([0.0, 0.0]), np.array([0.0, 1.5]), 1.0)
        with pytest.raises(AdjacencyViolation):
            gumbel_privacy_ratio(np.array([0.0]), np.array([0.0, 0.0]), 1.0)
        with pytest.raises(AdjacencyViolation):
            gumbel_privacy_ratio(np.zeros(3), np.array([[0.0, 0.5, 0.0], [0.0, 0.0, -1.5]]), 1.0)
        with pytest.raises(AdjacencyViolation):
            gumbel_privacy_ratio(np.zeros(3), np.zeros((4, 2)), 1.0)

    def test_batched_ratios_match_pairwise(self):
        rng = np.random.default_rng(17)
        for k in (2, 3, 5, 8):
            g = rng.uniform(0.0, 5.0, size=k)
            neighbours = g + rng.uniform(-1.0, 1.0, size=(60, k))
            for eps in (0.5, 1.0, 2.0):
                ratios = gumbel_privacy_ratio(g, neighbours, eps)
                assert ratios.shape == (60,)
                pairwise = [gumbel_privacy_ratio(g, row, eps) for row in neighbours]
                assert np.abs(ratios - pairwise).max() <= 1e-12
