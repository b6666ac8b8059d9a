import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpexperts import verify
from dpexperts.analysis import (
    PARTIAL_SUM_CONSTANT,
    SoftmaxSpec,
    _binomial_cdf_numerators,
    check_derivative_bound,
    exact_regret_epochs,
    partial_sum_f,
    softmax_f,
    tail_bound,
)
from dpexperts.core import MechanismSpec, NoiseKind, OutOfRange
from dpexperts.engine import InvalidHorizon, epoch_lengths, epoch_selection_pmf
from dpexperts.harness import selection_frequency
from dpexperts.instances import (
    bernoulli_instance,
    deterministic_instance,
    parse_instance_spec,
)
from dpexperts.mechanism import rnm_pmf_oracle
from dpexperts.verify import binomial_cdf, check_binomial_grid, exact_det_gumbel_regret


GUMBEL_1 = MechanismSpec(0, NoiseKind.GUMBEL, epsilon=1.0)


def _spec(resample, kind, eps):
    return MechanismSpec(resample, kind, epsilon=eps if kind is not NoiseKind.NONE else 0.0)


def _det(means, spec, horizon):
    return exact_regret_epochs(deterministic_instance(means), spec, horizon)


class TestExactCalculator:
    def test_hand_computed_two_epoch_value(self):
        # Epoch 1: mean gap 1/2. Epoch 2: 2 * gap * softmax weight e^-1/(1+e^-1).
        expected = 0.5 + 2.0 * math.exp(-1.0) / (1.0 + math.exp(-1.0))
        assert exact_det_gumbel_regret([0.0, 1.0], 2.0, 2) == pytest.approx(expected)
        assert expected == pytest.approx(1.0379, abs=1e-4)

    def test_epoch_contributions_sum_to_total(self):
        # T = 2^11 - 1 + 5 ends with a truncated epoch of length 5, which
        # plays the selection of the full T = 2^12 - 1's epoch 12 for 5 steps.
        means = [0.0, 0.3, 0.9]
        full = _det(means, GUMBEL_1, (1 << 12) - 1)
        assert len(full) == 12
        assert math.fsum(full) == pytest.approx(exact_det_gumbel_regret(means, 1.0, 12))
        cut = _det(means, GUMBEL_1, (1 << 11) + 4)
        assert cut[:11] == full[:11]
        assert cut[11] == pytest.approx(full[11] * 5 / (1 << 11), rel=1e-14)

    def test_contributions_vanish_for_large_epochs(self):
        contr = _det([0.0, 0.5], GUMBEL_1, (1 << 40) - 1)
        assert contr[-1] < 1e-12

    @pytest.mark.parametrize("kind", [NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL])
    @pytest.mark.parametrize("eps", [0.3, 1.0, 4.0])
    def test_two_action_tails(self, kind, eps):
        # det:0,1: the action behind by a = 2^(r-2) eps / 2 noise scales is
        # selected with probability 1/2 e^-a (1 + a/2) under Laplace noise and
        # 1/2 e^-a under Exponential noise, and costs 1 per step of epoch r.
        contr = _det([0.0, 1.0], MechanismSpec(0, kind, epsilon=eps), (1 << 40) - 1)
        assert contr[0] == 0.5
        for r, c in enumerate(contr[1:], start=2):
            a = 2.0 ** (r - 2) * eps / 2.0
            tail = 0.5 * math.exp(-a) * ((1.0 + a / 2.0) if kind is NoiseKind.LAPLACE else 1.0)
            assert abs(c - 2.0 ** (r - 1) * tail) <= 1e-12

    def test_epoch_count_is_capped(self):
        # From T = 2^1024 on, T and epoch 1025's length overflow a float.
        contr = _det([0.0, 1.0], GUMBEL_1, (1 << 1024) - 1)
        assert len(contr) == 1024 and math.fsum(contr) > 0.0
        with pytest.raises(InvalidHorizon):
            _det([0.0, 1.0], GUMBEL_1, 1 << 1024)
        with pytest.raises(InvalidHorizon):
            epoch_lengths(1 << 1024)

    def test_all_tied_means_give_zero_regret(self):
        assert exact_det_gumbel_regret([0.4, 0.4, 0.4], 1.0, 10) == 0.0

    def test_validation(self):
        with pytest.raises(OutOfRange):
            exact_det_gumbel_regret([0.0, 1.0], 0.0, 5)
        with pytest.raises(InvalidHorizon):
            _det([0.0, 1.0], GUMBEL_1, 0)

    def test_epoch_without_a_pmf_is_out_of_range(self):
        # 64 overlapping Binomial laws under noise 2000 lattice steps wide:
        # epoch 1's lattice kernel would hold 64 laws times its periods, 5.8M
        # values, over PMF_MAX_VALUES.
        inst = bernoulli_instance(0.5 + 0.001 * np.arange(64))
        with pytest.raises(OutOfRange, match="epoch 1 "):
            exact_regret_epochs(inst, MechanismSpec(1, NoiseKind.LAPLACE, epsilon=0.001), 7)

    @pytest.mark.parametrize("spec_text,resample,kind,actions", [
        ("paper-example", 0, NoiseKind.LAPLACE, "paper"),
        ("paper-example", 1, NoiseKind.NONE, "paper"),
        ("paper-example", 1, NoiseKind.EXPONENTIAL, "paper"),
        ("paper-example", 0, NoiseKind.GUMBEL, "paper"),
        ("bern:0.4,0.5", 1, NoiseKind.GUMBEL, "bern"),
    ])
    def test_matches_two_action_reference(self, bench_module, spec_text, resample, kind,
                                          actions):
        refs = bench_module("refs")
        models = {"paper": (("point", 0.3), ("two-atom", 0.4, 0.0, 0.8)),
                  "bern": (("bernoulli", 0.4), ("bernoulli", 0.5))}[actions]
        spec = _spec(resample, kind, 1.0)
        horizon = (1 << 20) - 1
        expected = refs.two_action_regret(models, resample, kind.value, spec.scale(), horizon)
        got = math.fsum(exact_regret_epochs(parse_instance_spec(spec_text), spec, horizon))
        assert abs(got - expected) <= 1e-9

    @pytest.mark.parametrize("spec_text,kind,eps,means", [
        ("worst-np:K=8,delta=0.25", NoiseKind.GUMBEL, 2.0, ("worst_np_means", 8, 0.25)),
        ("grid:K=256", NoiseKind.GUMBEL, 0.5, ("grid_means", 256)),
        ("lower-bound:K=16,delta=0.1,l=3", NoiseKind.NONE, 0.0,
         ("lower_bound_means", 16, 0.1, 3)),
        ("grid:K=64", NoiseKind.NONE, 0.0, ("grid_means", 64)),
    ])
    def test_matches_deterministic_reference(self, bench_module, spec_text, kind, eps, means):
        refs = bench_module("refs")
        spec = _spec(0, kind, eps)
        horizon = (1 << 30) - 1
        mu = getattr(refs, means[0])(*means[1:])
        expected = refs.det_regret(mu, kind.value, spec.scale(), horizon)
        got = math.fsum(exact_regret_epochs(parse_instance_spec(spec_text), spec, horizon))
        assert abs(got - expected) <= 1e-9

    @pytest.mark.parametrize("kind", [NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_closed_form_oracle(self, kind, seed):
        # The Laplace and Exponential kernel against the piecewise closed
        # form, epoch by epoch: sum_r L_{r+1} (oracle(L_r means) . gaps).
        rng = np.random.default_rng(seed)
        means = np.round(rng.uniform(0.0, 1.0, size=int(rng.integers(2, 9))), 3)
        inst = deterministic_instance(means)
        spec = MechanismSpec(0, kind, epsilon=float(rng.choice([0.5, 1.0, 2.0])))
        horizon = (1 << 16) - 1
        lengths = epoch_lengths(horizon)
        expected = [lengths[0] * float(inst.gaps.mean())] + [
            length * float(rnm_pmf_oracle(prev * inst.means, spec) @ inst.gaps)
            for prev, length in zip(lengths, lengths[1:])]
        got = exact_regret_epochs(inst, spec, horizon)
        assert abs(math.fsum(got) - math.fsum(expected)) <= 1e-12

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("spec_text", ["bern:0.2,0.5,0.8", "paper-example"])
    def test_matches_selection_frequency_monte_carlo(self, spec_text, kind):
        inst = parse_instance_spec(spec_text)
        spec = _spec(1, kind, 1.0)
        big_r, trials = 8, 20_000
        mean, stderr = _selection_frequency_regret(inst, spec, big_r, trials, 31)
        exact = math.fsum(exact_regret_epochs(inst, spec, (1 << big_r) - 1))
        assert abs(mean - exact) <= 4.0 * stderr + 1e-12

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_graded_64_matches_selection_frequency_monte_carlo(self, kind):
        # The bench's graded K=64 stochastic cell at T = 2^20 - 1; without
        # noise it runs the tie kernel on 64 distinct laws.
        inst = parse_instance_spec(
            "bern:" + ",".join(f"{0.2 + 0.6 * j / 63:.6f}" for j in range(64)))
        spec = _spec(1, kind, 1.0)
        mean, stderr = _selection_frequency_regret(inst, spec, 20, 5_000, 64)
        exact = math.fsum(exact_regret_epochs(inst, spec, (1 << 20) - 1))
        assert abs(mean - exact) <= 3.0 * stderr

    @pytest.mark.parametrize("kind", [NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL,
                                      NoiseKind.GUMBEL])
    def test_graded_1024_epoch_10_matches_selection_frequency(self, kind):
        # Graded K=1024 at B=1: at epoch 10 (L = 512) the lattice kernel's
        # arrays are near their largest, about 2.9e5 values.
        inst = parse_instance_spec(
            "bern:" + ",".join(f"{0.2 + 0.6 * j / 1023:.6f}" for j in range(1024)))
        spec = _spec(1, kind, 1.0)
        pmf = epoch_selection_pmf(inst, spec, 512)
        freq = selection_frequency(inst, spec, 10, 5_000, 1024)
        picked = float(freq @ inst.gaps)
        stderr = math.sqrt((float(freq @ inst.gaps ** 2) - picked ** 2) / 5_000)
        assert abs(picked - float(pmf @ inst.gaps)) <= 3.0 * stderr


def _selection_frequency_regret(inst, spec, big_r, trials, seed):
    """(estimate, stderr) of the regret at T = 2^big_r - 1 from
    `selection_frequency`, which samples real scores and real noise, apart
    from the epoch pmfs: mean(gaps) + sum_r 2^r (gaps . freq_r), with stderr
    sqrt(sum_r 4^r var_r / trials)."""
    mean, var = float(inst.gaps.mean()), 0.0
    for r in range(1, big_r):
        freq = selection_frequency(inst, spec, r, trials, seed)
        picked = float(freq @ inst.gaps)
        mean += (1 << r) * picked
        var += (1 << r) ** 2 * (float(freq @ inst.gaps ** 2) - picked ** 2)
    return mean, math.sqrt(var / trials)


def _ratio_recurrence_cdfs(n, p):
    """Binomial(n, p) CDFs from pmf_i = pmf_{i-1} (n - i + 1) p / (i q) in
    Fractions, prefix-summed: the reference for the integer numerators."""
    p = Fraction(p)
    q = 1 - p
    if q == 0:
        pmf = [Fraction(0)] * n + [Fraction(1)]
    else:
        pmf = [q ** n]
        for i in range(1, n + 1):
            pmf.append(pmf[-1] * (n - i + 1) * p / (i * q))
    cdfs, acc = [], Fraction(0)
    for term in pmf:
        acc += term
        cdfs.append(acc)
    return cdfs


def _violations(result):
    return int(result.detail.split(" exact violations")[0])


class TestBinomialCdf:
    def test_integer_numerators_match_the_ratio_recurrence(self):
        # The 0.05 grid over the unreduced 20^n, and p = 0 and p = 1 as 0/1 and 1/1.
        for n in range(51):
            for a, d in [(i, 20) for i in range(21)] + [(0, 1), (1, 1)]:
                got = [Fraction(c, d ** n) for c in _binomial_cdf_numerators(n, a, d)]
                assert got == _ratio_recurrence_cdfs(n, Fraction(a, d)), (n, a, d)

    def test_grid_suite_fails_when_one_cdf_rises_in_p(self, monkeypatch):
        real = verify._binomial_cdf_numerators

        def risen(n, a, d):
            row = real(n, a, d)
            if (n, a) == (10, 9):
                # P[X <= 3] at p = 9/20 one 20^-10 above its value at p = 8/20.
                row[3] = real(n, a - 1, d)[3] + 1
            return row

        monkeypatch.setattr(verify, "_binomial_cdf_numerators", risen)
        result = check_binomial_grid()
        assert not result.passed
        assert _violations(result) == 1

    def test_grid_suite_compares_numerators_over_one_denominator(self, monkeypatch):
        real = verify._binomial_cdf_numerators
        denominators = set()

        def recorded(n, a, d):
            denominators.add(d)
            return real(n, a, d)

        monkeypatch.setattr(verify, "_binomial_cdf_numerators", recorded)
        result = check_binomial_grid()
        assert result.passed and _violations(result) == 0
        assert denominators == {20}

        # Reduced, 10/20 becomes 1/2 and its numerators count 2^-n: compared
        # with neighbours over 20^n they read as violations.
        def reduced(n, a, d):
            g = math.gcd(a, d)
            return real(n, a // g, d // g)

        monkeypatch.setattr(verify, "_binomial_cdf_numerators", reduced)
        assert _violations(check_binomial_grid()) > 0

    @given(st.integers(min_value=0, max_value=40),
           st.integers(min_value=0, max_value=40),
           st.fractions(min_value=0, max_value=1, max_denominator=1000))
    @settings(max_examples=200)
    def test_float_matches_exact_rational(self, k, extra, p):
        n = k + extra
        exact = Fraction(_binomial_cdf_numerators(n, p.numerator, p.denominator)[k],
                         p.denominator ** n)
        assert binomial_cdf(n, float(p))[k] == pytest.approx(float(exact), abs=1e-9)

    def test_edges(self):
        # Outside the kept window the CDF is exactly 0 below and 1 above.
        assert binomial_cdf(5, 0.3)[5] == pytest.approx(1.0, abs=1e-15)
        assert binomial_cdf(10, 0.0).tolist() == [1.0] * 11
        assert binomial_cdf(10, 1.0).tolist() == [0.0] * 10 + [1.0]
        far = binomial_cdf(1 << 12, 0.5)
        assert far[0] == 0.0 and far[-1] == 1.0

    def test_monotone_in_p_on_a_small_grid(self):
        grid = [Fraction(i, 10) for i in range(11)]
        for n in (1, 7, 20):
            for k in range(n + 1):
                vals = [Fraction(_binomial_cdf_numerators(n, p.numerator, p.denominator)[k],
                                 p.denominator ** n) for p in grid]
                assert all(a >= b for a, b in zip(vals, vals[1:]))


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

    def test_spec_rejects_a_small_positive_minimum(self):
        # t_min = 1e-13 2^1100 overflows, and inf - inf would make f nan.
        with pytest.raises(OutOfRange):
            SoftmaxSpec(np.array([1e-13, 8.0]))

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

    def test_array_matches_scalar_calls(self):
        rng = np.random.default_rng(20)
        worst = 0.0
        for _ in range(40):
            k = int(rng.integers(1, 601))
            a = rng.uniform(0.0, 8.0, size=k)
            a[rng.integers(k)] = 0.0
            spec = SoftmaxSpec(a)
            # The overflow region starts near x = 1020 for a_i near 8.
            xs = np.concatenate([rng.uniform(-5.0, 60.0, 40), rng.uniform(1015.0, 1100.0, 20)])
            scalar = [softmax_f(spec, float(x)) for x in xs]
            assert all(type(v) is float for v in scalar)
            scalar = np.array(scalar)
            diff = np.abs(softmax_f(spec, xs) - scalar)
            assert np.all(diff <= 4.0 * np.finfo(float).eps * scalar)
            worst = max(worst, float((diff / np.maximum(scalar, np.finfo(float).tiny)).max()))
        print(f"max |array - scalar| / scalar = {worst:.3e}")

    def test_derivative_bound_numeric(self):
        spec = SoftmaxSpec(np.array([0.0, 1.0, 3.0]))
        worst = check_derivative_bound(spec, np.linspace(-2.0, 10.0, 61), 1e-5)
        assert worst <= 1e-6
        with pytest.raises(OutOfRange):
            check_derivative_bound(spec, [0.0], 0.0)
        assert check_derivative_bound(spec, [], 1e-5) == -math.inf

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
