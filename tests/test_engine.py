import itertools
import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpexperts import engine, harness, mechanism
from dpexperts.core import (
    Bernoulli,
    FiniteSupport,
    MechanismSpec,
    NoiseKind,
    OutOfRange,
    PointMass,
    make_instance,
)
from dpexperts.engine import (
    InvalidHorizon,
    epoch_lengths,
    epoch_selection_pmf,
    run_batch,
    run_rnm_ftnl,
    sample_scores,
)
from dpexperts.harness import selection_frequency
from dpexperts.mechanism import rnm_pmf_oracle, sample_pmf, select_batch, selection_pmf
from dpexperts.instances import (
    bernoulli_instance,
    deterministic_instance,
    paper_example_two_actions,
    parse_instance_spec,
)
from scipy import special, stats
from dpexperts.noise import RngStream, derive_seed


class TestEpochLengths:
    def test_doubling_with_truncation(self):
        assert epoch_lengths(1) == [1]
        assert epoch_lengths(3) == [1, 2]
        assert epoch_lengths(100) == [1, 2, 4, 8, 16, 32, 37]

    def test_power_of_two_minus_one_has_no_truncation(self):
        assert epoch_lengths((1 << 6) - 1) == [1, 2, 4, 8, 16, 32]

    @given(st.integers(min_value=1, max_value=10**9))
    def test_partition_properties(self, horizon):
        lengths = epoch_lengths(horizon)
        assert sum(lengths) == horizon
        # Every epoch except possibly the last doubles the previous one.
        assert all(b == 2 * a for a, b in zip(lengths, lengths[1:-1]))
        assert lengths[-1] <= 2 * lengths[-2] if len(lengths) > 1 else True

    def test_rejects_bad_horizon(self):
        with pytest.raises(InvalidHorizon):
            epoch_lengths(0)


class TestSingleTrajectory:
    def test_record_is_consistent(self):
        inst = bernoulli_instance([0.2, 0.8, 0.5])
        spec = MechanismSpec(1, NoiseKind.LAPLACE, epsilon=1.0)
        record = run_rnm_ftnl(inst, spec, 41, RngStream(7))
        assert record.horizon == 41
        assert [length for _, _, length in record.epoch_actions] == epoch_lengths(41)
        assert all(0 <= a < inst.k for _, a, _ in record.epoch_actions)
        manual = sum(length * inst.gaps[a] for _, a, length in record.epoch_actions)
        assert record.pseudoregret == pytest.approx(manual)

    def test_same_seed_same_trajectory(self):
        inst = paper_example_two_actions()
        spec = MechanismSpec(0, NoiseKind.GUMBEL, epsilon=0.5)
        r1 = run_rnm_ftnl(inst, spec, 63, RngStream(42))
        r2 = run_rnm_ftnl(inst, spec, 63, RngStream(42))
        assert r1 == r2

    def test_deterministic_no_noise_locks_onto_best_action(self):
        inst = deterministic_instance([0.9, 0.1, 0.5])
        spec = MechanismSpec(0, NoiseKind.NONE)
        record = run_rnm_ftnl(inst, spec, 127, RngStream(3))
        # After the first selection every epoch plays the unique minimizer.
        for r, action, _ in record.epoch_actions[1:]:
            assert action == 1

    def test_single_epoch_horizon_plays_initial_action_only(self):
        inst = deterministic_instance([0.0, 1.0])
        spec = MechanismSpec(0, NoiseKind.GUMBEL, epsilon=1.0)
        record = run_rnm_ftnl(inst, spec, 1, RngStream(9))
        assert len(record.epoch_actions) == 1


class TestScoreSampling:
    def test_point_mass_without_resampling_is_deterministic(self):
        inst = deterministic_instance([0.25, 0.75])
        scores = sample_scores(inst, 0, 16, 100, RngStream(1))
        assert np.all(scores[:, 0] == 4.0)
        assert np.all(scores[:, 1] == 12.0)

    def test_resampling_makes_point_mass_binomial(self):
        inst = deterministic_instance([0.25])
        scores = sample_scores(inst, 1, 64, 50_000, RngStream(2))[:, 0]
        assert scores.mean() == pytest.approx(16.0, abs=0.1)
        assert scores.var() == pytest.approx(64 * 0.25 * 0.75, rel=0.05)

    def test_finite_support_mean_and_support(self):
        inst = paper_example_two_actions()
        scores = sample_scores(inst, 0, 32, 50_000, RngStream(3))
        assert scores[:, 1].mean() == pytest.approx(32 * 0.32, rel=0.02)
        # Sums of 32 draws from {0.4, 0.0} are multiples of 0.4.
        assert np.allclose(np.mod(scores[:, 1] / 0.4, 1.0), 0.0, atol=1e-9)

    def test_point_masses_draw_nothing_and_share_one_row(self):
        inst = parse_instance_spec("grid:K=64")
        rng = RngStream(4)
        before = rng.generator.bit_generator.state
        scores = sample_scores(inst, 0, 1 << 29, 300, rng)
        assert rng.generator.bit_generator.state == before
        assert np.array_equal(scores, np.tile((1 << 29) * inst.means, (300, 1)))

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_point_masses_return_a_read_only_view_that_selects_like_tiles(self, kind):
        inst = parse_instance_spec("lower-bound:K=16,delta=0.1,l=3")
        scores = sample_scores(inst, 0, 1 << 10, 3000, RngStream(4))
        tiled = np.tile((1 << 10) * inst.means, (3000, 1))
        assert scores.shape == (3000, 16) and np.array_equal(scores, tiled)
        with pytest.raises(ValueError, match="read-only"):
            scores[0, 0] = 1.0
        rng, expected = RngStream(6), RngStream(6)
        picks = select_batch(scores, _spec(0, kind, 0.5), rng)
        assert np.array_equal(picks, select_batch(tiled, _spec(0, kind, 0.5), expected))
        assert rng.generator.bit_generator.state == expected.generator.bit_generator.state

    @pytest.mark.parametrize("resample", [0, 1])
    def test_mixed_columns_match_column_by_column_fill(self, resample):
        inst = paper_example_two_actions()
        rng_a, rng_b = RngStream(5), RngStream(5)
        fast = sample_scores(inst, resample, 64, 1000, rng_a)
        slow = _paper_example_scores(inst, resample, 64, 1000, rng_b)
        assert np.array_equal(fast, slow)
        assert rng_a.generator.bit_generator.state == rng_b.generator.bit_generator.state

    @pytest.mark.parametrize("resample", [0, 1])
    def test_bernoulli_columns_draw_in_order_at_every_mean(self, resample):
        # Means 0 and 1 draw their binomial too: numpy consumes the stream
        # for them, so skipping them would shift every later column's draws.
        means = [0.0, 1.0, 0.3, 0.999]
        rng_a, rng_b = RngStream(6), RngStream(6)
        fast = sample_scores(bernoulli_instance(means), resample, 1000, 500, rng_a)
        gen = rng_b.generator
        slow = np.column_stack([gen.binomial(1000, p, size=500) for p in means])
        assert np.array_equal(fast, slow)
        assert rng_a.generator.bit_generator.state == rng_b.generator.bit_generator.state

    def test_counts_past_2_to_the_63_are_out_of_range(self):
        inst = bernoulli_instance([0.2, 0.6])
        with pytest.raises(OutOfRange, match="int64"):
            sample_scores(inst, 0, 1 << 63, 10, RngStream(7))
        # Point masses draw nothing, so their scores have no count to overflow.
        scores = sample_scores(deterministic_instance([0.25]), 0, 1 << 63, 2, RngStream(7))
        assert np.all(scores == 2.0 ** 61)

    @pytest.mark.parametrize("r", [64, 65])
    def test_selection_frequency_past_2_to_the_63_is_out_of_range(self, r):
        # Epoch r has 2^(r - 1) steps; numpy's binomial counts are int64.
        spec = MechanismSpec(1, NoiseKind.LAPLACE, epsilon=1.0)
        with pytest.raises(OutOfRange, match="int64"):
            selection_frequency(parse_instance_spec("bern:0.2,0.6"), spec, r, 10, 0)

    def test_epoch_losses_map_u_below_q_to_the_higher_value(self):
        # A point mass, Bernoulli columns and a two-value loss listed
        # lower value first, interleaved.
        inst = make_instance([Bernoulli(0.3), PointMass(0.25), FiniteSupport(((0.0, 0.5), (1.0, 0.5))),
                              Bernoulli(0.0), PointMass(1.0), Bernoulli(1.0)])
        rng_a, rng_b = RngStream(6), RngStream(6)
        fast = engine._sample_epoch_losses(inst, 256, rng_a)
        u = rng_b.uniform((256, inst.k))
        slow = np.column_stack([u[:, 0] < 0.3, np.full(256, 0.25), u[:, 2] < 0.5,
                                np.zeros(256), np.ones(256), u[:, 5] < 1.0]).astype(float)
        assert np.array_equal(fast, slow)
        assert rng_a.generator.bit_generator.state == rng_b.generator.bit_generator.state


def _paper_example_scores(instance, resample, length, trials, rng):
    """paper-example's scores written from its literal losses, the point 0.3
    and the atoms ((0.4, 0.8), (0.0, 0.2)), column by column: Binomial(length,
    mean) counts with resampling, and without it the point's fixed score and
    multinomial atom counts. `instance` is unused; the signature is
    `sample_scores`', so that tests can patch it in."""
    gen = rng.generator
    if resample:
        return np.column_stack([gen.binomial(length, mean, size=trials)
                                for mean in (0.3, 0.4 * 0.8)]).astype(float)
    counts = gen.multinomial(length, [0.8, 0.2], size=trials)
    return np.column_stack([np.full(trials, length * 0.3), counts @ np.array([0.4, 0.0])])


def _drawn_run_batch(instance, spec, horizon, trials, rng):
    """`run_batch` with every epoch drawing its picks: through `sample_pmf`
    where the epoch has a pmf, one-hot or not, else from sampled scores."""
    lengths = epoch_lengths(horizon)
    pmfs = engine.epoch_pmfs(instance, spec, horizon)
    k = instance.k
    regret = np.zeros(trials)
    actions = np.minimum((rng.uniform(trials) * k).astype(int), k - 1)
    for r, length in enumerate(lengths, start=1):
        regret += length * instance.gaps[actions]
        if r < len(lengths):
            pmf = pmfs[r - 1]
            if pmf is None:
                scores = sample_scores(instance, spec.resample, length, trials, rng)
                actions = select_batch(scores, spec, rng)
            else:
                actions = sample_pmf(pmf, trials, rng)
    return regret


class TestBatchAgreement:
    @pytest.mark.parametrize("spec_text,kind,eps,horizon", [
        (spec_text, kind, eps, horizon) for horizon in (63, (1 << 30) - 1)
        for spec_text, kind, eps in [
            ("worst-np:K=8,delta=0.25", NoiseKind.GUMBEL, 2.0),
            ("lower-bound:K=16,delta=0.1,l=3", NoiseKind.LAPLACE, 0.5),
            ("grid:K=64", NoiseKind.NONE, 0.0),
            ("paper-example", NoiseKind.LAPLACE, 1.0),
        ]
    ] + [("det:0,1", NoiseKind.LAPLACE, 1.0, (1 << 60) - 1)])  # lengths past 2^53 round
    def test_certain_epochs_skip_to_the_drawn_picks(self, spec_text, kind, eps, horizon):
        # A one-hot epoch skips its uniforms; the regrets and the stream are
        # bitwise those of drawing every epoch's picks.
        inst, spec = parse_instance_spec(spec_text), _spec(0, kind, eps)
        rng, expected = RngStream(9), RngStream(9)
        regret = run_batch(inst, spec, horizon, 2000, rng)
        assert np.array_equal(regret, _drawn_run_batch(inst, spec, horizon, 2000, expected))
        assert rng.generator.bit_generator.state == expected.generator.bit_generator.state
        # Every case has certain epochs past T = 63, so the skip is taken.
        pmfs = engine.epoch_pmfs(inst, spec, horizon)
        assert horizon == 63 or any(np.count_nonzero(pmf) == 1 for pmf in pmfs)

    @pytest.mark.parametrize("spec_text,resample,kind,eps", [
        pytest.param("paper-example", 0, NoiseKind.GUMBEL, 1.0, id="0-gumbel-1.0"),
        pytest.param("paper-example", 1, NoiseKind.LAPLACE, 0.5, id="1-laplace-0.5"),
        pytest.param("paper-example", 0, NoiseKind.NONE, 0.0, id="0-none-0.0"),
        # Every action a point mass: run_batch samples the shared score row
        # from its exact pmf, the per-step engine adds real noise.
        pytest.param("worst-np:K=8,delta=0.25", 0, NoiseKind.GUMBEL, 2.0,
                     id="worst-np-0-gumbel-2.0"),
        # The same for the Laplace and Exponential selection_pmf kernel.
        pytest.param("lower-bound:K=16,delta=0.1,l=3", 0, NoiseKind.LAPLACE, 0.5,
                     id="lower-bound-0-laplace-0.5"),
        pytest.param("grid:K=8", 0, NoiseKind.EXPONENTIAL, 1.0, id="grid-0-exponential-1.0"),
        # Lattice scores: run_batch draws each epoch's picks from
        # epoch_selection_pmf, the per-step engine sums real losses.
        pytest.param("bern:0.3,0.5,0.6", 0, NoiseKind.EXPONENTIAL, 1.0,
                     id="bern-0-exponential-1.0"),
        pytest.param("grid:K=8", 1, NoiseKind.GUMBEL, 1.0, id="grid-1-gumbel-1.0"),
        pytest.param("paper-example", 1, NoiseKind.NONE, 0.0, id="1-none-0.0"),
    ])
    def test_run_batch_matches_looped_engine(self, spec_text, resample, kind, eps):
        """The batched sampler is a distributional shortcut; its mean pseudoregret
        must agree with looping the per-step engine within Monte Carlo error."""
        inst = parse_instance_spec(spec_text)
        spec = (MechanismSpec(resample, kind, epsilon=eps) if kind is not NoiseKind.NONE
                else MechanismSpec(resample, kind))
        horizon, trials = 31, 4000
        looped = np.array([
            run_rnm_ftnl(inst, spec, horizon, RngStream(derive_seed(1000, i))).pseudoregret
            for i in range(trials)
        ])
        batched = run_batch(inst, spec, horizon, trials, RngStream(derive_seed(2000, 0)))
        stderr = math.hypot(looped.std(ddof=1), batched.std(ddof=1)) / math.sqrt(trials)
        assert abs(looped.mean() - batched.mean()) < 3.0 * stderr

    def test_run_batch_reproducible(self):
        inst = bernoulli_instance([0.3, 0.6])
        spec = MechanismSpec(1, NoiseKind.EXPONENTIAL, epsilon=2.0)
        a = run_batch(inst, spec, 63, 100, RngStream(8))
        b = run_batch(inst, spec, 63, 100, RngStream(8))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind,eps", [(NoiseKind.LAPLACE, 1.0), (NoiseKind.NONE, 0.0)])
    def test_mixed_instance_selection_frequency_unchanged(self, monkeypatch, kind, eps):
        # paper-example mixes a point mass with a two-atom loss, so at B = 0
        # its epochs take the mixed path of sample_scores.
        inst = paper_example_two_actions()
        spec = MechanismSpec(0, kind, epsilon=eps)
        fast = [selection_frequency(inst, spec, r, 2000, 31) for r in (1, 5, 10)]
        monkeypatch.setattr(harness, "sample_scores", _paper_example_scores)
        slow = [selection_frequency(inst, spec, r, 2000, 31) for r in (1, 5, 10)]
        assert all(np.array_equal(a, b) for a, b in zip(fast, slow))

    def test_run_batch_regret_nonnegative(self):
        inst = bernoulli_instance([0.1, 0.9])
        spec = MechanismSpec(1, NoiseKind.GUMBEL, epsilon=1.0)
        assert run_batch(inst, spec, 15, 500, RngStream(12)).min() >= 0.0


def _spec(resample, kind, eps):
    return MechanismSpec(resample, kind, epsilon=eps if kind is not NoiseKind.NONE else 0.0)


def _enumerated_law(law, mean, resample, length):
    """[(score, probability)] of one action's epoch score, by enumeration:
    the loss law (b, a, q) scores length b + (a - b) c with probability
    Binomial(length, q) at c, and with resampling the score is
    Binomial(length, mean). Counts of probability 0 are left out."""
    b, a, q = (0.0, 1.0, mean) if resample else law
    terms = [(length * b + (a - b) * c, math.comb(length, c) * q ** c * (1 - q) ** (length - c))
             for c in range(length + 1)]
    return [(score, p) for score, p in terms if p > 0.0]


def _row_pmf(scores, spec):
    """Selection pmf of one score row, apart from the lattice kernel: the
    softmax, the closed-form Laplace/Exponential oracle, or the tie split."""
    if spec.noise is NoiseKind.GUMBEL:
        z = np.exp(-(scores - scores.min()) * spec.epsilon / 2.0)
        return z / z.sum()
    if spec.noise is NoiseKind.NONE:
        ties = scores <= scores.min() + 1e-9 * (1.0 + abs(scores.min()))
        return ties / ties.sum()
    return rnm_pmf_oracle(scores, spec)


def _brute_force_pmf(inst, spec, length):
    laws = [_enumerated_law(law, mean, spec.resample, length)
            for law, mean in zip(inst.laws, inst.means)]
    pmf = np.zeros(inst.k)
    for combo in itertools.product(*laws):
        pmf += math.prod(p for _, p in combo) * _row_pmf(np.array([s for s, _ in combo]), spec)
    return pmf


BRUTE_INSTANCES = {
    # A point mass at 0.3 L against 0.4 Binomial(L, 0.8): at B = 0 a point
    # off the lattice, with exact ties (L = 4: 1.2 against 3 x 0.4).
    "paper": paper_example_two_actions(),
    "bern": bernoulli_instance([0.2, 0.5, 0.8]),
    # A point, a repeated Binomial law, and a two-atom {0, 1} loss on the
    # same lattice.
    "mixed": make_instance([PointMass(0.3), Bernoulli(0.4), Bernoulli(0.4),
                            FiniteSupport(((0.0, 0.5), (1.0, 0.5)))]),
}


class TestEpochSelectionPmf:
    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("resample", [0, 1])
    @pytest.mark.parametrize("name", sorted(BRUTE_INSTANCES))
    def test_matches_brute_force_enumeration(self, name, resample, kind):
        # eps = 16 makes the lattice step 8 noise scales, refined to 8 steps
        # of one scale; eps = 0.25 makes it 1/8 of a scale; eps = 3 makes it
        # 1.5 scales, refined to two steps of 0.75 that a point's kink
        # splits unevenly.
        inst = BRUTE_INSTANCES[name]
        for eps in ((0.25, 1.0, 3.0, 4.0, 16.0) if kind is not NoiseKind.NONE else (0.0,)):
            spec = _spec(resample, kind, eps)
            for length in (1, 3, 4, 6):
                # (L + 1)^4 = 2401 rows of the closed-form oracle would cost
                # seconds; "mixed" at B = 1 stops at L = 4.
                if (length + 1) ** (inst.k if resample else 0) > 1000:
                    continue
                got = epoch_selection_pmf(inst, spec, length)
                expected = _brute_force_pmf(inst, spec, length)
                assert np.abs(got - expected).max() <= 1e-13, (eps, length)

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("spec_text,resample", [
        ("bern:0.4,0.5", 1), ("paper-example", 0), ("paper-example", 1)])
    def test_two_action_reference_at_large_length(self, spec_text, resample, kind):
        # P(action 1) = sum_d P(S_1 - S_0 = d) P(Q_1 - Q_0 > d) at L = 2^18,
        # from scipy's binomial pmf and the closed-form two-action tails.
        inst = parse_instance_spec(spec_text)
        spec = _spec(resample, kind, 1.0)
        length = 1 << 18
        count = np.arange(length + 1)
        if resample:
            d_pmfs = [stats.binom.pmf(count, length, m) for m in inst.means]
            keep = [p > 1e-40 for p in d_pmfs]
            lows = [int(np.argmax(k)) for k in keep]
            pmf0, pmf1 = (p[k] for p, k in zip(d_pmfs, keep))
            diff = lows[1] - (lows[0] + pmf0.size - 1) + np.arange(pmf0.size + pmf1.size - 1)
            weight = np.convolve(pmf1, pmf0[::-1])
        elif spec_text == "paper-example":
            # Action 1 scores 0.4 x Binomial(L, 0.8); action 0 is the point 0.3 L.
            weight = stats.binom.pmf(count, length, 0.8)
            diff = 0.4 * count - 0.3 * length
        beta = spec.scale()
        if kind is NoiseKind.GUMBEL:
            pick = special.expit(-diff / beta)
        elif kind is NoiseKind.NONE:
            tie = np.abs(diff) <= 1e-9 * length
            pick = np.where(tie, 0.5, np.where(diff < 0, 1.0, 0.0))
        else:
            a = np.abs(diff) / beta
            tail = 0.5 * np.exp(-a) * ((1.0 + 0.5 * a) if kind is NoiseKind.LAPLACE else 1.0)
            pick = np.where(diff >= 0, tail, 1.0 - tail)
        expected = math.fsum(weight * pick)
        got = epoch_selection_pmf(inst, spec, length)
        assert abs(got[1] - expected) <= 1e-12
        assert abs(got.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("eps", [0.05, 1.0, 16.0])
    def test_gumbel_matches_dense_grid_at_large_length(self, eps):
        # No FFT and no node offsets: F_Y and f_Y straight from scipy's
        # binomial pmfs on a y-grid of spacing 1/8 noise scales, integrated
        # by the trapezoid rule. The lattice step is h = eps / 2 scales.
        inst = bernoulli_instance([0.45, 0.5, 0.55])
        length = 1024
        h = eps / 2.0
        count = np.arange(length + 1)
        laws = [stats.binom.pmf(count, length, m) for m in inst.means]
        laws = [(count[p > 1e-40], p[p > 1e-40]) for p in laws]
        # Below y_lo the F_Y of the law with the lowest top is under exp(-e^5),
        # which bounds every integrand's mass there; above y_hi every f_Y has
        # under e^-40 of its mass.
        y_lo = -h * min(k[-1] for k, _ in laws) - 5.0
        y_hi = -h * min(k[0] for k, _ in laws) + 40.0
        y = np.linspace(y_lo, y_hi, int(math.ceil(8.0 * (y_hi - y_lo))) + 1)
        cdf = np.empty((inst.k, y.size))
        pdf = np.empty((inst.k, y.size))
        for i, (k, p) in enumerate(laws):
            for lo in range(0, y.size, 2048):
                t = np.exp(-np.maximum(y[lo:lo + 2048, None] + h * k, -700.0))
                cdf[i, lo:lo + 2048] = np.exp(-t) @ p
                pdf[i, lo:lo + 2048] = (t * np.exp(-t)) @ p
        expected = np.empty(inst.k)
        for j in range(inst.k):
            integrand = pdf[j] * np.prod(np.delete(cdf, j, axis=0), axis=0)
            expected[j] = np.trapezoid(integrand, y)
        got = epoch_selection_pmf(inst, MechanismSpec(1, NoiseKind.GUMBEL, epsilon=eps), length)
        assert np.abs(got - expected).max() <= 1e-13

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("spec_text,resample", [
        ("grid:K=8", 1), ("paper-example", 0), ("bern:0.2,0.5,0.8", 0)])
    def test_picks_match_selection_frequency(self, spec_text, resample, kind):
        # selection_frequency samples real scores and real noise on distinct
        # rows; every action's frequency lies within 4 sigma of the pmf.
        inst = parse_instance_spec(spec_text)
        spec = _spec(resample, kind, 1.0)
        trials = 20_000
        for r in (3, 6):
            pmf = epoch_selection_pmf(inst, spec, 1 << (r - 1))
            freq = selection_frequency(inst, spec, r, trials, 77)
            sigma = np.sqrt(pmf * (1.0 - pmf) / trials)
            assert np.all(np.abs(freq - pmf) <= 4.0 * sigma + 1e-12), (r, freq, pmf)

    def test_point_masses_select_from_the_shared_row(self):
        # Every action a point mass at B = 0: each epoch's picks are drawn
        # from selection_pmf of the one score row every trial shares.
        inst = parse_instance_spec("lower-bound:K=16,delta=0.1,l=3")
        for kind in NoiseKind:
            spec = _spec(0, kind, 0.5)
            rng = RngStream(5)
            actions = np.minimum((rng.uniform(300) * inst.k).astype(int), inst.k - 1)
            regret = np.zeros(300)
            lengths = epoch_lengths(1023)
            for r, length in enumerate(lengths, start=1):
                regret += length * inst.gaps[actions]
                if r < len(lengths):
                    actions = sample_pmf(selection_pmf(length * inst.means, spec), 300, rng)
            assert np.array_equal(run_batch(inst, spec, 1023, 300, RngStream(5)), regret)

    def test_sampling_fallback_matches_sampled_scores_loop(self):
        # Steps 0.4 and 1 share no lattice, so every epoch samples its scores.
        inst = make_instance([FiniteSupport(((0.0, 0.5), (0.4, 0.5))), Bernoulli(0.3)])
        spec = MechanismSpec(0, NoiseKind.LAPLACE, epsilon=1.0)
        assert all(pmf is None for pmf in engine.epoch_pmfs(inst, spec, 63))
        rng = RngStream(6)
        actions = np.minimum((rng.uniform(500) * 2).astype(int), 1)
        regret = np.zeros(500)
        lengths = epoch_lengths(63)
        for r, length in enumerate(lengths, start=1):
            regret += length * inst.gaps[actions]
            if r < len(lengths):
                actions = select_batch(sample_scores(inst, 0, length, 500, rng), spec, rng)
        assert np.array_equal(run_batch(inst, spec, 63, 500, RngStream(6)), regret)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_law_groups_match_np_unique(self, rows, seed):
        # Law tables drawn from a few values per column, so rows repeat, with
        # -0.0 beside 0.0: the first indices, groups and counts are np.unique's.
        rng = np.random.default_rng(seed)
        choices = [np.array([-0.0, 0.0, 0.5, 2.0]), np.array([0.0, 0.25, 1.0]),
                   np.array([0.0, 8.0, 1024.0]), np.array([0.0, 0.1, 0.3, 1e-12])]
        columns = np.stack([rng.choice(c[:rng.integers(1, c.size + 1)], rows)
                            for c in choices])
        _, first, group, copies = np.unique(columns.T, axis=0, return_index=True,
                                            return_inverse=True, return_counts=True)
        got = mechanism._group_rows(columns)
        for a, b in zip(got, (first, group.ravel(), copies)):
            assert np.array_equal(a, b)

    def test_mixed_steps_and_offsets_take_the_fallback(self):
        spec = MechanismSpec(0, NoiseKind.GUMBEL, epsilon=1.0)
        steps = make_instance([FiniteSupport(((0.0, 0.5), (0.4, 0.5))), Bernoulli(0.3)])
        assert epoch_selection_pmf(steps, spec, 8) is None
        # Steps 0.4, offsets 0.1 L and 0.3 L: one lattice only when L is even.
        offsets = make_instance([FiniteSupport(((0.1, 0.5), (0.5, 0.5))),
                                 FiniteSupport(((0.3, 0.5), (0.7, 0.5)))])
        assert epoch_selection_pmf(offsets, spec, 3) is None
        assert epoch_selection_pmf(offsets, spec, 4) is not None

    def test_noise_many_steps_wide_takes_the_fallback(self, monkeypatch):
        # 64 overlapping laws under noise 2000 lattice steps wide: the laws
        # times the kernel's periods exceed PMF_MAX_VALUES, and the refusal
        # comes before any tail sum. At 200 steps they fit.
        inst = bernoulli_instance(0.5 + 0.001 * np.arange(64))
        pmf = epoch_selection_pmf(inst, MechanismSpec(1, NoiseKind.LAPLACE, epsilon=0.01), 8)
        assert abs(pmf.sum() - 1.0) <= 1e-12
        assert epoch_selection_pmf(inst, MechanismSpec(1, NoiseKind.LAPLACE, epsilon=1.0),
                                   8) is not None

        def unused(*args, **kwargs):
            raise AssertionError("tail sums taken for a refused epoch")

        monkeypatch.setattr(mechanism, "_tail_sums", unused)
        assert epoch_selection_pmf(inst, MechanismSpec(1, NoiseKind.LAPLACE, epsilon=0.001),
                                   8) is None

    @pytest.mark.parametrize("kind", [NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL,
                                      NoiseKind.GUMBEL])
    def test_steps_many_noise_scales_wide_take_the_fallback(self, kind, monkeypatch):
        # At eps = 1e7 a unit step is h = 5e6 noise scales, which
        # `lattice_selection_pmf` would refine to 5e6 steps: two laws of 2 or
        # 3 lattice values make a refined matrix of 1e7 or 2e7 values, over
        # PMF_MAX_VALUES, and the refusal comes before the kernel. At h = 1
        # the epoch keeps its pmf.
        inst = bernoulli_instance([0.2, 0.5])
        assert epoch_selection_pmf(inst, MechanismSpec(1, kind, epsilon=2.0), 2) is not None

        def unused(*args):
            raise AssertionError("lattice kernel called for a refused epoch")

        monkeypatch.setattr(mechanism, "_lattice_hazard_pmf", unused)
        for length in (1, 2):
            assert epoch_selection_pmf(inst, MechanismSpec(1, kind, epsilon=1e7), length) is None

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_binomial_matrix_over_the_budget_takes_the_fallback(self, kind, monkeypatch):
        # At L = 2^40 two close means keep both laws, each within a Hoeffding
        # radius of 7.3e6 counts: the (laws, window) matrix would hold 2.9e7
        # values, and the refusal comes before any binomial pmf is built.
        def unused(n, qs):
            raise AssertionError("binomial pmfs built for a refused epoch")

        monkeypatch.setattr(engine, "_binomial_pmfs", unused)
        inst = parse_instance_spec("bern:0.3,0.3000000001")
        assert epoch_selection_pmf(inst, _spec(1, kind, 1.0), 1 << 40) is None

    def test_tie_classes_over_the_budget_are_refused(self, monkeypatch):
        # One lattice law on 2048 values and 600 points at its top, passed to
        # the kernel as they are: 601 laws times 2048 tie classes exceed
        # PMF_MAX_VALUES, and the refusal comes before any node's product.
        def unused(*args):
            raise AssertionError("products formed for a refused tie split")

        monkeypatch.setattr(mechanism, "_add_exclusive_products", unused)
        pmfs = np.zeros((601, 2048))
        pmfs[0] = 1.0 / 2048
        pmfs[1:, 0] = 1.0
        lows = np.concatenate([[0.0], np.full(600, 2047.0)])
        sizes = np.concatenate([[2048], np.ones(600, dtype=int)])
        assert mechanism.lattice_selection_pmf(lows, pmfs, sizes, 1.0, np.ones(601),
                                               _spec(1, NoiseKind.NONE, 0.0)) is None

    @pytest.mark.parametrize("eps", [2e3, 2e4, 1e5])
    @pytest.mark.parametrize("kind", [NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL,
                                      NoiseKind.GUMBEL])
    def test_steps_far_wider_than_the_noise_split_ties_evenly(self, kind, eps):
        # i.i.d. continuous noise splits ties evenly and, across a lattice
        # step of h >= 400 noise scales, flips an order with probability
        # under e^-390: the pmf is the noiseless tie split, which
        # `_lattice_tie_pmf` computes apart from the noisy kernel. The
        # kernel's passes do not grow with h, so each epoch stays under 1 s.
        for spec_text, resample, length in (("bern:0.2,0.5", 1, 1), ("bern:0.2,0.5", 1, 2),
                                            ("paper-example", 0, 2)):
            inst = parse_instance_spec(spec_text)
            start = time.perf_counter()
            got = epoch_selection_pmf(inst, _spec(resample, kind, eps), length)
            assert time.perf_counter() - start < 1.0
            expected = epoch_selection_pmf(inst, _spec(resample, NoiseKind.NONE, 0.0), length)
            assert np.abs(got - expected).max() <= 1e-12, (spec_text, length)

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_one_surviving_action_is_one_hot_at_any_length(self, kind, monkeypatch):
        # From 2^33 on the winner's binomial matrix is over PMF_MAX_VALUES,
        # but the loser is pruned, so no binomial pmf is needed; 2^70
        # overflows an int64 law column. Tied survivors share one law, so
        # they are uniform by exchangeability, with no pmf either.
        def unused(n, qs):
            raise AssertionError("binomial pmf built for exchangeable actions")

        monkeypatch.setattr(engine, "_binomial_pmfs", unused)
        for means, expected in (([0.2, 0.5], [1.0, 0.0]), ([0.3, 0.9, 0.3], [0.5, 0.0, 0.5])):
            inst = bernoulli_instance(means)
            for length in (1 << 40, 1 << 70):
                assert epoch_selection_pmf(inst, _spec(1, kind, 1.0), length).tolist() == expected

    @pytest.mark.parametrize("kind", [NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL,
                                      NoiseKind.GUMBEL])
    def test_only_points_near_the_best_take_their_score_row(self, kind, monkeypatch):
        # From L = 2^8 the Bernoulli(0.9) is pruned and two points are left:
        # their pmf is that of their score row, with no lattice kernel.
        def unused(*args):
            raise AssertionError("lattice kernel called for two points")

        monkeypatch.setattr(engine, "lattice_selection_pmf", unused)
        inst = make_instance([PointMass(0.1), PointMass(0.1001), Bernoulli(0.9)])
        spec = _spec(0, kind, 1.0)
        for length in (1 << r for r in range(8, 16)):
            pmf = epoch_selection_pmf(inst, spec, length)
            expected = rnm_pmf_oracle(length * np.array([0.1, 0.1001]), spec)
            assert pmf[2] == 0.0
            assert np.abs(pmf[:2] - expected).max() <= 1e-15, length

    @pytest.mark.parametrize("kind", [NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL,
                                      NoiseKind.GUMBEL])
    def test_points_left_by_the_floor_prune_skip_the_tail_sums(self, kind, monkeypatch):
        # The Bernoulli(0.05)'s window reaches the two points at 0, but its
        # floor lies over PRUNE_SCALES above them: the kernel returns the
        # points' tie split before taking any tail sum.
        def unused(*args, **kwargs):
            raise AssertionError("lattice work done for two points")

        monkeypatch.setattr(mechanism, "_tail_sums", unused)
        pmf = epoch_selection_pmf(parse_instance_spec("bern:0,0,0.05"), _spec(0, kind, 1.0),
                                  4096)
        assert np.abs(pmf - [0.5, 0.5, 0.0]).max() <= 1e-15

    # Two-action entries far below 1e-13 (cases with small true p), B=1, one
    # epoch of length L: the second action's p against a brute-force mpmath
    # sum over both binomials of the two-noise tail P(Q_2 - Q_1 > x), b = 2/eps:
    # e^(-x/b) (2 + x/b) / 4 at x >= 0 for Laplace, the logistic
    # 1 / (1 + e^(x/b)) for Gumbel.
    @pytest.mark.parametrize("kind", [NoiseKind.LAPLACE, NoiseKind.GUMBEL])
    @pytest.mark.parametrize("means,length,eps", [((0.1, 0.9), 16, 4.0), ((0.1, 0.9), 32, 4.0),
                                                  ((0.2, 0.8), 64, 2.0), ((0.1, 0.9), 64, 2.0)])
    def test_small_entries_are_accurate_relative_to_themselves(self, means, length, eps, kind):
        with mp.workdps(40):
            b = mp.mpf(2) / eps

            def tail(x):
                if kind is NoiseKind.GUMBEL:
                    return 1 / (1 + mp.exp(x / b))
                side = mp.exp(-abs(x) / b) * (2 + abs(x) / b) / 4
                return side if x >= 0 else 1 - side

            laws = [[mp.binomial(length, s) * mp.mpf(q) ** s * (1 - mp.mpf(q)) ** (length - s)
                     for s in range(length + 1)] for q in means]
            expected = mp.fsum(laws[0][s] * laws[1][t] * tail(t - s)
                               for s in range(length + 1) for t in range(length + 1))
        got = epoch_selection_pmf(bernoulli_instance(list(means)),
                                  MechanismSpec(1, kind, epsilon=eps), length)[1]
        assert abs(got / float(expected) - 1.0) <= 1e-12

    def test_identical_laws_are_grouped_without_cost_in_k(self):
        # 299 actions share one Binomial law: the kernel integrates two laws,
        # and the shared one's probability is split evenly.
        inst = parse_instance_spec("worst-np:K=300,delta=0.01")
        pmf = epoch_selection_pmf(inst, MechanismSpec(1, NoiseKind.LAPLACE, epsilon=1.0),
                                  1 << 12)
        assert np.all(pmf[1:] == pmf[1]) and pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert pmf[0] > pmf[1]


def _scalar_binomial_pmf(n: int, p: float):
    """The one-law builder `engine._binomial_pmfs` replaced, kept as its
    reference: (lowest count, pmf) of Binomial(n, p) for 0 < p < 1, from
    log-ratio cumsums outwards from the mode on a window doubled until both
    ends are cut or at 0 and n."""
    mode = min(int((n + 1) * p), n)
    log_odds = math.log(p) - math.log1p(-p)
    width = int(12.0 * math.sqrt(n * p * (1.0 - p))) + 16
    while True:
        up = np.arange(mode, min(n, mode + width), dtype=float)
        down = np.arange(mode - 1, max(-1, mode - 1 - width), -1, dtype=float)
        log_up = np.cumsum(np.log((n - up) / (up + 1.0)) + log_odds)
        log_down = np.cumsum(np.log((down + 1.0) / (n - down)) - log_odds)
        if ((up.size == n - mode or log_up[-1] < -70.0)
                and (down.size == mode or log_down[-1] < -70.0)):
            break
        width *= 2
    log_pmf = np.concatenate([log_down[::-1], [0.0], log_up])
    kept = np.flatnonzero(log_pmf >= -70.0)
    pmf = np.exp(log_pmf[kept[0]:kept[-1] + 1])
    return mode - down.size + int(kept[0]), pmf / pmf.sum()


def _log_binom_ratio(n: int, q: float, k: int) -> float:
    """log P(k) - log P(mode) of Binomial(n, q), from mpmath loggamma
    differences at 50 digits; scipy's `binom.logpmf` errs by about 1e-5
    nats at n near 2^32."""
    mode = min(int((n + 1) * q), n)
    with mp.workdps(50):
        log_q, log_1q = mp.log(mp.mpf(q)), mp.log1p(-mp.mpf(q))

        def log_pmf(c):
            return -mp.loggamma(c + 1) - mp.loggamma(n - c + 1) + c * log_q + (n - c) * log_1q

        return float(log_pmf(k) - log_pmf(mode))


# A draw on which scipy put the low end at -70.0000068 nats, past the 1e-6
# slack; at 50 digits it lies at -69.999995, inside the cut.
CUT_DRAW_N, CUT_DRAW_Q = 3954143440, 0.21405810699932298


class TestBinomialPmf:
    @pytest.mark.parametrize("n,p", [(6, 0.01), (1000, 0.2), (1 << 18, 0.4), (1 << 20, 1e-5),
                                     (1 << 29, 0.37)])
    def test_matches_scipy_and_cuts_at_70(self, n, p):
        low, pmf = engine._binomial_pmf(n, p)
        expected = stats.binom.pmf(np.arange(low, low + pmf.size), n, p)
        assert np.abs(pmf - expected).max() <= 1e-15
        peak = expected.max()
        # Every kept count is within e^70 of the mode, and its neighbours
        # outside the cut are not.
        assert np.log(expected.min() / peak) >= -70.0 - 1e-6
        for outside in (low - 1, low + pmf.size):
            if 0 <= outside <= n:
                assert stats.binom.pmf(outside, n, p) < math.exp(-70.0) * peak

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 1 << 32), log_p=st.floats(math.log(1e-12), math.log(0.5)),
           upper=st.booleans())
    @example(n=CUT_DRAW_N, log_p=math.log(CUT_DRAW_Q), upper=False)
    def test_window_holds_the_cut_on_drawn_laws(self, n, log_p, upper):
        # The pmf holds every count within 70 nats of the mode and no other:
        # its end counts are inside the cut, the counts just beyond them
        # outside it (the log-pmf relative to the mode, in mpmath), from
        # n = 1 to 2^32 and p out to 1e-12 from 0 and from 1.
        p = -math.expm1(log_p) if upper else math.exp(log_p)
        low, pmf = engine._binomial_pmf(n, p)
        for end in (low, low + pmf.size - 1):
            assert _log_binom_ratio(n, p, end) >= -70.0 - 1e-6
        for outside in (low - 1, low + pmf.size):
            if 0 <= outside <= n:
                assert _log_binom_ratio(n, p, outside) < -70.0 + 1e-6
        assert abs(pmf.sum() - 1.0) <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 1 << 32),
           laws=st.lists(st.tuples(st.floats(math.log(1e-12), math.log(0.5)), st.booleans()),
                         min_size=2, max_size=5))
    @example(n=CUT_DRAW_N, laws=[(math.log(CUT_DRAW_Q), False), (math.log(0.3), True)])
    def test_batched_rows_are_their_one_row_calls(self, n, laws):
        # Several laws in one call, with p out to 1e-12 from 0 and from 1:
        # every row is bitwise its one-row call, whatever window or block
        # the others share, and the scalar builder's output, and keeps the
        # cut at both ends.
        qs = [-math.expm1(log_p) if upper else math.exp(log_p) for log_p, upper in laws]
        lows, pmfs, sizes = engine._binomial_pmfs(n, qs)
        assert pmfs.shape == (len(qs), sizes.max())
        for q, low, row, size in zip(qs, lows, pmfs, sizes):
            one_low, one = engine._binomial_pmf(n, q)
            assert low == one_low and size == one.size
            assert np.array_equal(row[:size], one) and not row[size:].any()
            scalar_low, scalar = _scalar_binomial_pmf(n, q)
            assert low == scalar_low and np.array_equal(row[:size], scalar)
            for end in (low, low + size - 1):
                assert _log_binom_ratio(n, q, end) >= -70.0 - 1e-6
            for outside in (low - 1, low + size):
                if 0 <= outside <= n:
                    assert _log_binom_ratio(n, q, outside) < -70.0 + 1e-6

    def test_degenerate_means_are_points(self):
        assert engine._binomial_pmf(9, 0.0)[0] == 0
        assert engine._binomial_pmf(9, 1.0)[0] == 9
        assert engine._binomial_pmf(9, 1.0)[1].tolist() == [1.0]
        # Among random laws a point is the row [1, 0, ...] of size 1.
        lows, pmfs, sizes = engine._binomial_pmfs(9, [0.0, 0.3, 1.0])
        assert lows[[0, 2]].tolist() == [0, 9] and sizes[[0, 2]].tolist() == [1, 1]
        assert pmfs[[0, 2]].tolist() == [[1.0] + [0.0] * (pmfs.shape[1] - 1)] * 2
        assert np.array_equal(pmfs[1, :sizes[1]], engine._binomial_pmf(9, 0.3)[1])
