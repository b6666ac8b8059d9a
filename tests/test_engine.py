import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpexperts import engine
from dpexperts.core import Bernoulli, FiniteSupport, MechanismSpec, NoiseKind, PointMass
from dpexperts.engine import (
    InvalidHorizon,
    epoch_lengths,
    run_batch,
    run_rnm_ftnl,
    sample_scores,
)
from dpexperts.instances import (
    bernoulli_instance,
    deterministic_instance,
    paper_example_two_actions,
    parse_instance_spec,
)
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
        assert scores.shape == (300, 64) and not scores.flags.writeable
        assert np.array_equal(scores, np.tile((1 << 29) * inst.means, (300, 1)))

    @pytest.mark.parametrize("resample", [0, 1])
    def test_mixed_columns_match_column_by_column_fill(self, resample):
        inst = paper_example_two_actions()
        rng_a, rng_b = RngStream(5), RngStream(5)
        fast = sample_scores(inst, resample, 64, 1000, rng_a)
        slow = _column_by_column_scores(inst, resample, 64, 1000, rng_b)
        assert np.array_equal(fast, slow)
        assert rng_a.generator.bit_generator.state == rng_b.generator.bit_generator.state


def _column_by_column_scores(instance, resample, length, trials, rng):
    """sample_scores with every column filled in its own step, point masses too."""
    gen = rng.generator
    scores = np.empty((trials, instance.k))
    for j, model in enumerate(instance.models):
        if resample or isinstance(model, Bernoulli):
            scores[:, j] = gen.binomial(length, model.mean(), size=trials)
        elif isinstance(model, PointMass):
            scores[:, j] = length * model.value
        elif isinstance(model, FiniteSupport):
            values = np.array([v for v, _ in model.atoms])
            probs = np.array([p for _, p in model.atoms])
            counts = gen.multinomial(length, probs / probs.sum(), size=trials)
            scores[:, j] = counts @ values
    return scores


class TestBatchAgreement:
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
    def test_mixed_instance_run_batch_unchanged(self, monkeypatch, kind, eps):
        # paper-example mixes a point mass with a two-atom loss, so at B = 0
        # its epochs take the mixed path of sample_scores.
        inst = paper_example_two_actions()
        spec = MechanismSpec(0, kind, epsilon=eps)
        fast = run_batch(inst, spec, 1023, 2000, RngStream(31))
        monkeypatch.setattr(engine, "sample_scores", _column_by_column_scores)
        slow = run_batch(inst, spec, 1023, 2000, RngStream(31))
        assert np.array_equal(fast, slow)

    def test_run_batch_regret_nonnegative(self):
        inst = bernoulli_instance([0.1, 0.9])
        spec = MechanismSpec(1, NoiseKind.GUMBEL, epsilon=1.0)
        assert run_batch(inst, spec, 15, 500, RngStream(12)).min() >= 0.0
