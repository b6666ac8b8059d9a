import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dpexperts
from dpexperts.core import (
    PROB_TOL,
    Bernoulli,
    FiniteSupport,
    InvalidProbabilities,
    InvalidSupport,
    MechanismSpec,
    NoiseKind,
    OutOfRange,
    PointMass,
    RegretEstimate,
    RunRecord,
    TwoPointLoss,
    make_instance,
)
from dpexperts.engine import _sample_epoch_losses

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class _FixedUniforms:
    """Stands in for an RngStream whose next uniforms are `u`."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def uniform(self, shape):
        return self.u.reshape(shape)


def _losses(model, u):
    """The per-step engine's losses of one action for the uniforms u."""
    return _sample_epoch_losses(make_instance([model]), len(u), _FixedUniforms(u))[:, 0]


class TestLossModels:
    def test_point_mass_mean_and_sample(self):
        m = PointMass(0.3)
        assert m == TwoPointLoss(0.3, 0.3, 0.0)
        assert m.mean() == 0.3
        assert np.all(_losses(m, [0.0, 0.5, 0.999]) == 0.3)

    def test_two_point_loss_validates_itself(self):
        assert TwoPointLoss(0.25, 0.75, 0.5).mean() == 0.5
        with pytest.raises(InvalidSupport):
            TwoPointLoss(0.6, 0.2, 0.5)
        with pytest.raises(InvalidSupport):
            TwoPointLoss(-0.1, 0.2, 0.5)
        with pytest.raises(InvalidSupport):
            TwoPointLoss(0.2, 1.5, 0.5)
        for q in (-0.1, 1.5, math.nan):
            with pytest.raises(InvalidProbabilities):
                TwoPointLoss(0.2, 0.6, q)

    def test_point_mass_rejects_out_of_range(self):
        with pytest.raises(InvalidSupport):
            PointMass(1.5)
        with pytest.raises(InvalidSupport):
            PointMass(-0.1)

    @given(unit)
    def test_bernoulli_sample_mean_matches_p(self, p):
        # Inverse CDF on an equispaced grid reproduces the mean to grid accuracy.
        u = (np.arange(10_000) + 0.5) / 10_000
        assert abs(_losses(Bernoulli(p), u).mean() - p) < 1e-4

    def test_bernoulli_convention_u_below_p_is_loss_one(self):
        out = _losses(Bernoulli(0.25), [0.0, 0.24, 0.25, 0.9])
        assert out.tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_finite_support_validation(self):
        with pytest.raises(InvalidProbabilities):
            FiniteSupport(())
        with pytest.raises(InvalidProbabilities):
            FiniteSupport(((0.5, 0.7), (0.1, 0.7)))
        with pytest.raises(InvalidProbabilities):
            FiniteSupport(((0.5, -0.5), (0.1, 1.5)))
        with pytest.raises(InvalidSupport):
            FiniteSupport(((1.5, 1.0),))

    def test_nan_atom_probability_is_rejected(self):
        # A NaN total passes |total - 1| > tol, and the means would be NaN.
        with pytest.raises(InvalidProbabilities):
            FiniteSupport(((0.5, float("nan")), (0.2, 1.0)))

    @given(st.lists(st.tuples(unit, st.floats(min_value=0.01, max_value=1.0)),
                    min_size=1, max_size=5))
    def test_finite_support_mean_matches_exact_rational(self, raw):
        total = sum(Fraction(p).limit_denominator(10**6) for _, p in raw)
        atoms = []
        exact = Fraction(0)
        probs = [Fraction(p).limit_denominator(10**6) / total for _, p in raw]
        for (v, _), q in zip(raw, probs):
            vq = Fraction(v).limit_denominator(10**6)
            atoms.append((float(vq), float(q)))
            exact += vq * q
        if abs(math.fsum(q for _, q in atoms) - 1.0) > PROB_TOL:
            return  # float rounding of the normalized probs can break the sum
        if len({v for v, _ in atoms}) >= 3:
            # Every atom has positive probability: a law of two points
            # cannot hold three values.
            with pytest.raises(InvalidSupport):
                FiniteSupport(tuple(atoms))
            return
        assert abs(FiniteSupport(tuple(atoms)).mean() - float(exact)) < 1e-9

    def test_finite_support_inverse_cdf_order(self):
        # u < P(higher atom) maps to the higher atom, in whatever order the
        # atoms are listed.
        u = [0.0, 0.79, 0.8, 0.99]
        assert _losses(FiniteSupport(((0.4, 0.8), (0.0, 0.2))), u).tolist() == [0.4, 0.4, 0.0, 0.0]
        assert _losses(FiniteSupport(((0.0, 0.2), (0.4, 0.8))), u).tolist() == [0.4, 0.4, 0.0, 0.0]


class TestInstance:
    def test_gaps_and_delta_min(self):
        inst = make_instance([PointMass(0.5), PointMass(0.2), Bernoulli(0.9)])
        assert inst.k == 3
        assert np.allclose(inst.gaps, [0.3, 0.0, 0.7])
        assert inst.delta_min == pytest.approx(0.3)

    def test_all_tied_means_has_no_delta_min(self):
        inst = make_instance([PointMass(0.4), Bernoulli(0.4)])
        assert inst.delta_min is None
        assert np.all(inst.gaps == 0.0)

    def test_empty_instance_rejected(self):
        with pytest.raises(OutOfRange):
            make_instance([])

    def test_laws_hold_each_loss_as_two_points(self):
        # Row (b, a, q): the loss is b + (a - b) Bernoulli(q), with a >= b.
        inst = make_instance([
            PointMass(0.3),
            Bernoulli(0.25),
            FiniteSupport(((0.7, 1.0),)),
            FiniteSupport(((0.2, 0.75), (0.6, 0.25))),
            FiniteSupport(((0.6, 0.25), (0.2, 0.75))),
            FiniteSupport(((0.9, 0.0), (0.1, 0.5), (0.4, 0.5))),
        ])
        np.testing.assert_array_equal(inst.laws, [
            [0.3, 0.3, 0.0], [0.0, 1.0, 0.25], [0.7, 0.7, 0.0], [0.2, 0.6, 0.25],
            [0.2, 0.6, 0.25], [0.1, 0.4, 0.5]])
        np.testing.assert_array_equal(inst.means, [0.3, 0.25, 0.7, 0.3, 0.3, 0.25])
        # Three values of positive probability are refused, however listed.
        for atoms in (((0.0, 0.3), (0.5, 0.3), (1.0, 0.4)),
                      ((0.9, 0.1), (0.1, 0.5), (0.4, 0.4), (0.4, 0.0))):
            with pytest.raises(InvalidSupport):
                FiniteSupport(atoms)

    @given(st.lists(unit, min_size=1, max_size=6))
    def test_gaps_nonnegative_and_one_zero(self, means):
        inst = make_instance([PointMass(m) for m in means])
        assert inst.gaps.min() == 0.0
        assert np.all(inst.gaps >= 0.0)


class TestMechanismSpec:
    def test_scales(self):
        eps = 0.5
        assert MechanismSpec(0, NoiseKind.LAPLACE, eps).scale() == 4.0
        assert MechanismSpec(0, NoiseKind.EXPONENTIAL, eps).scale() == 4.0
        assert MechanismSpec(0, NoiseKind.GUMBEL, eps).scale() == 4.0
        assert MechanismSpec(0, NoiseKind.NONE).scale() == 0.0

    def test_validation(self):
        with pytest.raises(OutOfRange):
            MechanismSpec(2, NoiseKind.GUMBEL, 1.0)
        with pytest.raises(OutOfRange):
            MechanismSpec(0, NoiseKind.GUMBEL, 0.0)
        with pytest.raises(ValueError):
            MechanismSpec(0, "cauchy", 1.0)

    @pytest.mark.parametrize("kind", [NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL,
                                      NoiseKind.GUMBEL])
    def test_epsilon_whose_scale_overflows_is_rejected(self, kind):
        # 2/eps is inf below about 1.1e-308; the noise would then be +-inf or nan.
        with pytest.raises(OutOfRange):
            MechanismSpec(0, kind, 1e-320)
        assert MechanismSpec(0, kind, 1e-300).scale() == pytest.approx(2e300)

    @pytest.mark.parametrize("kind", [NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL,
                                      NoiseKind.GUMBEL])
    def test_infinite_epsilon_is_rejected(self, kind):
        # The scale 2/eps would be 0, and every noisy pmf kernel divides by it.
        with pytest.raises(OutOfRange):
            MechanismSpec(0, kind, math.inf)

    def test_string_noise_coerced_to_enum(self):
        spec = MechanismSpec(1, "laplace", 2.0)
        assert spec.noise is NoiseKind.LAPLACE


class TestRecords:
    def test_run_record_checks_lengths(self):
        RunRecord(horizon=3, epoch_actions=((1, 0, 1), (2, 1, 2)),
                  pseudoregret=0.5, seed=7)
        with pytest.raises(OutOfRange):
            RunRecord(horizon=4, epoch_actions=((1, 0, 1), (2, 1, 2)),
                      pseudoregret=0.5, seed=7)
        with pytest.raises(OutOfRange):
            RunRecord(horizon=1, epoch_actions=((1, 0, 1),),
                      pseudoregret=-0.1, seed=7)

    def test_regret_estimate_validation(self):
        RegretEstimate(mean=1.0, stderr=0.1, trials=10)
        with pytest.raises(OutOfRange):
            RegretEstimate(mean=1.0, stderr=0.1, trials=0)
        with pytest.raises(OutOfRange):
            RegretEstimate(mean=1.0, stderr=-0.1, trials=10)


class TestPackage:
    def test_modules_import_without_scipy(self):
        # scipy is a test-only dependency: no module of the package may load it.
        code = (
            "import importlib, pkgutil, sys\n"
            "import dpexperts\n"
            "names = [m.name for m in pkgutil.iter_modules(dpexperts.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module('dpexperts.' + name)\n"
            "scipy = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "print(len(names), sorted(scipy))\n"
        )
        src = os.path.dirname(os.path.dirname(dpexperts.__file__))
        path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path}, check=True, timeout=60)
        count, loaded = out.stdout.split(" ", 1)
        assert int(count) >= 10
        assert loaded.strip() == "[]"
