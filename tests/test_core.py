import json
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
    instance_from_json,
    instance_to_json,
    make_instance,
    model_from_dict,
    model_to_dict,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestLossModels:
    def test_point_mass_mean_and_sample(self):
        m = PointMass(0.3)
        assert m.mean() == 0.3
        u = np.array([0.0, 0.5, 0.999])
        assert np.all(m.sample(u) == 0.3)

    def test_point_mass_rejects_out_of_range(self):
        with pytest.raises(InvalidSupport):
            PointMass(1.5)
        with pytest.raises(InvalidSupport):
            PointMass(-0.1)

    @given(unit)
    def test_bernoulli_sample_mean_matches_p(self, p):
        m = Bernoulli(p)
        # Inverse CDF on an equispaced grid reproduces the mean to grid accuracy.
        u = (np.arange(10_000) + 0.5) / 10_000
        assert abs(m.sample(u).mean() - p) < 1e-4

    def test_bernoulli_convention_u_below_p_is_loss_one(self):
        m = Bernoulli(0.25)
        out = m.sample(np.array([0.0, 0.24, 0.25, 0.9]))
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
        try:
            model = FiniteSupport(tuple(atoms))
        except InvalidProbabilities:
            return  # float rounding of the normalized probs can break the sum
        assert abs(model.mean() - float(exact)) < 1e-9

    def test_finite_support_inverse_cdf_order(self):
        m = FiniteSupport(((0.4, 0.8), (0.0, 0.2)))
        out = m.sample(np.array([0.0, 0.79, 0.8, 0.99]))
        assert out.tolist() == [0.4, 0.4, 0.0, 0.0]


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

    @given(st.lists(unit, min_size=1, max_size=6))
    def test_gaps_nonnegative_and_one_zero(self, means):
        inst = make_instance([PointMass(m) for m in means])
        assert inst.gaps.min() == 0.0
        assert np.all(inst.gaps >= 0.0)

    def test_json_round_trip(self):
        inst = make_instance([
            PointMass(0.3),
            Bernoulli(0.7),
            FiniteSupport(((0.4, 0.8), (0.0, 0.2))),
        ])
        again = instance_from_json(instance_to_json(inst))
        assert again.models == inst.models
        assert np.array_equal(again.means, inst.means)

    def test_json_schema_shape(self):
        doc = json.loads(instance_to_json(make_instance([PointMass(0.3)])))
        assert doc == {"models": [{"kind": "point", "value": 0.3}]}

    def test_model_dict_round_trip(self):
        for model in (PointMass(0.1), Bernoulli(0.6),
                      FiniteSupport(((1.0, 0.5), (0.0, 0.5)))):
            assert model_from_dict(model_to_dict(model)) == model
        with pytest.raises(InvalidSupport):
            model_from_dict({"kind": "mystery"})


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
