import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpexperts.core import OutOfRange
from dpexperts.instances import (
    BadK,
    InstanceSpecError,
    bernoulli_instance,
    deterministic_instance,
    lower_bound_family,
    paper_example_two_actions,
    parse_instance_spec,
    uniform_grid_instance,
    worst_nonprivate_instance,
)


class TestConstructors:
    def test_paper_example(self):
        inst = paper_example_two_actions()
        # The point mass 0.3, and the loss 0.4 w.p. 0.8, else 0.
        np.testing.assert_array_equal(inst.laws, [[0.3, 0.3, 0.0], [0.0, 0.4, 0.8]])
        assert np.allclose(inst.means, [0.3, 0.32])
        assert inst.delta_min == pytest.approx(0.02)

    def test_lower_bound_family_structure(self):
        inst = lower_bound_family(8, 0.1, 3)
        means = inst.means
        assert means[2] == 0.0
        assert means[1] == 0.1 and means[3] == 0.1
        assert np.all(means[[0, 4, 5, 6, 7]] == 1.0)
        assert inst.delta_min == pytest.approx(0.1)

    def test_lower_bound_family_wraps_cyclically(self):
        means = lower_bound_family(6, 0.2, 1).means
        assert means[0] == 0.0
        assert means[5] == 0.2 and means[1] == 0.2

    def test_lower_bound_family_validation(self):
        with pytest.raises(BadK):
            lower_bound_family(5, 0.1, 1)
        with pytest.raises(OutOfRange):
            lower_bound_family(8, 1.5, 1)
        with pytest.raises(OutOfRange):
            lower_bound_family(8, 0.1, 9)

    def test_worst_nonprivate(self):
        inst = worst_nonprivate_instance(4, 0.25)
        assert np.allclose(inst.means, [0.0, 0.25, 0.25, 0.25])
        with pytest.raises(BadK):
            worst_nonprivate_instance(1, 0.25)
        assert np.allclose(worst_nonprivate_instance(3, 1.0).means, [0.0, 1.0, 1.0])
        for delta in (0.0, -0.1, 1.5, float("nan")):
            with pytest.raises(OutOfRange):
                worst_nonprivate_instance(8, delta)

    @given(st.integers(min_value=2, max_value=200))
    def test_uniform_grid_spans_unit_interval(self, k):
        inst = uniform_grid_instance(k)
        assert inst.k == k
        assert inst.means[0] == 0.0 and inst.means[-1] == 1.0
        assert inst.delta_min == pytest.approx(1.0 / (k - 1))

    def test_bernoulli_instance_models(self):
        inst = bernoulli_instance([0.2, 0.7])
        np.testing.assert_array_equal(inst.laws, [[0.0, 1.0, 0.2], [0.0, 1.0, 0.7]])
        with pytest.raises(OutOfRange):
            bernoulli_instance([])


class TestSpecGrammar:
    def test_det_and_bern(self):
        assert np.allclose(parse_instance_spec("det:0,0.5,1").means, [0.0, 0.5, 1.0])
        inst = parse_instance_spec("bern:0.1,0.9")
        np.testing.assert_array_equal(inst.laws, [[0.0, 1.0, 0.1], [0.0, 1.0, 0.9]])

    def test_keyword_forms(self):
        assert parse_instance_spec("grid:K=64").k == 64
        inst = parse_instance_spec("lower-bound:K=16,delta=0.1,l=3")
        assert inst.k == 16 and inst.means[2] == 0.0
        assert parse_instance_spec("worst-np:K=8,delta=0.25").delta_min == pytest.approx(0.25)

    def test_paper_example_form(self):
        assert np.allclose(parse_instance_spec("paper-example").means, [0.3, 0.32])

    @pytest.mark.parametrize("bad", [
        "det:", "det:a,b", "grid:64", "grid:K=1", "mystery:1,2",
        "lower-bound:K=16", "bern:0.5,2.0", "",
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises((InstanceSpecError, OutOfRange, BadK, ValueError)):
            parse_instance_spec(bad)

    @pytest.mark.parametrize("bad, message", [
        ("lower-bound:K=16,delta=0.1,l=3,x=2", "repeated key 'x'"),
        ("grid:K=8,k=9", "repeated key 'k'"),
        ("grid:K=8,K=9", "repeated key 'K'"),
        ("worst-np:K=8,delta=0.1,delta=0.2", "repeated key 'delta'"),
        ("worst-np:K=8,delta=0", "delta_min must lie in (0, 1]"),
    ])
    def test_keyword_errors_name_the_fault(self, bad, message):
        with pytest.raises(InstanceSpecError) as info:
            parse_instance_spec(bad)
        assert message in str(info.value)

    @pytest.mark.parametrize("bad", ["det:0,,1", "det:,0.5", "bern:0.2,0.5,", "bern:"])
    def test_empty_list_entries_raise(self, bad):
        # An empty entry is a typo, not a shorter list: it must not change K.
        with pytest.raises(InstanceSpecError) as info:
            parse_instance_spec(bad)
        assert repr(bad) in str(info.value)

    def test_round_trip_with_constructors(self):
        assert np.array_equal(parse_instance_spec("grid:K=8").means,
                              uniform_grid_instance(8).means)
        assert np.array_equal(parse_instance_spec("det:0.3").means,
                              deterministic_instance([0.3]).means)
