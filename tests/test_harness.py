import csv
import io
import math

import numpy as np
import pytest

from dpexperts import engine
from dpexperts.core import MechanismSpec, NoiseKind
from dpexperts.harness import (
    CSV_HEADER,
    cells_to_csv,
    estimate_pseudoregret,
    selection_frequency,
    sweep,
)
from dpexperts.instances import (
    bernoulli_instance,
    deterministic_instance,
)

GUMBEL1 = MechanismSpec(0, NoiseKind.GUMBEL, epsilon=1.0)


class TestEstimation:
    def test_deterministic_from_seed(self):
        inst = bernoulli_instance([0.2, 0.6])
        a = estimate_pseudoregret(inst, GUMBEL1, 31, 500, base_seed=9)
        b = estimate_pseudoregret(inst, GUMBEL1, 31, 500, base_seed=9)
        assert a == b
        assert a != estimate_pseudoregret(inst, GUMBEL1, 31, 500, base_seed=10)

    def test_stderr_shrinks_with_trials(self):
        inst = bernoulli_instance([0.2, 0.6])
        small = estimate_pseudoregret(inst, GUMBEL1, 63, 400, 1)
        large = estimate_pseudoregret(inst, GUMBEL1, 63, 40_000, 1)
        assert large.stderr < small.stderr
        assert abs(small.mean - large.mean) < 5 * math.hypot(small.stderr, large.stderr)

    def test_single_trial_has_zero_stderr(self):
        inst = deterministic_instance([0.0, 1.0])
        est = estimate_pseudoregret(inst, GUMBEL1, 7, 1, 0)
        assert est.stderr == 0.0 and est.trials == 1

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            estimate_pseudoregret(deterministic_instance([0.0]), GUMBEL1, 7, 0, 0)


class TestSelectionFrequency:
    def test_is_a_pmf(self):
        inst = bernoulli_instance([0.2, 0.5, 0.8])
        freq = selection_frequency(inst, GUMBEL1, 4, 20_000, 3)
        assert freq.shape == (3,)
        assert freq.sum() == pytest.approx(1.0)
        assert freq.min() >= 0.0

    def test_best_action_dominates_at_late_epochs(self):
        inst = bernoulli_instance([0.1, 0.9])
        freq = selection_frequency(inst, GUMBEL1, 9, 20_000, 3)
        assert freq[0] > 0.95

    def test_validation(self):
        inst = bernoulli_instance([0.2, 0.8])
        with pytest.raises(ValueError):
            selection_frequency(inst, GUMBEL1, 0, 100, 0)
        with pytest.raises(ValueError):
            selection_frequency(inst, GUMBEL1, 1, 0, 0)


class TestSweep:
    def _cells(self, horizons=(15, 31)):
        instances = [("a", bernoulli_instance([0.2, 0.6])),
                     ("b", deterministic_instance([0.0, 0.5]))]
        specs = [MechanismSpec(0, NoiseKind.GUMBEL, epsilon=e) for e in (0.5, 1.0)]
        return sweep(instances, specs, list(horizons), trials=200, base_seed=77)

    def test_grid_order_and_ids(self):
        cells = self._cells()
        assert len(cells) == 8
        assert [c.run_id for c in cells] == list(range(8))
        assert [c.label for c in cells[:4]] == ["a"] * 4

    def test_epoch_pmfs_computed_once_per_length(self, monkeypatch):
        calls = []
        real = engine.epoch_selection_pmf

        def counted(instance, spec, length):
            calls.append((spec.epsilon, length))
            return real(instance, spec, length)

        horizons = [1, 6, 63, 1023]
        monkeypatch.setattr(engine, "epoch_selection_pmf", counted)
        cells = self._cells(horizons=horizons)
        # Two instances x two specs, each with the non-final lengths of T = 1023.
        lengths = [1 << r for r in range(9)]
        assert sorted(calls) == sorted(2 * [(e, n) for e in (0.5, 1.0) for n in lengths])
        alone = [estimate_pseudoregret(c.instance, c.spec, c.horizon, c.trials, c.seed)
                 for c in cells]
        assert [c.estimate for c in cells] == alone
        assert [c.horizon for c in cells[:4]] == horizons


class TestCsv:
    def test_header_and_rows(self):
        cells = sweep([("det", deterministic_instance([0.0, 1.0]))],
                      [GUMBEL1], [7], trials=50, base_seed=5)
        text = cells_to_csv(cells)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 1
        row = rows[0]
        assert row["instance"] == "det" and row["K"] == "2"
        assert row["noise"] == "gumbel" and row["T"] == "7"
        # Floats round-trip exactly through repr.
        assert float(row["regret_mean"]) == cells[0].estimate.mean
