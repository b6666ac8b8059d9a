import csv
import math
import re
from xml.etree import ElementTree

import pytest

from dpexperts import verify
from dpexperts.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from dpexperts.harness import CSV_HEADER


class TestRun:
    def test_sweep_to_csv_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "run", "--instance", "det:0,1", "--instance", "bern:0.2,0.6",
            "--noise", "gumbel", "--eps", "0.5,1", "--T", "7,15",
            "--trials", "50", "--seed", "3", "--out", str(out),
        ])
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert set(r["noise"] for r in rows) == {"gumbel"}
        assert out.read_text().startswith(CSV_HEADER)

    def test_stdout_output(self, capsys):
        assert main(["run", "--instance", "det:0,1", "--noise", "none",
                     "--T", "3", "--trials", "20"]) == EXIT_OK
        captured = capsys.readouterr().out
        assert captured.startswith(CSV_HEADER)

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "missing" / "x"
        assert main(["run", "--instance", "det:0,1", "--T", "7", "--trials", "5",
                     "--out", str(bad)]) == EXIT_USAGE
        assert f"cannot write {bad}: " in capsys.readouterr().err

    def test_same_seed_same_csv(self, tmp_path):
        args = ["run", "--instance", "det:0,0.5", "--T", "15",
                "--trials", "100", "--seed", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize("argv", [
        ["run", "--instance", "det:0,1", "--trials", "0"],
        ["run", "--instance", "nope:1", "--T", "7"],
        ["run", "--instance", "det:0,1", "--T", "0"],
        ["run", "--instance", "det:0,1", "--eps", "x"],
        ["run"],
        ["frobnicate"],
        ["run", "--instance", "lower-bound:K=16,delta=0.1,l=3,x=2"],
        ["run", "--instance", "grid:K=8,K=9"],
        ["run", "--instance", "worst-np:K=8,delta=0"],
        ["run", "--instance", "bern:0.2,0.5,", "--T", "7"],
        ["run", "--instance", "det:0,1", "--eps", "1,,2"],
        ["run", "--instance", "det:0,1", "--eps", ""],
        ["run", "--instance", "det:0,1", "--T", "7,"],
    ])
    def test_usage_errors(self, argv, capsys):
        assert main(argv) == EXIT_USAGE

    def test_fractional_horizon_is_rejected(self, capsys):
        assert main(["run", "--instance", "det:0,1", "--T", "7,7.9"]) == EXIT_USAGE
        assert "--T" in capsys.readouterr().err

    def test_large_horizon_round_trips_exactly(self, tmp_path):
        # 2^60 - 1 is not a float; read through one it would become 2^60.
        out = tmp_path / "big.csv"
        horizon = (1 << 60) - 1
        assert main(["run", "--instance", "det:0,1", "--T", str(horizon), "--trials", "10",
                     "--out", str(out)]) == EXIT_OK
        with open(out, newline="") as fh:
            assert [row["T"] for row in csv.DictReader(fh)] == [str(horizon)]

    def test_horizon_of_2_to_the_1024_is_usage_error(self, capsys):
        argv = ["run", "--instance", "det:0,1", "--T", f"7,{1 << 1024}", "--trials", "5"]
        assert main(argv) == EXIT_USAGE
        assert "--T" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["0", "-1", "nan"])
    def test_bad_epsilon_is_usage_error(self, eps, capsys):
        argv = ["run", "--instance", "det:0,1", "--T", "7", "--trials", "5", "--eps", eps]
        assert main(argv) == EXIT_USAGE
        assert "--eps" in capsys.readouterr().err

    def test_epsilon_whose_scale_overflows_is_usage_error(self, capsys):
        argv = ["run", "--instance", "det:0,1", "--T", "7", "--trials", "5", "--eps", "1e-320"]
        assert main(argv) == EXIT_USAGE
        assert "--eps" in capsys.readouterr().err


BERN_64 = "bern:" + ",".join(f"{0.5 + 0.001 * j:.3f}" for j in range(64))


class TestExact:
    def test_table_output(self, capsys):
        assert main(["exact", "--instance", "det:0,1", "--eps", "2", "--T", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "1.0378828" in out
        assert "epoch" in out and "cumulative" in out

    def test_noise_option(self, capsys):
        assert main(["exact", "--instance", "det:0,1", "--eps", "2", "--T", "3",
                     "--noise", "exponential"]) == EXIT_OK
        out = capsys.readouterr().out
        # Epoch 2 selects the worse action with probability e^-1 / 2.
        assert f"{0.5 + math.exp(-1.0):.10f}" in out
        assert "noise=exponential" in out

    def test_epoch_count_over_cap_is_usage_error(self, capsys):
        # From T = 2^1024 on, T and epoch 1025's length overflow a float.
        assert main(["exact", "--instance", "det:0,1", "--T", str(1 << 1024)]) == EXIT_USAGE
        assert "--T" in capsys.readouterr().err
        assert main(["exact", "--instance", "det:0,1", "--T", str((1 << 1024) - 1)]) == EXIT_OK

    def test_grid_shortcut(self, capsys):
        assert main(["exact", "--instance", "grid:K=8", "--T", "31"]) == EXIT_OK
        assert "exact pseudoregret" in capsys.readouterr().out

    def test_stochastic_instance_with_resampling(self, capsys):
        # P(action 1) after epoch 1 is P(bit 1 = 0, bit 0 = 1) + ties / 2.
        assert main(["exact", "--instance", "bern:0.4,0.5", "--B", "1", "--noise", "none",
                     "--T", "3"]) == EXIT_OK
        expected = 0.5 * 0.1 + 2 * 0.1 * (0.5 * 0.4 + 0.5 * (0.4 * 0.5 + 0.6 * 0.5))
        assert f"{expected:.10f}" in capsys.readouterr().out

    def test_lone_near_action_reaches_the_default_horizon(self, capsys):
        # From epoch 32 on only action 0 survives pruning, and its pmf is one-hot.
        assert main(["exact", "--instance", "bern:0.2,0.5", "--B", "1"]) == EXIT_OK
        assert "5.0209271670" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["exact", "run"])
    def test_epochs_past_2_to_the_63(self, command, capsys):
        argv = [command, "--instance", "bern:0.2,0.5", "--B", "1", "--T", str((1 << 70) - 1)]
        assert main(argv + (["--trials", "20"] if command == "run" else [])) == EXIT_OK
        out = capsys.readouterr().out
        assert ("5.0209271670" if command == "exact" else str((1 << 70) - 1)) in out

    @pytest.mark.parametrize("command", ["exact", "run"])
    @pytest.mark.parametrize("setting", [["--B", "1"], ["--B", "0", "--noise", "none"]])
    def test_tied_means_past_2_to_the_63(self, command, setting, capsys):
        # Both tied actions survive pruning and share one law, so by
        # exchangeability each is picked w.p. 1/2 and no binomial pmf is built.
        argv = [command, "--instance", "bern:0.3,0.3", *setting, "--T", str((1 << 65) - 1)]
        assert main(argv + (["--trials", "20"] if command == "run" else [])) == EXIT_OK

    def test_sampled_epoch_past_2_to_the_63_is_usage_error(self, capsys):
        # Close means: from epoch 32 on the epochs are sampled, and epoch 64's
        # 2^63 steps overflow the sampler's int64 counts. The message names
        # the instance that failed, not the one before it.
        argv = ["run", "--instance", "bern:0.2,0.5", "--instance", "bern:0.3,0.3000000001",
                "--B", "1", "--T", str((1 << 65) - 1), "--trials", "20"]
        assert main(argv) == EXIT_USAGE
        assert "bern:0.3,0.3000000001: epoch 64 " in capsys.readouterr().err

    def test_epoch_without_a_pmf_is_usage_error(self, capsys):
        argv = ["exact", "--instance", BERN_64, "--B", "1", "--noise", "laplace",
                "--eps", "0.001", "--T", "7"]
        assert main(argv) == EXIT_USAGE
        assert "epoch 1 " in capsys.readouterr().err

    @pytest.mark.parametrize("noise", ["laplace", "exponential", "gumbel"])
    def test_steps_many_noise_scales_wide(self, noise, capsys):
        # At eps = 1e300 a unit lattice step is 5e299 noise scales: `exact`
        # refuses the epoch and names it, and `run` samples its scores.
        argv = ["--instance", "bern:0.2,0.5", "--B", "1", "--noise", noise,
                "--eps", "1e300", "--T", "7"]
        assert main(["exact", *argv]) == EXIT_USAGE
        assert "epoch 1 " in capsys.readouterr().err
        assert main(["run", *argv, "--trials", "20"]) == EXIT_OK
        assert capsys.readouterr().out.startswith(CSV_HEADER)

    @pytest.mark.parametrize("argv", [
        ["exact"],
        ["exact", "--instance", "det:0,1", "--eps", "0"],
        ["exact", "--instance", "det:0,1", "--T", "0"],
        ["exact", "--instance", "grid:K=1"],
        ["exact", "--instance", "det:0,,1", "--T", "3"],
    ])
    def test_usage_errors(self, argv, capsys):
        assert main(argv) == EXIT_USAGE

    def test_non_finite_means_are_rejected(self, capsys):
        assert main(["exact", "--instance", "det:0,nan", "--T", "7"]) == EXIT_USAGE
        assert "det:0,nan" in capsys.readouterr().err

    def test_nan_epsilon_is_rejected(self, capsys):
        assert main(["exact", "--instance", "det:0,1", "--eps", "nan", "--T", "7"]) == EXIT_USAGE
        assert "--eps" in capsys.readouterr().err

    def test_infinite_epsilon_is_rejected(self, capsys):
        assert main(["exact", "--instance", "det:0,1", "--eps", "inf", "--T", "7"]) == EXIT_USAGE
        assert "--eps" in capsys.readouterr().err

    def test_means_outside_unit_interval_are_rejected(self, capsys):
        # Losses lie in [0, 1], and exact parses instances as run does.
        assert main(["exact", "--instance", "det:0,2", "--T", "7"]) == EXIT_USAGE


class TestVerify:
    def test_passing_suite(self, capsys):
        assert main(["verify", "softmax-series"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        # cli.SUITES is verify.SUITES, so the injected suite is visible to the CLI.
        monkeypatch.setitem(verify.SUITES, "always-fails",
                            lambda: verify.VerifyResult("always-fails", False, "injected"))
        assert main(["verify", "always-fails"]) == EXIT_FAIL
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_suite(self, capsys):
        assert main(["verify", "no-such-suite"]) == EXIT_USAGE


class TestPlot:
    def _write_sweep(self, path):
        main(["run", "--instance", "det:0,1", "--T", "3,7,15",
              "--trials", "50", "--out", str(path)])

    def test_svg_output(self, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        self._write_sweep(csv_path)
        svg_path = tmp_path / "plot.svg"
        assert main(["plot", str(csv_path), "--x", "T", "--out", str(svg_path)]) == EXIT_OK
        doc = svg_path.read_text()
        assert doc.startswith("<?xml")
        assert "<svg" in doc and "polyline" in doc
        assert 'class="legend-entry"' in doc

    def test_k_axis_joins_instances_into_one_series(self, tmp_path):
        csv_path, svg_path = tmp_path / "sweep.csv", tmp_path / "plot.svg"
        assert main(["run", "--instance", "grid:K=4", "--instance", "grid:K=8",
                     "--instance", "grid:K=16", "--T", "15", "--trials", "50",
                     "--out", str(csv_path)]) == EXIT_OK
        assert main(["plot", str(csv_path), "--x", "K", "--out", str(svg_path)]) == EXIT_OK
        polylines = re.findall(r'<polyline [^>]*points="([^"]*)"', svg_path.read_text())
        assert [len(points.split()) for points in polylines] == [3]

    def test_series_names_are_escaped(self, tmp_path):
        csv_path, svg_path = tmp_path / "sweep.csv", tmp_path / "plot.svg"
        self._write_sweep(csv_path)
        csv_path.write_text(csv_path.read_text().replace("det:0,1", "a&b<c"))
        assert main(["plot", str(csv_path), "--x", "T", "--out", str(svg_path)]) == EXIT_OK
        legend = ElementTree.parse(svg_path).getroot().iter("{http://www.w3.org/2000/svg}text")
        assert any(text.text.startswith("instance=a&b<c ") for text in legend)

    @pytest.mark.parametrize("column,value", [("regret_mean", "nan"), ("regret_mean", "inf"),
                                              ("T", "nan"), ("T", "inf")])
    def test_non_finite_value_is_malformed_csv(self, column, value, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        self._write_sweep(csv_path)
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[1][column] = value
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        assert main(["plot", str(csv_path), "--out", str(tmp_path / "o.svg")]) == EXIT_USAGE
        assert (f"malformed CSV {csv_path}: {column}: {value} is not a finite number"
                in capsys.readouterr().err)

    def test_short_row_is_malformed_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        csv_path.write_text(CSV_HEADER + "\n0,det:0,1,2,0,gumbel,1.0,3\n")
        assert main(["plot", str(csv_path), "--out", str(tmp_path / "o.svg")]) == EXIT_USAGE
        assert f"malformed CSV {csv_path}: regret_mean: bad number None" in capsys.readouterr().err

    def test_missing_csv(self, tmp_path, capsys):
        assert main(["plot", str(tmp_path / "none.csv"), "--out",
                     str(tmp_path / "o.svg")]) == EXIT_USAGE

    def test_empty_csv(self, tmp_path, capsys):
        p = tmp_path / "empty.csv"
        p.write_text(CSV_HEADER + "\n")
        assert main(["plot", str(p), "--out", str(tmp_path / "o.svg")]) == EXIT_USAGE

    def test_bad_axis(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        self._write_sweep(csv_path)
        assert main(["plot", str(csv_path), "--x", "zeta",
                     "--out", str(tmp_path / "o.svg")]) == EXIT_USAGE

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        self._write_sweep(csv_path)
        bad = tmp_path / "missing" / "x"
        assert main(["plot", str(csv_path), "--out", str(bad)]) == EXIT_USAGE
        assert f"cannot write {bad}: " in capsys.readouterr().err
