import csv

import pytest

from dpexperts import verify
from dpexperts.cli import EXIT_FAIL, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
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
    ])
    def test_usage_errors(self, argv, capsys):
        assert main(argv) == EXIT_USAGE

    def test_fractional_horizon_is_rejected(self, capsys):
        assert main(["run", "--instance", "det:0,1", "--T", "7,7.9"]) == EXIT_USAGE
        assert "--T" in capsys.readouterr().err

    def test_bad_thread_count_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("DPEXPERTS_THREADS", "two")
        assert main(["run", "--instance", "det:0,1", "--T", "7", "--trials", "5"]) == EXIT_USAGE
        assert "DPEXPERTS_THREADS" in capsys.readouterr().err


class TestExact:
    def test_table_output(self, capsys):
        assert main(["exact", "--means", "0,1", "--eps", "2", "--R", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "1.0378828" in out
        assert "epoch" in out and "cumulative" in out

    def test_grid_shortcut(self, capsys):
        assert main(["exact", "--K", "8", "--R", "5"]) == EXIT_OK
        assert "exact pseudoregret" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["exact"],
        ["exact", "--means", "0,1", "--eps", "0"],
        ["exact", "--means", "0,1", "--R", "0"],
        ["exact", "--K", "1"],
    ])
    def test_usage_errors(self, argv, capsys):
        assert main(argv) == EXIT_USAGE

    def test_means_need_not_lie_in_unit_interval(self, capsys):
        # The exact calculator only uses gaps, so any real means are accepted.
        assert main(["exact", "--means", "0,2", "--R", "3"]) == EXIT_OK


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

    def test_unwritable_output_is_runtime_error(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        self._write_sweep(csv_path)
        bad = tmp_path / "no" / "such" / "dir" / "o.svg"
        assert main(["plot", str(csv_path), "--out", str(bad)]) == EXIT_RUNTIME
