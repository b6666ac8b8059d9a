"""CLI outputs that refactors promise to keep, compared byte for byte.

Each case runs `cli.main` in-process and compares its stdout with a file
under tests/golden/. To record files from a checkout, run
`PYTHONPATH=src python tests/test_golden.py NAME...`, which rewrites only
the named cases (all of them when none is named); record them only from a
commit whose outputs are meant to be kept.
"""
import contextlib
import io
import sys
from pathlib import Path

import pytest

from dpexperts import mechanism
from dpexperts.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"

SWEEP_INSTANCES = ["paper-example", "bern:0,0.5", "bern:0.2,0.5,0.8", "grid:K=64"]

# The graded Bernoulli instance of the bench's stochastic sweep, and the
# same family at K = 1024.
GRADED_64 = "bern:" + ",".join(f"{0.2 + 0.6 * j / 63:.6f}" for j in range(64))
GRADED_1024 = "bern:" + ",".join(f"{0.2 + 0.6 * j / 1023:.6f}" for j in range(1024))

CASES = {
    "seed-gate.csv": ["run", "--instance", "grid:K=300", "--noise", "laplace", "--B", "1",
                      "--T", "1,6,63,1023,1073741823", "--trials", "300", "--seed", "17",
                      "--eps", "0.5,2"],
    **{f"sweep-{noise}-B{b}.csv": ["run", *(a for spec in SWEEP_INSTANCES
                                            for a in ("--instance", spec)),
                                   "--noise", noise, "--B", str(b), "--eps", "0.25,1,4",
                                   "--T", "1023,1048575", "--trials", "2000", "--seed", "3"]
       for noise in ("gumbel", "laplace", "exponential", "none") for b in (0, 1)},
    # The README's three `exact` lines.
    "exact-det.txt": ["exact", "--instance", "det:0,1", "--eps", "2", "--T", "1023"],
    "exact-grid-4096.txt": ["exact", "--instance", "grid:K=4096", "--noise", "laplace",
                            "--eps", "1", "--T", "1073741823"],
    # The point-mass kernel under Exponential noise.
    "exact-grid-256-exponential.txt": ["exact", "--instance", "grid:K=256", "--noise",
                                       "exponential", "--eps", "1", "--T", "1073741823"],
    "exact-bern.txt": ["exact", "--instance", "bern:0.2,0.5,0.8", "--B", "1",
                       "--noise", "exponential", "--T", "1048575"],
    # Lattice steps wider than a noise scale: h = 2 at eps = 4, h = 4 with a
    # point's kink at eps = 20, and h = 1e4 at eps = 2e4.
    **{f"exact-bern-{noise}-eps4.txt": ["exact", "--instance", "bern:0.2,0.5,0.8", "--B", "1",
                                        "--noise", noise, "--eps", "4", "--T", "1048575"]
       for noise in ("gumbel", "laplace", "exponential")},
    "exact-paper-laplace-eps20.txt": ["exact", "--instance", "paper-example", "--noise",
                                      "laplace", "--eps", "20", "--T", "1023"],
    "exact-bern-gumbel-eps2e4.txt": ["exact", "--instance", "bern:0.2,0.5", "--B", "1",
                                     "--T", "7", "--eps", "2e4", "--noise", "gumbel"],
    # 1024 distinct lattice laws: the kernel's arrays peak at epochs 10 and
    # 11, at about 3e5 values.
    "exact-graded-1024-laplace.txt": ["exact", "--instance", GRADED_1024, "--B", "1",
                                      "--noise", "laplace", "--eps", "1", "--T", "1048575"],
    # Two point masses and a Bernoulli(0.05) at B = 0: the floor prune of the
    # lattice kernel leaves only the two points.
    **{f"exact-bern-two-points-{noise}.txt": ["exact", "--instance", "bern:0,0,0.05", "--B", "0",
                                              "--noise", noise, "--eps", "1", "--T", "16383"]
       for noise in ("laplace", "exponential", "gumbel")},
    # The noiseless tie kernel: 64 distinct laws, two points among 254 laws,
    # and 7 copies of one law.
    **{f"exact-none-{name}.txt": ["exact", "--instance", spec, "--B", "1", "--noise", "none",
                                  "--T", "1048575"]
       for name, spec in (("graded-64", GRADED_64), ("grid-256", "grid:K=256"),
                          ("worst-np-8", "worst-np:K=8,delta=0.25"))},
    # Suites whose verdicts and detail lines are exact or closed form.
    **{f"verify-{suite}.txt": ["verify", suite]
       for suite in ("binomial", "softmax-series", "softmax-derivative",
                     "privacy-gumbel", "privacy-laplace", "privacy-exponential")},
    # Every suite at its shipped seed, Monte Carlo details included.
    "verify-all.txt": ["verify", "all"],
}


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == EXIT_OK
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name):
    assert _stdout(CASES[name]).encode() == (GOLDEN / name).read_bytes()


def test_kernel_integrates_steps_at_most_one_noise_scale_wide(monkeypatch):
    # `lattice_selection_pmf` refines wider steps before the kernel sees
    # them: the eps = 4 sweeps have unit steps 2 noise scales wide.
    steps = []
    kernel = mechanism._lattice_hazard_pmf

    def recorded(g, pmfs, sizes, h, copies, spec):
        steps.append(h)
        return kernel(g, pmfs, sizes, h, copies, spec)

    monkeypatch.setattr(mechanism, "_lattice_hazard_pmf", recorded)
    for name in sorted(CASES):
        if name.startswith("sweep-"):
            _stdout(CASES[name])
    assert steps and max(steps) <= 1.0


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    # A name that is not a case raises KeyError before any file is written.
    chosen = {name: CASES[name] for name in sys.argv[1:] or CASES}
    for name, argv in chosen.items():
        (GOLDEN / name).write_bytes(_stdout(argv).encode())
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
