"""CLI outputs that refactors promise to keep, compared byte for byte.

Each case runs `cli.main` in-process and compares its stdout with a file
under tests/golden/. To record the files from a checkout, run
`PYTHONPATH=src python tests/test_golden.py`; record them only from a
commit whose outputs are meant to be kept.
"""
import contextlib
import io
import sys
from pathlib import Path

import pytest

from dpexperts.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"

SWEEP_INSTANCES = ["paper-example", "bern:0,0.5", "bern:0.2,0.5,0.8", "grid:K=64"]

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
    "exact-bern.txt": ["exact", "--instance", "bern:0.2,0.5,0.8", "--B", "1",
                       "--noise", "exponential", "--T", "1048575"],
}


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == EXIT_OK
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name):
    assert _stdout(CASES[name]).encode() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / name).write_bytes(_stdout(argv).encode())
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
