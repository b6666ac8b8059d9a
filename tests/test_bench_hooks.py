"""The benchmark's traced pass wraps program functions by module attribute
name, with getattr and no default, and its verify-all capture replaces two
`verify` attributes directly. Instrumenting and capturing here makes the
removal or renaming of any of those names fail this test instead of the
benchmark."""
import importlib

from dpexperts import noise, verify

MODULES = ("analysis", "core", "engine", "harness", "instances", "mechanism", "noise", "verify")


def test_every_traced_name_exists(bench_module):
    run, tracer = bench_module("run"), bench_module("tracer")
    pkg = {name: importlib.import_module(f"dpexperts.{name}") for name in MODULES}
    uniform = noise.RngStream.uniform
    traced = tracer.Tracer()
    try:
        run.instrument(traced, pkg)
        assert noise.RngStream.uniform is not uniform
    finally:
        traced.unwrap()
    assert noise.RngStream.uniform is uniform


def test_capture_replaces_and_restores_the_verify_hooks(bench_module):
    saved = (verify.estimate_pseudoregret, verify.rnm_pmf_oracle)
    capture = bench_module("run").Capture(verify)
    try:
        assert verify.estimate_pseudoregret is not saved[0]
        assert verify.rnm_pmf_oracle is not saved[1]
    finally:
        capture.close()
    assert (verify.estimate_pseudoregret, verify.rnm_pmf_oracle) == saved
