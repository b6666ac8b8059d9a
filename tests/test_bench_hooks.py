"""The benchmark's traced pass wraps program functions by module attribute
name, with getattr and no default. Instrumenting here makes the removal or
renaming of any wrapped name fail this test instead of `--trace 1`."""
import importlib

from dpexperts import noise

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
