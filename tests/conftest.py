import functools
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@functools.lru_cache(maxsize=None)
def _load_bench_module(name: str):
    """Import bench/<name>.py by path, writing no bytecode next to it."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture
def bench_module():
    """Loader of the benchmark's modules (refs, run, tracer), read only."""
    return _load_bench_module
