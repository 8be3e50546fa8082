"""The names that the benchmark harness under bench/ binds must resolve.

bench/tracer.py wraps every function in its INSTRUMENTS table, and
bench/run.py reads veechlab.field._QQ and the cache statistics of
covering._base_decomposition; a rename there would crash every benchmark
run while the rest of this suite stays green.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _instruments():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.INSTRUMENTS


@pytest.mark.parametrize("module_name, path", [entry[:2] for entry in _instruments()])
def test_every_instrumented_function_resolves(module_name, path):
    # resolved as Tracer.install does: the last name in its owner's own namespace
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in vars(owner), (module_name, path)
    assert callable(getattr(owner, attr))


def test_environment_and_cache_names_resolve():
    from veechlab import covering, field

    assert field._QQ(1, 2) * 2 == 1
    assert isinstance(field._QQ.__module__, str)
    assert isinstance(covering._base_decomposition.cache_info().misses, int)
