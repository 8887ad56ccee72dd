"""The benchmark's tracer wraps package functions by name; each must exist.

`bench/tracer.py` is loaded by path and left as it is, so deleting or
renaming a function it spans fails here, not only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package(name: str):
    return importlib.import_module(f"hankelideals.{name}")


def test_every_traced_name_resolves_in_the_package():
    tracer = _load_tracer()
    for module, attr in tracer.SPANNED + tracer.COUNTED:
        assert callable(getattr(_package(module), attr, None)), f"{module}.{attr}"
    for module, cls_name, attr in tracer.COUNTED_METHODS:
        assert attr in vars(getattr(_package(module), cls_name)), f"{module}.{cls_name}.{attr}"
    groebner = _package("groebner")
    assert callable(groebner.pair_meter_total)
    assert callable(groebner.basis_cache_clear)
