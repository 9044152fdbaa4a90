"""The benchmark's tracer must find every function it wraps.

bench/tracing.py looks each WRAPPED entry up by name, so renaming or
deleting one of those functions breaks the traced benchmark run; this
test catches that in tier-1.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

MODULES = ("cli", "polytope", "polarize", "weights", "latticegen",
           "laurent", "ypoly", "series", "linalg", "svgfig")


@pytest.fixture(scope="module")
def tracing():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lookup(module: str, qualname: str):
    owner = importlib.import_module(f"polarcount.{module}")
    if "." in qualname:
        cls_name, qualname = qualname.split(".")
        return vars(getattr(owner, cls_name))[qualname]
    return getattr(owner, qualname)


def test_every_wrapped_name_binds_and_unbinds(tracing):
    for name in MODULES:
        importlib.import_module(f"polarcount.{name}")
    originals = {(m, q): lookup(m, q) for m, q, _, _ in tracing.WRAPPED}
    undo = tracing.install(tracing.Tracer())
    try:
        for (module, qualname), original in originals.items():
            bound = lookup(module, qualname)
            bound = getattr(bound, "__func__", bound)
            raw = getattr(original, "__func__", original)
            assert bound is not raw, (module, qualname)
            assert bound.__wrapped__ is raw, (module, qualname)
    finally:
        tracing.uninstall(undo)
    for (module, qualname), original in originals.items():
        assert lookup(module, qualname) is original, (module, qualname)
