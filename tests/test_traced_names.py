"""The benchmark tracer wraps functions by name; every name must resolve."""

import importlib.util
from pathlib import Path

import rittcalc
import rittcalc.cli  # noqa: F401  (the package does not import it; the benchmark does)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


def test_every_traced_name_resolves_on_rittcalc():
    traced = _traced()
    assert traced
    missing = []
    for mod_name, attr in traced:
        owner = getattr(rittcalc, mod_name, None)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        # the tracer takes a method from the class dict, a function by getattr
        found = vars(owner).get(name) if path else getattr(owner, name, None)
        if not callable(found):
            missing.append(f"{mod_name}.{attr}")
    assert not missing, missing
