"""The benchmark's tracer patches catbreed functions by name; a rename in
the package must fail here, not in a late traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import catbreed.cli  # noqa: F401  (loaded, so its bindings are patched too)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def catbreed_bindings() -> dict:
    """Every attribute of every loaded catbreed module, by (module, name)."""
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "catbreed" or name.startswith("catbreed.")
            for attr, value in vars(module).items()}


def test_tracer_resolves_every_traced_function_and_restores_it():
    tracing = load_tracing()
    before = catbreed_bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for layer, names in tracing.TRACED.items():
            home = importlib.import_module(f"catbreed.{layer}")
            for name in names:
                traced = getattr(home, name)
                assert traced is not before[(f"catbreed.{layer}", name)], name
                assert traced.__wrapped__ is before[(f"catbreed.{layer}", name)]
    finally:
        tracer.uninstall()
    after = catbreed_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
