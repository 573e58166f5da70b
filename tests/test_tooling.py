"""The benchmark tracer's patch targets still exist in the package."""

import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_tracing():
    path = ROOT / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_targets_resolve():
    # bench/run.py --trace 1 wraps each (module, attribute) by name; a
    # rename in src/ would otherwise only surface when the tracer runs
    targets = load_tracing().TARGETS
    assert targets
    for module, attr, _layer, _amount in targets:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module}.{attr} does not resolve"
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attr} is not callable"
