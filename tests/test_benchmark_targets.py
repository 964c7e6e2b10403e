"""The benchmark's traced run wraps these package functions by name; a
rename or deletion must fail here, not only as ``benchmark/run.py`` exiting 3."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def _owner(path: str):
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


def test_every_traced_function_exists():
    targets = _tracer_targets()
    assert targets
    missing = [f"{owner}.{attr}" for owner, attr, _ in targets if not callable(getattr(_owner(owner), attr, None))]
    assert missing == []
