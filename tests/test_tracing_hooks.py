"""The traced benchmark run wraps module attributes by name; every one of
them must exist, or the traced run fails at install time."""

import importlib
import importlib.util
from pathlib import Path


def _hooks():
    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


def test_every_hook_resolves():
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in _hooks()
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"tracing hooks that do not resolve: {missing}"
