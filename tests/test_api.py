"""Public names and benchmark hooks: every ``__all__`` entry of every
previewsafe module resolves, and every function that ``bench/tracing.py``
wraps exists in the library."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import previewsafe

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(previewsafe.__path__, "previewsafe.")
)
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracing.TRACED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"bench/tracing.py traces functions that do not exist: {missing}"
