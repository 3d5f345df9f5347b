"""The public names: every __all__ entry resolves, and every function the
benchmark's tracer wraps exists."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import spectrakit

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(spectrakit.__path__))


def test_package_all_resolves():
    assert [name for name in spectrakit.__all__ if not hasattr(spectrakit, name)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"spectrakit.{name}")
    names = getattr(module, "__all__", [])
    assert [n for n in names if not hasattr(module, n)] == []


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    missing = [(module, func) for module, func, *_ in tracer.TRACED
               if not callable(getattr(importlib.import_module(f"spectrakit.{module}"),
                                       func, None))]
    assert missing == []
