"""The public names: every __all__ entry resolves, every function the
benchmark's tracer wraps exists and its counters read what the library
returns, and the runtime imports numpy alone."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_functions_exist():
    tracer = _tracer()
    assert tracer.TRACED
    missing = [(module, func) for module, func, *_ in tracer.TRACED
               if not callable(getattr(importlib.import_module(f"spectrakit.{module}"),
                                       func, None))]
    assert missing == []


def test_tracer_counts_a_mu_sweep():
    # the traced bench reads sweep_mu's result as (solutions, best)
    sweep = spectrakit.sweep_mu(spectrakit.assemble_kernel(0.05, 10),
                                np.exp(-0.1 * np.arange(1.0, 11.0)), [1e-3, 1e-1])
    assert _tracer()._count_failed_mu(None, {}, sweep) == 0


def test_runtime_imports_numpy_alone():
    # the runtime dependency is numpy; the test dependencies stay out
    code = ("import sys, spectrakit, spectrakit.cli\n"
            "print(*[m in sys.modules for m in "
            "('numpy', 'scipy', 'mpmath', 'hypothesis', 'pytest')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False", "False", "False", "False"]
