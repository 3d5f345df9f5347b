import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def bench_child():
    """perfbench/child.py, loaded once, with sys.path left as it was."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "path", list(sys.path))
        spec = importlib.util.spec_from_file_location(
            "perfbench_child", ROOT / "perfbench" / "child.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module
