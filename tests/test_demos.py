"""Each demo script, and README's Library example, runs to completion against
the library in src/ with warnings as errors."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spectrakit.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^```python\n(.*?)^```", readme, re.S | re.M)
    # blank lines ahead keep traceback line numbers those of README
    example = "\n" * readme.count("\n", 0, block.start(1)) + block.group(1)
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--exp", "0.113", "--n", "5000", "--seed", "3",
                 "-o", "durations.txt"]) == 0
    scope = {}
    exec(compile(example, "README.md", "exec"), scope)
    assert scope["h"] > 0
