"""Every CLI output on the benchmark's three workloads matches the committed
manifest to the byte.

For each workload at order seeds 1 and 2, perfbench's generator writes the
input, and survival, tikhonov and comb each run with --plot, as the
benchmark runs them.  reference_outputs.json holds the sha256 of the input,
of every output file, of stdout (the run directory replaced by a fixed
token) and of stderr, and the exit code of each run.

Its environment key names what the bytes may depend on.  On a host whose
key differs, the test skips and names the differing fields.  On a host
whose key matches, any other digest fails the test, which names each
differing output and writes a fresh manifest under its tmp_path: a change
that means to move outputs commits that file and lists what moved.
"""

import contextlib
import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from spectrakit import cli

MANIFEST = Path(__file__).with_name("reference_outputs.json")
SEEDS = (1, 2)
TOKEN = "<run>"


def environment():
    config = np.show_config(mode="dicts")
    libs = config["Build Dependencies"]
    return {
        "machine": platform.machine(),
        "numpy": np.__version__,
        **{lib: f"{libs[lib].get('name')} {libs[lib].get('version')}"
           for lib in ("blas", "lapack")},
        "longdouble_mantissa_bits": int(np.finfo(np.longdouble).nmant),
        "cpu_dispatch": config["SIMD Extensions"]["found"],
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all(child, root: Path) -> dict:
    """Digests of every run, keyed workload/seed/command/output."""
    digests = {}
    for name, wl in child.WORKLOADS.items():
        for seed in SEEDS:
            out = root / f"{name}-{seed}"
            out.mkdir(parents=True)
            inp = out / "input.txt"
            child.generate(wl, wl.n, seed, str(inp))
            digests[f"{name}/{seed}/input.txt"] = _sha(inp.read_bytes())
            for command in child.COMMANDS:
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(child._argv(command, str(inp), str(out), wl))
                key = f"{name}/{seed}/{command}"
                digests[f"{key}/exit"] = str(code)
                for stream, text in (("stdout", stdout), ("stderr", stderr)):
                    digests[f"{key}/{stream}"] = _sha(
                        text.getvalue().replace(str(root), TOKEN).encode())
                digests.update({f"{key}/{file}": digest for file, digest
                                in child._digests(str(out), command).items()})
    return digests


def test_outputs_match_the_manifest(tmp_path, bench_child):
    here = environment()
    want = (json.loads(MANIFEST.read_text(encoding="utf-8")) if MANIFEST.exists()
            else {"environment": here, "digests": {}})
    differ = [f"{k} (manifest {want['environment'].get(k)!r}, here {here.get(k)!r})"
              for k in sorted(here.keys() | want["environment"].keys())
              if here.get(k) != want["environment"].get(k)]
    if differ:
        pytest.skip("manifest taken on another environment: " + "; ".join(differ))
    got = run_all(bench_child, tmp_path / "runs")
    moved = sorted(k for k in got.keys() | want["digests"].keys()
                   if got.get(k) != want["digests"].get(k))
    if moved:
        fresh = tmp_path / MANIFEST.name
        fresh.write_text(json.dumps({"environment": here, "digests": got},
                                    indent=1, sort_keys=True) + "\n", encoding="utf-8")
        pytest.fail(f"{len(moved)} outputs differ from {MANIFEST.name}: "
                    f"{', '.join(moved)}; fresh manifest: {fresh}")
