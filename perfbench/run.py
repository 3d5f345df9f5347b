"""spectrakit benchmark: drive the CLI on seeded workloads and report metrics.

    python3 perfbench/run.py --workload exp-50k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  Each run starts one fresh child process
(child.py) with the workload's BLAS thread setting; the child generates the
input, runs survival, tikhonov and comb through spectrakit.cli.main in a
closed loop for --seconds, checks every output, and with --trace 1 runs
one more traced iteration for the per-layer metrics.  The last line of
stdout is the result as JSON; BENCHMARK.json names the metrics reported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
CHILD_TIMEOUT_S = 170

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


def metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_child(wl, n, seed, seconds, trace):
    """Run one workload in a fresh process; return its result dict or None."""
    nproc = len(os.sched_getaffinity(0))
    threads = str(nproc) if wl.blas_threads == "nproc" else wl.blas_threads
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               SPECTRAKIT_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0")
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK)
    tag = f"{wl.name}-seed{seed}-trace{int(trace)}"
    config = {"workload": wl.name, "n": n, "seed": seed, "seconds": seconds,
              "trace": trace, "nproc": nproc, "workdir": workdir,
              "run_id": uuid.uuid4().hex,
              "spans_path": os.path.join(WORK, f"spans-{tag}.json")}
    config_path = os.path.join(workdir, "config.json")
    result_path = os.path.join(workdir, "result.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    # the child's own stdout goes to stderr: stdout ends with the result;
    # its own session, so that a timeout also ends the processes it started
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), config_path, result_path],
        env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
        if code != 0 or not os.path.isfile(result_path):
            print(f"error: {wl.name} child exited with code {code}", file=sys.stderr)
            return None
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except subprocess.TimeoutExpired:
        print(f"error: {wl.name} child ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:  # timed out, or this process was interrupted
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    result["config"] = config
    with open(os.path.join(WORK, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(result, names):
    """Human-readable lines, then the one-line JSON verdict."""
    metrics = result["metrics"]
    missing = [k for k, unit in names.items()
               if k not in metrics or metrics[k]["unit"] != unit]
    failed = len(result["failures"])
    for message in result["failures"] + [f"metric missing: {k}" for k in missing]:
        print(f"# FAIL {message.strip()}")
    print(f"# env {json.dumps(result['env'], sort_keys=True)}")
    print(f"# samples per command: {json.dumps({c: len(t) for c, t in result['times'].items()})}")
    raw = {c: round(statistics.median(t), 6) for c, t in result["times"].items()}
    print(f"# raw wall-time median per command (s): {json.dumps(raw)}")
    probes = result["probe_times"]
    print(f"# speed probe: {len(probes)} samples, median {statistics.median(probes):.6g} s, "
          f"min {min(probes):.6g} s")
    print(f"# fail_ratio = {failed / result['attempted']:.6g} "
          f"({failed} of {result['attempted']} commands)")
    for name in names:
        if name in metrics:
            print(f"# {name} = {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(json.dumps({
        "correct": failed == 0 and not missing,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {k: metrics[k] for k in names if k in metrics},
    }))


def smoke():
    """Every workload at tiny n, traced: all named metrics present with units."""
    end_to_end, per_layer = metric_names()
    problems = []
    for wl in WORKLOADS.values():
        result = run_child(wl, wl.smoke_n, seed=1, seconds=0, trace=True)
        if result is None:
            problems.append(f"{wl.name}: no result")
            continue
        problems += [f"{wl.name}: {m.strip()}" for m in result["failures"]]
        for name, unit in {**end_to_end, **per_layer}.items():
            got = result["metrics"].get(name)
            if got is None or got["unit"] != unit:
                problems.append(f"{wl.name}: metric {name} [{unit}] not emitted")
        print(f"# smoke {wl.name}: {len(result['metrics'])} metrics, "
              f"{result['attempted']} commands")
    for message in problems:
        print(f"# FAIL {message}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    # SIGTERM unwinds like an exception, so the child is stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the order in which the reference sample is written")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spectrakit", "cli.py")):
        print(f"error: no spectrakit sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    wl = WORKLOADS[args.workload]
    result = run_child(wl, wl.n, args.seed, args.seconds, bool(args.trace))
    if result is None:
        return 1
    end_to_end, per_layer = metric_names()
    report(result, per_layer if args.trace else end_to_end)
    return 0


if __name__ == "__main__":
    sys.exit(main())
