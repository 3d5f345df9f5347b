"""One benchmark run in a fresh process: set up, closed loop, checks, trace.

Started by run.py with the BLAS thread variables already in the
environment, so the thread setting and the peak RSS belong to this run.
Usage: python3 child.py CONFIG_JSON RESULT_JSON
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

import mpmath  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spectrakit  # noqa: E402
from spectrakit import cli  # noqa: E402

from checks import OUTPUTS, check_command  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COMMANDS = ("survival", "tikhonov", "comb")
# commands that make no BLAS call and so run on one thread whatever the
# BLAS setting
SINGLE_THREADED = {"survival"}
SETUP_REPEATS = 5
# the speed probe's time on an uncontended 2-vCPU host of the kind the
# first result was recorded on; command times are reported in this scale
PROBE_REF_S = 0.025
# a fresh interpreter times its own import of spectrakit and its dependencies
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import spectrakit.cli; print(time.perf_counter() - t)")


def import_seconds():
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def _argv(command, inp, out, wl):
    common = ["--input", inp, "--mode", wl.mode]
    if command == "survival":
        return ["survival", *common, "-o", os.path.join(out, "survival.csv"),
                "--plot", os.path.join(out, "survival.svg")]
    prefix = os.path.join(out, "tik" if command == "tikhonov" else "comb")
    extra = ["--auto-h"] if command == "tikhonov" and wl.auto_h else []
    return [command, *common, "-o", prefix, "--plot", *extra]


def generate(wl, n, seed, path):
    """Draw the reference sample, permute it by seed, write it, build the truth."""
    synthetic = spectrakit.synthetic
    if wl.beta < 1.0:
        series = synthetic.gen_mittag_leffler(
            synthetic.MlParams(wl.beta, wl.gamma), n, wl.gen_seed)
    else:
        series = synthetic.gen_mixture(
            synthetic.MixtureSpec(list(wl.weights), list(wl.rates)), n, wl.gen_seed)
    values = np.random.default_rng(seed).permutation(series.values)
    numbers = np.cumsum(values) if wl.mode == "timestamps" else values
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {wl.name} n={n} gen_seed={wl.gen_seed} order_seed={seed}\n")
        fh.write("\n".join(map(repr, numbers.tolist())) + "\n")
    # Psi_true on tau = 1..196: the Mittag-Leffler oracle, or a mixture of
    # its beta = 1 (exact exponential) branch
    taus = np.arange(1.0, 197.0)
    if wl.beta < 1.0:
        truth = synthetic.ml_survival(synthetic.MlParams(wl.beta, wl.gamma), taus).psi
    else:
        truth = sum(w * synthetic.ml_survival(synthetic.MlParams(1.0, 1.0 / r), taus).psi
                    for w, r in zip(wl.weights, wl.rates))
    return taus, truth


def expectations(path, mode, taus, truth):
    """What the outputs must show, from the written file alone."""
    numbers = np.loadtxt(path, comments="#")
    durations = np.diff(numbers) if mode == "timestamps" else numbers
    return {"durations": int(durations.size),
            "tau_points": int(np.ceil(durations.max())),
            "truth_taus": taus, "truth_psi": truth}


def environment(nproc):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        **{k: os.environ.get(k) for k in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SPECTRAKIT_THREADS")},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
    }


def _digests(out, command):
    digests = {}
    for name in OUTPUTS[command]:
        path = os.path.join(out, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


class SpeedProbe:
    """A fixed piece of interpreter and numpy work, timed between commands.

    The host's speed changes within seconds, by up to 2x, as other tenants
    load it.  The probe does the same kind of work as the commands (float
    parsing, a Python loop over a numpy array, a vectorised exp), so its
    time tracks the host's speed at that moment.  It does not touch
    spectrakit: a change to the program cannot change the probe.

    The probe runs on one thread, so it follows the speed of a command
    that runs on one thread only.  A command running threaded BLAS on every
    vCPU does not follow it: on ml-55k, tikhonov's wall time stayed within
    2.1-2.3 s over runs whose median probe time differed by 1.6x.
    """

    def __init__(self):
        values = np.random.default_rng(0).exponential(8.0, 40_000)
        self.text = "\n".join(map(repr, values.tolist()))
        self.grid = np.arange(200.0)
        self.samples = []      # (monotonic mid-time, seconds)

    def __call__(self):
        start = time.perf_counter()
        numbers = np.array([float(s) for s in self.text.split("\n")])
        total = 0.0
        for x in numbers:
            total += x
            if total > 50.0:
                total = 0.0
        np.exp(-np.outer(self.grid, numbers[:2000] / 100.0)).sum()
        end = time.perf_counter()
        self.samples.append(((start + end) / 2, end - start))
        return end - start

    def normalize(self, start, end):
        """Scale factor PROBE_REF_S / (mean probe time around [start, end]).

        The probes averaged are those within the command's own duration
        (at least 0.1 s) before its start or after its end: for a short
        command the probes just before and after it, for a 25 s command
        the host's mean speed over the minute around it.
        """
        pad = max(end - start, 0.1)
        near = [p for t, p in self.samples if start - pad <= t <= end + pad]
        return PROBE_REF_S / statistics.fmean(near)


def run_command(argv, out, command):
    """Time one cli.main call; return (start, end, stdout, error or None)."""
    for name in OUTPUTS[command]:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out, name))
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    gc.collect()  # no collection of earlier garbage lands inside the timing
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        if code != 0:
            error = f"exit code {code}: {stderr.getvalue().strip()}"
    except (Exception, SystemExit):
        error = traceback.format_exc()
    return start, time.perf_counter(), stdout.getvalue(), error


def closed_loop(wl, inp, out, expect, seconds, probe):
    """One client runs the commands one after another for `seconds`.

    The speed probe runs before each command and once after the last, so
    every command has a probe on either side; the probes are not timed as
    part of any command.  Returns the raw wall times, the reported times,
    the failures and the quality values.  A command that runs on one
    thread (every command when BLAS has one thread) reports its wall time
    x PROBE_REF_S / probe time around it; a command running threaded BLAS
    reports its wall time.

    The first round runs survival, tikhonov, comb in that order.  After it,
    among the commands whose last run fits in the time left, the next is
    the one with the smallest product of its sample count and its time
    spent, skipping a command that has already taken more than half of the
    commands' time.  A command's sample count thus goes with one over the
    square root of its duration: a 0.2 s survival gets about three times
    the samples of a 2 s tikhonov, and one 25 s comb does not starve the
    others.  The loop ends when none fits.  The first successful output
    of each command is checked in full; later runs must reproduce it byte
    for byte.
    """
    times = {c: [] for c in COMMANDS}
    spans = {c: [] for c in COMMANDS}
    failures, quality, reference = [], {}, {}

    def run(command):
        probe()
        start, end, stdout, error = run_command(_argv(command, inp, out, wl), out, command)
        times[command].append(end - start)
        spans[command].append((start, end))
        if error:
            failures.append(f"{command}: {error}")
            return
        digests = _digests(out, command)
        if command not in reference:
            problems, values = check_command(command, out, stdout, expect)
            failures.extend(problems)
            quality.update(values)
            reference[command] = None if problems else digests
        elif digests != reference[command]:
            failures.append(f"{command}: outputs differ from the first run")

    deadline = time.perf_counter() + seconds
    for command in COMMANDS:
        run(command)
    while True:
        left = deadline - time.perf_counter()
        fits = [c for c in COMMANDS if times[c][-1] + probe.samples[-1][1] <= left]
        if not fits:
            break
        spent = {c: sum(times[c]) for c in COMMANDS}
        fair = [c for c in fits if spent[c] <= sum(spent.values()) / 2] or fits
        run(min(fair, key=lambda c: len(times[c]) * spent[c]))
    probe()
    one_thread = int(os.environ["OPENBLAS_NUM_THREADS"]) == 1
    reported = {
        c: [(end - start) * (probe.normalize(start, end)
                             if one_thread or c in SINGLE_THREADED else 1.0)
            for start, end in spans[c]]
        for c in COMMANDS}
    return times, reported, [p for _, p in probe.samples], failures, quality


def traced_iteration(wl, cfg, untraced_out, traced):
    """Set up and run each command once under the tracer.

    Returns (spans, wall seconds of the three commands, failures).
    """
    tracer = Tracer(run_id=cfg["run_id"])
    inp = os.path.join(traced, "input.txt")
    wall, failures = 0.0, []
    try:
        with tracer.installed(spectrakit):
            generate(wl, cfg["n"], cfg["seed"], inp)
            for command in COMMANDS:
                start, end, _, error = run_command(_argv(command, inp, traced, wl),
                                                   traced, command)
                wall += end - start
                if error:
                    failures.append(f"traced {command}: {error}")
                elif _digests(traced, command) != _digests(untraced_out, command):
                    failures.append(f"traced {command}: outputs differ from the untraced run")
    except RuntimeError as exc:  # an attribute the tracer could not restore
        failures.append(str(exc))
    return tracer.spans, wall, failures


def main(config_path, result_path):
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    wl = WORKLOADS[cfg["workload"]]
    workdir = cfg["workdir"]
    inp = os.path.join(workdir, "input.txt")
    probe = SpeedProbe()
    probe()  # warm-up
    setup_times, setup_spans = [], []
    for _ in range(SETUP_REPEATS):
        probe()
        start = time.perf_counter()
        seconds = import_seconds()
        t0 = time.perf_counter()
        taus, truth = generate(wl, cfg["n"], cfg["seed"], inp)
        end = time.perf_counter()
        setup_times.append(seconds + end - t0)
        setup_spans.append((start, end))
    probe()
    setup_scaled = [t * probe.normalize(*span) for t, span in zip(setup_times, setup_spans)]
    expect = expectations(inp, wl.mode, taus, truth)

    out = os.path.join(workdir, "untraced")
    os.makedirs(out)
    times, reported, probes, failures, quality = closed_loop(
        wl, inp, out, expect, cfg["seconds"], probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    attempted = sum(len(t) for t in times.values())
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        # median over samples of the reported (mostly probe-normalised)
        # time: the host's speed swings by up to 2x within seconds
        **{f"{c}_s": (statistics.median(reported[c]), "s") for c in COMMANDS},
        "peak_rss_mb": (peak_rss_mb, "MB"),
        **{k: (v, "1") for k, v in quality.items()},
    }

    if cfg["trace"]:
        traced = os.path.join(workdir, "traced")
        os.makedirs(traced)
        spans, traced_wall, traced_failures = traced_iteration(wl, cfg, out, traced)
        attempted += len(COMMANDS)
        failures += traced_failures
        with open(inp, "rb") as a, open(os.path.join(traced, "input.txt"), "rb") as b:
            if a.read() != b.read():
                failures.append("traced set-up wrote a different input")
        untraced_wall = sum(statistics.median(times[c]) for c in COMMANDS)
        metrics.update(layer_metrics(spans))
        metrics["cli.bytes_written"] = (
            sum(os.path.getsize(os.path.join(traced, f))
                for c in COMMANDS for f in OUTPUTS[c]
                if os.path.isfile(os.path.join(traced, f))), "B")
        metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall - 1.0, "ratio")
        with open(cfg["spans_path"], "w", encoding="utf-8") as fh:
            json.dump(spans, fh)

    result = {
        "attempted": attempted,
        "failures": failures,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "times": times,
        "reported_times": reported,
        "probe_times": probes,
        "setup_times": setup_times,
        "setup_scaled": setup_scaled,
        "env": environment(cfg["nproc"]),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
