"""Spans around spectrakit's public functions, recorded from outside.

The tracer replaces module attributes with timing wrappers: the defining
module's attribute and every name re-bound to the same function object in
spectrakit.cli, spectrakit.tikhonov and spectrakit.delta_comb (their
``from .x import f`` imports).  Spans stay in memory; the caller writes
them out once.  ``installed()`` puts every original back on exit.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time


def _count_lines(args, kwargs, result):
    # numbers read = usable + dropped, plus the one lost to differencing
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "durations")
    return result.n + result.dropped + (1 if mode == "timestamps" else 0)


def _count_taus(args, kwargs, result):
    return result.taus.size


def _count_failed_mu(args, kwargs, result):
    return sum(s is None for s in result[0])


def _count_windows(args, kwargs, result):
    return result.m


def _count_exp_evals(args, kwargs, result):
    return result.taus.size * args[0].m


def _count_points(args, kwargs, result):
    curves = args[0] if args else kwargs["curves"]
    return sum(len(x) for x, _, _ in curves)


# (module, function, span name, counter or None)
TRACED = [
    ("cli", "main", "cli.main", None),
    ("durations", "load_durations", "durations.load_durations", _count_lines),
    ("durations", "empirical_survival", "durations.empirical_survival", _count_taus),
    ("durations", "write_survival_csv", "durations.write_survival_csv", None),
    ("kernel", "assemble_kernel", "kernel.assemble_kernel", None),
    ("tikhonov", "sweep_mu", "tikhonov.sweep_mu", _count_failed_mu),
    ("tikhonov", "solve_tikhonov", "tikhonov.solve_tikhonov", None),
    ("tikhonov", "write_mu_sweep_csv", "tikhonov.write_csv", None),
    ("tikhonov", "write_spectrum_csv", "tikhonov.write_csv", None),
    ("delta_comb", "sweep_delta_t", "delta_comb.sweep_delta_t", None),
    ("delta_comb", "fit_comb", "delta_comb.fit_comb", _count_windows),
    ("delta_comb", "comb_survival", "delta_comb.comb_survival", _count_exp_evals),
    ("delta_comb", "write_delta_t_sweep_csv", "delta_comb.write_csv", None),
    ("delta_comb", "write_comb_csv", "delta_comb.write_csv", None),
    ("gof", "ks_compare", "gof.ks_compare", None),
    ("synthetic", "gen_mixture", "synthetic.gen", None),
    ("synthetic", "gen_mittag_leffler", "synthetic.gen", None),
    ("synthetic", "ml_survival", "synthetic.ml_survival", None),
    ("svgplot", "line_plot_svg", "svgplot.line_plot_svg", _count_points),
]
REBINDING_MODULES = ("cli", "tikhonov", "delta_comb")


class Tracer:
    """Records spans {id, run, name, parent, start, end[, count]}."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._local = threading.local()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, func, name, counter):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = {"id": len(tracer.spans), "run": tracer.run_id, "name": name,
                    "parent": stack[-1] if stack else None}
            tracer.spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span["count"] = int(counter(args, kwargs, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, package):
        """Patch the TRACED functions of ``package``; restore them on exit."""
        patched = []
        try:
            for module_name, func_name, span_name, counter in TRACED:
                module = getattr(package, module_name)
                original = getattr(module, func_name)
                wrapper = self._wrap(original, span_name, counter)
                owners = [module] + [
                    getattr(package, m) for m in REBINDING_MODULES
                    if m != module_name
                    and getattr(getattr(package, m), func_name, None) is original]
                for owner in owners:
                    patched.append((owner, func_name, original))
                    setattr(owner, func_name, wrapper)
            yield self
        finally:
            for owner, func_name, original in reversed(patched):
                setattr(owner, func_name, original)
            leftover = [f"{o.__name__}.{f}" for o, f, orig in patched
                        if getattr(o, f) is not orig]
            if leftover:
                raise RuntimeError(f"tracer failed to restore {leftover}")


def _self_time(span, children):
    # duration minus the union of the child intervals
    covered, cursor = 0.0, span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(child["start"], cursor), min(child["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span["end"] - span["start"] - covered


def _percentile(values, q):
    # nearest-rank percentile
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(spans):
    """Per-layer totals, self times and counts from one traced iteration."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def self_total(name):
        return sum(_self_time(s, children.get(s["id"], [])) for s in named(name))

    def count(name):
        return sum(s.get("count", 0) for s in named(name))

    solves_ms = [(s["end"] - s["start"]) * 1e3
                 for s in named("tikhonov.solve_tikhonov")]
    matrix_mb = max((8 * s["count"] / 1e6
                     for s in named("delta_comb.comb_survival")), default=0.0)
    return {
        "cli.main_s": (total("cli.main"), "s"),
        "cli.self_s": (self_total("cli.main"), "s"),
        "durations.load_durations_s": (total("durations.load_durations"), "s"),
        "durations.lines_parsed": (count("durations.load_durations"), "count"),
        "durations.empirical_survival_s": (total("durations.empirical_survival"), "s"),
        "durations.tau_points": (count("durations.empirical_survival"), "count"),
        "durations.write_survival_csv_s": (total("durations.write_survival_csv"), "s"),
        "kernel.assemble_kernel_s": (total("kernel.assemble_kernel"), "s"),
        "tikhonov.sweep_mu_s": (total("tikhonov.sweep_mu"), "s"),
        "tikhonov.sweep_mu_self_s": (self_total("tikhonov.sweep_mu"), "s"),
        "tikhonov.solve_calls": (len(solves_ms), "count"),
        "tikhonov.solve_p50_ms": (_percentile(solves_ms, 50), "ms"),
        "tikhonov.solve_p95_ms": (_percentile(solves_ms, 95), "ms"),
        "tikhonov.failed_mu": (count("tikhonov.sweep_mu"), "count"),
        "tikhonov.write_csv_s": (total("tikhonov.write_csv"), "s"),
        "delta_comb.sweep_delta_t_s": (total("delta_comb.sweep_delta_t"), "s"),
        "delta_comb.sweep_self_s": (self_total("delta_comb.sweep_delta_t"), "s"),
        "delta_comb.fit_comb_s": (total("delta_comb.fit_comb"), "s"),
        "delta_comb.fit_comb_calls": (len(named("delta_comb.fit_comb")), "count"),
        "delta_comb.windows": (count("delta_comb.fit_comb"), "count"),
        "delta_comb.comb_survival_s": (total("delta_comb.comb_survival"), "s"),
        "delta_comb.exp_evals": (count("delta_comb.comb_survival"), "count"),
        "delta_comb.matrix_mb": (matrix_mb, "MB"),
        "delta_comb.write_csv_s": (total("delta_comb.write_csv"), "s"),
        "gof.ks_compare_s": (total("gof.ks_compare"), "s"),
        "gof.ks_compare_calls": (len(named("gof.ks_compare")), "count"),
        "synthetic.gen_s": (total("synthetic.gen"), "s"),
        "synthetic.ml_survival_s": (total("synthetic.ml_survival"), "s"),
        "svgplot.line_plot_svg_s": (total("svgplot.line_plot_svg"), "s"),
        "svgplot.points": (count("svgplot.line_plot_svg"), "count"),
    }
