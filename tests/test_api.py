"""The public names: every __all__ entry resolves, every function the
benchmark's tracer wraps exists and its counters read what the library
returns, the runtime imports numpy alone, and the curve builders, the plot
writer, the public numerics and the CSV writers end extreme input in a value
or a ValueError, never a warning."""

import importlib
import importlib.util
import io
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectrakit
from spectrakit import (DeltaComb, DurationSeries, MlParams, SpectrumGrid, assemble_kernel,
                        comb_survival, conditioning_ratio, default_delta_t_grid,
                        empirical_survival, estimate_h, fit_comb, ks_pvalue, ml_survival,
                        sweep_delta_t, sweep_mu)
from spectrakit.delta_comb import write_comb_csv, write_delta_t_sweep_csv
from spectrakit.svgplot import line_plot_svg
from spectrakit.tikhonov import write_mu_sweep_csv, write_spectrum_csv

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


# from 1e-300 to 1e308 with the ends themselves likely; 0 and negatives separately
SPANS = st.floats(1e-300, 1e308) | st.sampled_from([1e-300, 1e308])
TAUS = SPANS | st.just(0.0) | st.floats(-1e308, -1e-300)


def _returned(build):
    # the value a builder returns, or None where it raises ValueError
    try:
        return build()
    except ValueError:
        return None


@settings(max_examples=200, deadline=None)
@given(beta=st.floats(0.0, 1.0, exclude_min=True) | st.just(1.0), gamma=SPANS,
       taus=st.lists(TAUS, min_size=1, max_size=6), ordered=st.booleans(),
       values=st.lists(SPANS, min_size=1, max_size=6),
       terms=st.lists(st.tuples(st.floats(1e-3, 1.0), SPANS), min_size=1, max_size=4),
       xy=st.lists(st.tuples(st.floats(-1e308, 1e308), st.floats(-1e308, 1e308)),
                   min_size=1, max_size=6),
       log_x=st.booleans(), log_y=st.booleans())
def test_curve_builders_and_plot_return_or_raise_value_error(
        beta, gamma, taus, ordered, values, terms, xy, log_x, log_y):
    # a grid drawn as it comes is mostly refused, so most are made valid first
    taus = np.unique(np.abs(taus)) if ordered else np.array(taus)
    weights, rates = np.array(terms).T
    comb = DeltaComb(weights=weights / weights.sum(), rates=rates, m=rates.size,
                     delta_t=1.0, window_counts=np.ones(rates.size, dtype=int),
                     window_sums=1.0 / rates)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ml = _returned(lambda: ml_survival(MlParams(beta, gamma), taus))
        curves = [ml, _returned(lambda: comb_survival(comb, taus)),
                  _returned(lambda: empirical_survival(DurationSeries.from_values(values),
                                                       taus))]
        plotted = [(c.taus, c.psi, "curve") for c in curves if c is not None]
        plotted.append((*np.array(xy).T, "drawn"))
        if ordered and not log_x:
            plotted.append((taus, lambda t: comb_survival(comb, t).psi, "sampled"))
        svg = io.StringIO()
        try:
            line_plot_svg(plotted, svg, log_x=log_x, log_y=log_y)
        except ValueError:
            assert svg.getvalue() == ""
    assert "nan" not in svg.getvalue() and "inf" not in svg.getvalue()
    if ml is not None:
        assert np.all((ml.psi >= 0) & (ml.psi <= 1)) and np.all(np.diff(ml.psi) <= 0)
        assert np.all(ml.psi[ml.taus == 0] == 1)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(SPANS, min_size=1, max_size=6), delta_t=SPANS,
       taus=st.lists(SPANS, min_size=1, max_size=4), h=SPANS, n=st.integers(1, 4),
       psi=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
       mus=st.lists(SPANS, min_size=1, max_size=3),
       spectrum=st.lists(st.tuples(SPANS, st.floats(-1e308, 1e308)), min_size=1, max_size=4),
       d=st.floats(0.0, 1.0) | SPANS, n_eff=st.integers(0, 10 ** 18))
def test_numerics_and_writers_return_or_raise_value_error(
        values, delta_t, taus, h, n, psi, mus, spectrum, d, n_eff):
    out = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = _returned(lambda: DurationSeries.from_values(values))
        if series is not None:
            comb = _returned(lambda: fit_comb(series, delta_t))
            if comb is not None:
                estimate_h(comb, n)
                write_comb_csv(comb, out)
            dts = _returned(lambda: default_delta_t_grid(series))
            empirical = empirical_survival(series, np.unique(taus))
            combs = _returned(lambda: sweep_delta_t(
                series, [delta_t] if dts is None else dts, empirical))
            if combs is not None:
                combs.pick.rebuilt
                write_delta_t_sweep_csv(combs.results, out)
        spectra = [SpectrumGrid.from_arrays(*np.array(spectrum).T)]
        kernel = _returned(lambda: assemble_kernel(h, n))
        if kernel is not None:
            conditioning_ratio(kernel)
            solutions = _returned(lambda: sweep_mu(kernel, psi[:n], mus))
            if solutions is not None:
                solutions.pick.rebuilt
                write_spectrum_csv(solutions.pick.spectrum, out)
                write_mu_sweep_csv(solutions.results, out)
                spectra += [s.spectrum for s in solutions.results]
        for grid in spectra:
            grid.total_mass, grid.negative_mass, grid.negative_count, grid.mass_centroid
        _returned(lambda: ks_pvalue(d, n_eff))
