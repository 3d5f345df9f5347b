"""Output checks for one CLI command, independent of spectrakit's readers.

Each check returns a list of failure messages; an empty list passes.  The
files are parsed here with plain Python and numpy, and the Tikhonov
spectrum is rebuilt against the generator's analytic survival function.
"""

from __future__ import annotations

import math
import os
import xml.etree.ElementTree as ET

import numpy as np

# sup |Psi_tikhonov - Psi_true| over tau = 1..n; on the seed code it is
# 0.0016 (exp-50k), 0.0020 (ml-55k) and 0.010 (mix-250k-ts)
TRUTH_TOL = 0.02
# echo values are printed with 6 significant digits
ECHO_RTOL = 1e-5

OUTPUTS = {
    "survival": ["survival.csv", "survival.svg"],
    "tikhonov": ["tik_sweep.csv", "tik_spectrum.csv", "tik_survival.csv",
                 "tik_ks_vs_mu.svg", "tik_fit.svg"],
    "comb": ["comb_sweep.csv", "comb_comb.csv", "comb_ks_vs_dt.svg",
             "comb_fit.svg"],
}
ECHO_KEYS = {
    "survival": ["n", "mean", "tau_max", "dropped"],
    "tikhonov": ["h", "n", "mu_count", "best_mu", "ks_statistic", "ks_pvalue",
                 "total_mass", "neg_mass"],
    "comb": ["dt_count", "best_delta_t", "m", "ks_statistic", "ks_pvalue"],
}


class CheckFailed(Exception):
    pass


def parse_echo(stdout: str) -> dict:
    """'# key = value' lines of the CLI echo, as a dict of strings."""
    values = {}
    for line in stdout.splitlines():
        key, sep, value = line.lstrip("# ").partition(" = ")
        if sep:
            values[key] = value
    return values


def _echo_numbers(command, stdout):
    raw = parse_echo(stdout)
    echo = {}
    for key in ECHO_KEYS[command]:
        if key not in raw:
            raise CheckFailed(f"echo lacks {key!r}")
        try:
            echo[key] = float(raw[key])
        except ValueError:
            raise CheckFailed(f"echo {key} = {raw[key]!r} is not a number") from None
        if not math.isfinite(echo[key]):
            raise CheckFailed(f"echo {key} = {raw[key]} is not finite")
    return echo


def _read_csv(path, header, ncols):
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    if not body or body[0] != header:
        raise CheckFailed(f"{os.path.basename(path)}: header is not {header!r}")
    rows = [ln.split(",") for ln in body[1:]]
    if not rows or any(len(r) != ncols for r in rows):
        raise CheckFailed(f"{os.path.basename(path)}: expected rows of {ncols} fields")
    table = np.array(rows, dtype=float)
    if not np.all(np.isfinite(table)):
        raise CheckFailed(f"{os.path.basename(path)}: non-finite value")
    return table, lines


def _check_svg(path):
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise CheckFailed(f"{os.path.basename(path)}: {exc}") from None
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    if not lines or not all(p.get("points") for p in lines):
        raise CheckFailed(f"{os.path.basename(path)}: no plotted points")


def _close(a, b):
    return abs(a - b) <= ECHO_RTOL * max(abs(a), abs(b)) + 1e-300


def _pick_index(grid, value, what):
    hits = [i for i, v in enumerate(grid) if _close(v, value)]
    if len(hits) != 1:
        raise CheckFailed(f"{what} = {value:g} is not one point of its grid")
    return hits[0]


def _survival(out, echo, expect):
    if echo["n"] + echo["dropped"] != expect["durations"]:
        raise CheckFailed(f"n + dropped = {echo['n'] + echo['dropped']:g}, "
                          f"expected {expect['durations']}")
    table, _ = _read_csv(os.path.join(out, "survival.csv"), "tau,psi", 2)
    taus, psi = table[:, 0], table[:, 1]
    if len(taus) != expect["tau_points"]:
        raise CheckFailed(f"survival.csv has {len(taus)} rows, "
                          f"expected {expect['tau_points']}")
    if np.any(psi < 0) or np.any(psi > 1) or np.any(np.diff(psi) > 0):
        raise CheckFailed("survival.csv: psi not a non-increasing curve in [0, 1]")
    _check_svg(os.path.join(out, "survival.svg"))
    return {}


def _tikhonov(out, echo, expect):
    sweep, _ = _read_csv(os.path.join(out, "tik_sweep.csv"),
                         "mu,ks_statistic,ks_pvalue,neg_mass,total_mass", 5)
    if len(sweep) != echo["mu_count"]:
        raise CheckFailed("tik_sweep.csv row count differs from mu_count")
    pick = _pick_index(sweep[:, 0], echo["best_mu"], "best_mu")
    if not _close(sweep[pick, 1], echo["ks_statistic"]):
        raise CheckFailed("ks_statistic differs from the sweep row of best_mu")
    spectrum, _ = _read_csv(os.path.join(out, "tik_spectrum.csv"), "lambda,g", 2)
    if len(spectrum) != echo["n"]:
        raise CheckFailed("tik_spectrum.csv row count differs from n")
    if not _close(spectrum[:, 1].sum(), echo["total_mass"]):
        raise CheckFailed("spectrum mass differs from total_mass")
    fit, _ = _read_csv(os.path.join(out, "tik_survival.csv"),
                       "tau,psi_empirical,psi_rebuilt", 3)
    taus = fit[:, 0]
    if not np.array_equal(taus, expect["truth_taus"]):
        raise CheckFailed("tik_survival.csv tau grid is not 1..n")
    rebuilt = np.exp(-np.outer(taus, spectrum[:, 0])) @ spectrum[:, 1]
    if np.max(np.abs(rebuilt - fit[:, 2])) > 1e-5:
        raise CheckFailed("psi_rebuilt does not match the spectrum")
    truth_d = float(np.max(np.abs(rebuilt - expect["truth_psi"])))
    if truth_d > TRUTH_TOL:
        raise CheckFailed(f"truth_d = {truth_d:.4g} exceeds {TRUTH_TOL}")
    for name in ("tik_ks_vs_mu.svg", "tik_fit.svg"):
        _check_svg(os.path.join(out, name))
    return {"tikhonov_ks_d": echo["ks_statistic"], "truth_d": truth_d}


def _comb(out, echo, expect):
    sweep, _ = _read_csv(os.path.join(out, "comb_sweep.csv"),
                         "delta_t,m,ks_statistic,ks_pvalue", 4)
    if len(sweep) != echo["dt_count"]:
        raise CheckFailed("comb_sweep.csv row count differs from dt_count")
    pick = _pick_index(sweep[:, 0], echo["best_delta_t"], "best_delta_t")
    if sweep[pick, 1] != echo["m"] or not _close(sweep[pick, 2], echo["ks_statistic"]):
        raise CheckFailed("m or ks_statistic differs from the sweep row of best_delta_t")
    comb, lines = _read_csv(os.path.join(out, "comb_comb.csv"),
                            "lambda,weight,window_count,window_sum", 4)
    if not lines[0].startswith("# delta_t="):
        raise CheckFailed("comb_comb.csv lacks its '# delta_t=' line")
    if len(comb) != echo["m"] or abs(comb[:, 1].sum() - 1.0) > 1e-9:
        raise CheckFailed("comb_comb.csv: not m windows with weights summing to 1")
    if np.any(comb[:, 0] <= 0):
        raise CheckFailed("comb_comb.csv: non-positive rate")
    for name in ("comb_ks_vs_dt.svg", "comb_fit.svg"):
        _check_svg(os.path.join(out, name))
    return {"comb_ks_d": echo["ks_statistic"]}


_CHECKS = {"survival": _survival, "tikhonov": _tikhonov, "comb": _comb}


def check_command(command, out, stdout, expect):
    """Check one command's echo and files.

    Returns (failures, values) where values holds the quality metrics the
    command yields (KS distances, truth_d).
    """
    missing = [f for f in OUTPUTS[command]
               if not os.path.isfile(os.path.join(out, f))]
    if missing:
        return [f"{command}: missing {', '.join(missing)}"], {}
    try:
        echo = _echo_numbers(command, stdout)
        return [], _CHECKS[command](out, echo, expect)
    except (CheckFailed, OSError, ValueError, UnicodeDecodeError) as exc:
        return [f"{command}: {exc}"], {}
