"""Command-line pipeline: gen / survival / tikhonov / comb."""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
import tempfile

import numpy as np

from . import delta_comb, gof, svgplot, synthetic, tikhonov
from .durations import (MAX_GRID_POINTS, default_tau_grid, empirical_survival,
                        load_durations, write_survival_csv, write_table)
from .kernel import assemble_kernel, check_kernel_size


def _atomic_write(path: str, write) -> None:
    # Call write(fh) on a temp file next to path, then rename it to path with
    # the mode open(path, "w") leaves: an existing file's own mode, else
    # 0o666 less the umask.  A symlinked path is written through, like open
    # does: its target is replaced, or created if it does not exist.  An
    # OSError of the temp file's creation or rename names path, not the temp.
    target = os.path.realpath(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".tmp")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            write(fh)
        try:
            mode = stat.S_IMODE(os.stat(target).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp, mode)
        try:
            os.replace(tmp, target)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def parse_value_list(text: str) -> np.ndarray:
    """Parse 'lo:hi:count[,log|lin]' shorthand or an explicit comma list."""
    text = text.strip()
    if ":" in text:
        spec, _, scale = text.partition(",")
        scale = scale or "log"
        fields = spec.split(":")
        if len(fields) != 3:
            raise ValueError(f"range must be lo:hi:count, got {spec!r}")
        lo, hi, count = float(fields[0]), float(fields[1]), int(fields[2])
        if not 1 <= count <= MAX_GRID_POINTS:
            raise ValueError(f"range count {count} is outside 1..{MAX_GRID_POINTS}")
        if not math.isfinite(hi - lo):  # an inf or nan endpoint, or a span past the range
            raise ValueError(f"range {spec!r} must have finite endpoints and a finite span")
        if scale == "log":
            if lo <= 0 or hi <= 0:
                raise ValueError("log range endpoints must be > 0")
            return np.geomspace(lo, hi, count)
        if scale == "lin":
            return np.linspace(lo, hi, count)
        raise ValueError(f"unknown range scale {scale!r}")
    values = np.array([float(v) for v in text.split(",") if v.strip()])
    if values.size == 0:
        raise ValueError("empty value list")
    return values


def parse_mixture(text: str) -> synthetic.MixtureSpec:
    """Parse 'w1:rate1,w2:rate2,...' into a MixtureSpec."""
    weights, rates = [], []
    for chunk in text.split(","):
        w, _, lam = chunk.partition(":")
        if not lam:
            raise ValueError(f"mixture component must be weight:rate, got {chunk!r}")
        weights.append(float(w))
        rates.append(float(lam))
    return synthetic.MixtureSpec(weights=weights, rates=rates)


def _load_series(args):
    with open(args.input, encoding="utf-8-sig") as fh:
        return load_durations(fh, mode=args.mode, max_duration=args.max_duration)


def _echo(args, pairs) -> None:
    print(f"# spectrakit {args.command}")
    for key, value in pairs:
        print(f"# {key} = {value}")


def _warn_if_edge(sweep) -> None:
    if sweep.edge:
        print(f"warning: best {sweep.name} = {sweep.grid[sweep.best]:g} is at the "
              f"{sweep.edge} edge of its {sweep.grid.size}-point grid", file=sys.stderr)


def _default_dts(series, remedy: str) -> np.ndarray:
    try:
        return delta_comb.default_delta_t_grid(series)
    except ValueError as exc:
        raise ValueError(f"{exc}; {remedy}") from None


def _plot_sweep(prefix, sweep, empirical, model, *, short, xlabel, title, label) -> None:
    """Write <prefix>_ks_vs_<short>.svg (KS p over the grid) and <prefix>_fit.svg."""
    _atomic_write(f"{prefix}_ks_vs_{short}.svg", lambda fh: svgplot.line_plot_svg(
        [(sweep.grid, np.array([r.ks.p_value for r in sweep.results]), "KS probability")],
        fh, title=f"KS probability vs {sweep.name}", xlabel=xlabel, ylabel="p", log_x=True))
    _atomic_write(f"{prefix}_fit.svg", lambda fh: svgplot.line_plot_svg(
        [(empirical.taus, empirical.psi, "empirical"), (empirical.taus, model, label)], fh,
        title=title, xlabel="tau [s]", ylabel="Psi", log_y=True))


def cmd_gen(args) -> None:
    modes = [args.exp is not None, args.mixture is not None, args.ml]
    if sum(modes) != 1:
        raise ValueError("choose exactly one of --exp, --mixture, --ml")
    if not 1 <= args.n <= MAX_GRID_POINTS:
        raise ValueError(f"--n must be in 1..{MAX_GRID_POINTS}, got {args.n}")
    if args.exp is not None:
        spec = synthetic.MixtureSpec(weights=[1.0], rates=[args.exp])
        model = f"exponential rate={args.exp:g}"
    elif args.mixture is not None:
        spec, model = parse_mixture(args.mixture), f"mixture {args.mixture}"
    else:
        spec = synthetic.MlParams(beta=args.beta, gamma=args.gamma)
        model = f"mittag-leffler beta={args.beta:g} gamma={args.gamma:g}"
    gen = synthetic.gen_mittag_leffler if args.ml else synthetic.gen_mixture
    series = gen(spec, args.n, args.seed)
    header = f"# {model} n={args.n} seed={args.seed}"
    _atomic_write(args.out, lambda fh: write_table(fh, header, "{!r}", series.values))
    _echo(args, [("out", args.out), ("n", series.n), ("seed", args.seed)])


def cmd_survival(args) -> None:
    series = _load_series(args)
    taus = (parse_value_list(args.grid) if args.grid
            else default_tau_grid(series))
    curve = empirical_survival(series, taus)
    _atomic_write(args.out, lambda fh: write_survival_csv(curve, fh))
    _echo(args, [("input", args.input), ("n", series.n),
                 ("mean", f"{series.mean:.6g}"), ("tau_max", f"{series.max:g}"),
                 ("dropped", series.dropped), ("out", args.out)])
    if args.plot:
        def reference(t):
            with np.errstate(over="ignore"):  # a -t/mean past the float range is -inf
                return np.exp(-t / series.mean)
        # drawn down to the smallest positive psi (0 where there is none)
        shown = taus[reference(taus) >= curve.psi[np.count_nonzero(curve.psi > 0) - 1]]
        _atomic_write(args.plot, lambda fh: svgplot.line_plot_svg(
            [(taus, curve.psi, "empirical"), (shown, reference, "exponential 1/mean")],
            fh, title="Survival function", xlabel="tau [s]", ylabel="Psi", log_y=True))


def cmd_tikhonov(args) -> None:
    check_kernel_size(args.n)
    mus = gof.check_grid("mu", parse_value_list(args.mu) if args.mu
                         else tikhonov.default_mu_grid())
    series = _load_series(args)
    curve = empirical_survival(series, np.arange(1.0, args.n + 1))
    if args.auto_h:
        dt_sweep = delta_comb.sweep_delta_t(
            series, _default_dts(series, "give --h instead of --auto-h"), curve)
        _warn_if_edge(dt_sweep)
        h = delta_comb.estimate_h(dt_sweep.pick.comb, args.n)
    else:
        h = args.h
    mu_sweep = tikhonov.sweep_mu(assemble_kernel(h, args.n), curve, mus)
    sol = mu_sweep.pick

    _atomic_write(args.out_prefix + "_sweep.csv",
                  lambda fh: tikhonov.write_mu_sweep_csv(mu_sweep.results, fh))
    _atomic_write(args.out_prefix + "_spectrum.csv",
                  lambda fh: tikhonov.write_spectrum_csv(sol.spectrum, fh))
    _atomic_write(args.out_prefix + "_survival.csv",
                  lambda fh: write_table(fh, "tau,psi_empirical,psi_rebuilt",
                                         "{:.12g},{:.6f},{:.6f}",
                                         curve.taus, curve.psi, sol.rebuilt.psi))
    _echo(args, [("input", args.input), ("h", f"{h:g}"), ("n", args.n),
                 ("mu_count", len(mu_sweep.results)), ("best_mu", f"{sol.mu:g}"),
                 ("ks_statistic", f"{sol.ks.statistic:.6g}"),
                 ("ks_pvalue", f"{sol.ks.p_value:.6g}"),
                 ("total_mass", f"{sol.spectrum.total_mass:.6g}"),
                 ("neg_mass", f"{sol.spectrum.negative_mass:.6g}")])
    _warn_if_edge(mu_sweep)
    if args.plot:
        _plot_sweep(args.out_prefix, mu_sweep, curve, sol.rebuilt.psi, short="mu", xlabel="mu",
                    title="Rebuilt survival function", label=f"rebuilt mu={sol.mu:.3g}")


def cmd_comb(args) -> None:
    series = _load_series(args)
    dts = (parse_value_list(args.dt) if args.dt
           else _default_dts(series, "give an explicit grid with --dt"))
    empirical = empirical_survival(series, parse_value_list(args.grid) if args.grid
                                   else default_tau_grid(series))
    dt_sweep = delta_comb.sweep_delta_t(series, dts, empirical)
    comb, report = dt_sweep.pick.comb, dt_sweep.pick.ks

    _atomic_write(args.out_prefix + "_sweep.csv",
                  lambda fh: delta_comb.write_delta_t_sweep_csv(dt_sweep.results, fh))
    _atomic_write(args.out_prefix + "_comb.csv",
                  lambda fh: delta_comb.write_comb_csv(comb, fh))
    _echo(args, [("input", args.input), ("dt_count", len(dt_sweep.results)),
                 ("best_delta_t", f"{comb.delta_t:g}"), ("m", comb.m),
                 ("ks_statistic", f"{report.statistic:.6g}"),
                 ("ks_pvalue", f"{report.p_value:.6g}")])
    _warn_if_edge(dt_sweep)
    if args.plot:
        _plot_sweep(args.out_prefix, dt_sweep, empirical,
                    lambda t: delta_comb.comb_survival(comb, t).psi, short="dt",
                    xlabel="delta_t [s]", title="Delta-comb survival function",
                    label=f"comb dT={comb.delta_t:.3g}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectrakit",
        description="Activity-spectrum estimation from waiting-time data")
    sub = parser.add_subparsers(dest="command", required=True)
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--input", required=True)
    data.add_argument("--mode", choices=["durations", "timestamps"],
                      default="durations")
    data.add_argument("--max-duration", type=float, default=None)

    p = sub.add_parser("gen", help="generate synthetic duration data")
    p.add_argument("--exp", type=float, metavar="RATE",
                   help="single exponential with this rate [1/s]")
    p.add_argument("--mixture", metavar="W:RATE,...",
                   help="finite exponential mixture, e.g. 0.5:1,0.5:3")
    p.add_argument("--ml", action="store_true",
                   help="Mittag-Leffler waiting times")
    p.add_argument("--beta", type=float, default=0.95)
    p.add_argument("--gamma", type=float, default=8.85)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("survival", parents=[data],
                       help="empirical survival function CSV")
    p.add_argument("--grid", help="tau grid as list or lo:hi:count[,log|lin]")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--plot", metavar="SVG")
    p.set_defaults(func=cmd_survival)

    p = sub.add_parser("tikhonov", parents=[data],
                       help="regularized spectrum inversion")
    p.add_argument("--h", type=float, default=0.0015,
                   help="lambda grid spacing [1/s]")
    p.add_argument("--n", type=int, default=196, help="kernel grid size")
    p.add_argument("--auto-h", action="store_true",
                   help="estimate h from a delta-comb pre-analysis")
    p.add_argument("--mu", help="mu list or lo:hi:count[,log|lin]")
    p.add_argument("-o", "--out-prefix", required=True)
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_tikhonov)

    p = sub.add_parser("comb", parents=[data],
                       help="delta-comb spectrum estimation")
    p.add_argument("--dt", help="delta_t list or lo:hi:count[,log|lin]")
    p.add_argument("--grid", help="tau grid for the KS comparison")
    p.add_argument("-o", "--out-prefix", required=True)
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_comb)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
