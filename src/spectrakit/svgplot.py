"""Minimal static SVG line plots (no plotting toolkit required)."""

from __future__ import annotations

import numpy as np

from . import durations

__all__ = ["line_plot_svg"]

_WIDTH, _HEIGHT = 640, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
_PLOT_H = _HEIGHT - _MARGIN_T - _MARGIN_B
# sampled curves (_sample): px tolerance and first call's size
_EPS, _FIRST = 0.05, 257


def _escape(text: str) -> str:
    # xml.sax.saxutils.escape without its import: "&" first, then "<", ">"
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _pieces(values, log: bool):
    # values on a plot axis, durations._TABLE_ROWS at a time (log: <= 0 -> NaN)
    values = np.asarray(values, dtype=float)
    for lo in range(0, values.size, durations._TABLE_ROWS):
        piece = values[lo:lo + durations._TABLE_ROWS]
        yield np.log10(np.where(piece > 0, piece, np.nan)) if log else piece


def _points(x, y) -> str:
    """``" ".join(map("{:.2f},{:.2f}".format, x, y))`` byte for byte: the digits
    come from durations._fixed, and a piece it refuses goes through format()."""
    chars = durations._fixed(np.column_stack((x, y)).ravel(), 2)
    if chars is None:
        return " ".join(map("{:.2f},{:.2f}".format, x.tolist(), y.tolist()))
    chars[:, -1] = ord(" ")
    chars[::2, -1] = ord(",")
    flat = chars.ravel()
    return str(flat[flat != 0][:-1], "ascii")


def _sample(x, f, log_y: bool):
    """(x, y) where f is evaluated: on all of x, or on _FIRST spread points and
    then once per round; px bounds use f's own y span, at most the frame's."""
    idx = np.rint(np.linspace(0, x.size - 1, min(x.size, _FIRST))).astype(np.intp)
    val = f(x[idx])
    while True:
        # on a log axis the first zero, NaN in v, brackets the last positive point
        live = min(np.count_nonzero(val > 0) + 1, val.size) if log_y else val.size
        v = np.log10(np.where(val[:live] > 0, val[:live], np.nan)) if log_y else val
        span = np.fmax.reduce(v, initial=-np.inf) - np.fmin.reduce(v, initial=np.inf)
        # drawn y is concave (but for subnormal values), so a skipped point lies
        # within |s- - s+| * dx / 4 of its chord, s-/s+ the neighbour chords' slopes
        dx = np.diff(x[idx[:live]])
        slopes = np.r_[np.nan, np.diff(v) / dx, np.nan]
        with np.errstate(over="ignore"):  # a bound past the float range splits too
            bound = np.abs(slopes[:-2] - slopes[2:]) * dx / 4 * _PLOT_H / (span or 1.0)
        split = (np.diff(idx[:live]) > 1) & (~(bound <= _EPS)
                                             | log_y & (val[1:live] < durations._TINY))
        new = (idx[:live - 1][split] + idx[1:live][split]) // 2
        if not new.size:
            return x[idx], val
        at = np.searchsorted(idx, new)
        idx, val = np.insert(idx, at, new), np.insert(val, at, f(x[new]))


def _kept(x, y, log_x: bool, log_y: bool):
    """Yield the finite points on the plot axes a piece at a time, less flat-run points."""
    cx, cy = np.empty(0), np.empty(0)  # the last two points; the last waits
    for tx, ty in zip(_pieces(x, log_x), _pieces(y, log_y)):
        keep = np.isfinite(tx) & np.isfinite(ty)
        tx, ty = np.concatenate((cx, tx[keep])), np.concatenate((cy, ty[keep]))
        a, b, c = tx[:-2], tx[1:-1], tx[2:]
        show = np.ones(tx.size, dtype=bool)
        show[1:-1] = ((ty[1:-1] != ty[:-2]) | (ty[1:-1] != ty[2:])
                      | ~((a < b) & (b < c) | (a > b) & (b > c)))
        done = slice(max(cx.size - 1, 0), max(tx.size - 1, 0))
        yield tx[done][show[done]], ty[done][show[done]]
        cx, cy = tx[-2:], ty[-2:]
    yield cx[-1:], cy[-1:]


def _frame(lo, hi):
    # an axis range, a one-value one widened by 1 (by one float toward 0 where
    # lo + 1 == lo), and its scale: 0.5 where hi - lo passes the float range, as
    # halving ends that large is exact, where halving a subnormal one is not
    if hi == lo:
        lo, hi = (lo, lo + 1.0) if lo + 1.0 != lo else sorted((lo, np.nextafter(lo, 0)))
    return lo, hi, 0.5 if np.isinf(float(hi) - float(lo)) else 1.0


def line_plot_svg(curves, stream, title: str = "", xlabel: str = "", ylabel: str = "",
                  log_x: bool = False, log_y: bool = False) -> None:
    """Write labelled (x, y) curves to ``stream`` as an SVG, one polyline each.

    ``curves`` is a list of (x, y, label) triples.  Log axes drop
    non-positive points; a point whose y equals both finite neighbours',
    with its x strictly between theirs, is not written.  On a linear x
    axis, y may be a callable giving a non-negative mixture of decaying
    exponentials on an increasing subset of x (an increasing float array),
    drawn through grid points _sample picks, its first and last positive
    among them, within _EPS px of all others.  Points are worked
    durations._TABLE_ROWS at a time.
    """
    if not curves:
        raise ValueError("no curves to plot")
    if any(not callable(y) and len(x) != len(y) for x, y, _ in curves):
        raise ValueError("x and y of a curve must have equal lengths")
    if log_x and any(callable(y) for _, y, _ in curves):
        raise ValueError("a sampled curve needs a linear x axis")
    curves = [(*_sample(x, y, log_y), label) if callable(y) else (x, y, label)
              for x, y, label in curves]
    x0, x1, y0, y1 = np.inf, -np.inf, np.inf, -np.inf
    for x, y, _ in curves:
        for tx, ty in zip(_pieces(x, log_x), _pieces(y, log_y)):
            x0 = tx.min(where=np.isfinite(tx), initial=x0)
            x1 = tx.max(where=np.isfinite(tx), initial=x1)
            y0 = ty.min(where=np.isfinite(ty), initial=y0)
            y1 = ty.max(where=np.isfinite(ty), initial=y1)
    if x0 > x1 or y0 > y1:
        raise ValueError("no finite points to plot")
    x0, x1, sx = _frame(x0, x1)
    y0, y1, sy = _frame(y0, y1)

    plot_w, plot_h = _WIDTH - _MARGIN_L - _MARGIN_R, _PLOT_H

    def px(x):
        return _MARGIN_L + (x * sx - x0 * sx) / (x1 * sx - x0 * sx) * plot_w

    def py(y):
        return _MARGIN_T + (y1 * sy - y * sy) / (y1 * sy - y0 * sy) * plot_h

    def fmt_tick(v, log):
        return f"1e{v:g}" if log else f"{v:.3g}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T + plot_h}" '
        f'x2="{_MARGIN_L + plot_w}" y2="{_MARGIN_T + plot_h}" stroke="black"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" '
        f'x2="{_MARGIN_L}" y2="{_MARGIN_T + plot_h}" stroke="black"/>',
    ]
    if title:
        parts.append(f'<text x="{_WIDTH / 2}" y="24" text-anchor="middle" '
                     f'font-size="16">{_escape(title)}</text>')
    if xlabel:
        parts.append(f'<text x="{_MARGIN_L + plot_w / 2}" y="{_HEIGHT - 12}" '
                     f'text-anchor="middle" font-size="13">{_escape(xlabel)}</text>')
    if ylabel:
        cy = _MARGIN_T + plot_h / 2
        parts.append(f'<text x="18" y="{cy}" text-anchor="middle" font-size="13" '
                     f'transform="rotate(-90 18 {cy})">{_escape(ylabel)}</text>')
    for tick in np.linspace(x0 * sx, x1 * sx, 5) / sx:
        x = px(tick)
        parts.append(f'<line x1="{x:.1f}" y1="{_MARGIN_T + plot_h}" '
                     f'x2="{x:.1f}" y2="{_MARGIN_T + plot_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{_MARGIN_T + plot_h + 20}" '
                     f'text-anchor="middle" font-size="11">{fmt_tick(tick, log_x)}</text>')
    for tick in np.linspace(y0 * sy, y1 * sy, 5) / sy:
        y = py(tick)
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{y:.1f}" '
                     f'x2="{_MARGIN_L}" y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{y + 4:.1f}" '
                     f'text-anchor="end" font-size="11">{fmt_tick(tick, log_y)}</text>')
    stream.write("\n".join(parts) + "\n")
    for k, (x, y, label) in enumerate(curves):
        color = _COLORS[k % len(_COLORS)]
        stream.write(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="')
        sep = ""
        for tx, ty in _kept(x, y, log_x, log_y):
            pts = _points(px(tx), py(ty))
            if pts:
                stream.write(sep + pts)
                sep = " "
        stream.write('"/>\n')
        if label:
            ly = _MARGIN_T + 16 + 16 * k
            lx = _MARGIN_L + plot_w - 150
            stream.write(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" '
                         f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>\n'
                         f'<text x="{lx + 30}" y="{ly}" font-size="12">'
                         f'{_escape(label)}</text>\n')
    stream.write("</svg>")
