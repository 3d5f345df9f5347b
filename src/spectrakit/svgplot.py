"""Minimal static SVG line plots (no plotting toolkit required)."""

from __future__ import annotations

import numpy as np

from . import durations

__all__ = ["line_plot_svg"]

_WIDTH, _HEIGHT = 640, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]


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


def line_plot_svg(curves, stream, title: str = "", xlabel: str = "", ylabel: str = "",
                  log_x: bool = False, log_y: bool = False) -> None:
    """Write labelled (x, y) curves to ``stream`` as an SVG, one polyline each.

    ``curves`` is a list of (x, y, label) triples.  Log axes drop
    non-positive points.  Points are worked durations._TABLE_ROWS at a time.
    """
    if not curves:
        raise ValueError("no curves to plot")
    if any(len(x) != len(y) for x, y, _ in curves):
        raise ValueError("x and y of a curve must have equal lengths")
    x0, x1, y0, y1 = np.inf, -np.inf, np.inf, -np.inf
    for x, y, _ in curves:
        for tx, ty in zip(_pieces(x, log_x), _pieces(y, log_y)):
            x0 = tx.min(where=np.isfinite(tx), initial=x0)
            x1 = tx.max(where=np.isfinite(tx), initial=x1)
            y0 = ty.min(where=np.isfinite(ty), initial=y0)
            y1 = ty.max(where=np.isfinite(ty), initial=y1)
    if x0 > x1 or y0 > y1:
        raise ValueError("no finite points to plot")
    x1 = x0 + 1.0 if x1 == x0 else x1
    y1 = y0 + 1.0 if y1 == y0 else y1

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + (x - x0) / (x1 - x0) * plot_w

    def py(y):
        return _MARGIN_T + (y1 - y) / (y1 - y0) * plot_h

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
    for i, tick in enumerate(np.linspace(x0, x1, 5)):
        x = px(tick)
        parts.append(f'<line x1="{x:.1f}" y1="{_MARGIN_T + plot_h}" '
                     f'x2="{x:.1f}" y2="{_MARGIN_T + plot_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{_MARGIN_T + plot_h + 20}" '
                     f'text-anchor="middle" font-size="11">{fmt_tick(tick, log_x)}</text>')
    for tick in np.linspace(y0, y1, 5):
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
        for tx, ty in zip(_pieces(x, log_x), _pieces(y, log_y)):
            keep = np.isfinite(tx) & np.isfinite(ty)
            pts = _points(px(tx[keep]), py(ty[keep]))
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
