"""Minimal static SVG line plots (no plotting toolkit required)."""

from __future__ import annotations

import numpy as np

__all__ = ["line_plot_svg"]

_WIDTH, _HEIGHT = 640, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]


def _escape(text: str) -> str:
    # xml.sax.saxutils.escape without its import: "&" first, then "<", ">"
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _transform(values, log: bool):
    values = np.asarray(values, dtype=float)
    if log:
        values = np.where(values > 0, values, np.nan)
        return np.log10(values)
    return values


def line_plot_svg(curves, title: str = "", xlabel: str = "", ylabel: str = "",
                  log_x: bool = False, log_y: bool = False) -> str:
    """Render labelled (x, y) curves as one polyline each.

    ``curves`` is a list of (x, y, label) triples.  Log axes drop
    non-positive points.  Returns the SVG document as a string.
    """
    if not curves:
        raise ValueError("no curves to plot")
    xs = [_transform(x, log_x) for x, _, _ in curves]
    ys = [_transform(y, log_y) for _, y, _ in curves]
    all_x = np.concatenate(xs)
    all_y = np.concatenate(ys)
    finite_x = all_x[np.isfinite(all_x)]
    finite_y = all_y[np.isfinite(all_y)]
    if finite_x.size == 0 or finite_y.size == 0:
        raise ValueError("no finite points to plot")
    x0, x1 = float(finite_x.min()), float(finite_x.max())
    y0, y1 = float(finite_y.min()), float(finite_y.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

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

    for k, ((_, _, label), tx, ty) in enumerate(zip(curves, xs, ys)):
        color = _COLORS[k % len(_COLORS)]
        keep = np.isfinite(tx) & np.isfinite(ty)
        pts = " ".join(map("{:.2f},{:.2f}".format,
                           px(tx[keep]).tolist(), py(ty[keep]).tolist()))
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{pts}"/>')
        if label:
            ly = _MARGIN_T + 16 + 16 * k
            lx = _MARGIN_L + plot_w - 150
            parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" '
                         f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
            parts.append(f'<text x="{lx + 30}" y="{ly}" font-size="12">'
                         f'{_escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
