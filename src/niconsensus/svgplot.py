"""Tiny self-contained SVG line plotter (no plotting library dependency).

Good enough for the per-node output figure the experiment runner emits; the
CSV is the primary artifact and anything fancier should be built from it.
"""

from __future__ import annotations

import numpy as np

#: Escapes for SVG text (xml.sax.saxutils.escape would import urllib.request, ~7 MB).
_ESC = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f"]

_W, _H = 880, 520
_ML, _MR, _MT, _MB = 70, 160, 46, 56


def _ticks(lo: float, hi: float, n: int = 6):
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s for s in (mag, 2 * mag, 2.5 * mag, 5 * mag, 10 * mag) if s >= raw)
    start = np.ceil(lo / step) * step
    return np.arange(start, hi + 0.5 * step, step)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _polyline_points(x_px, y_rows):
    """The points attribute of one polyline per row of y_rows, pixel y
    coordinates over the pixel x coordinates x_px, each "%.2f,%.2f". The x
    coordinates are formatted once into a template that one % per row fills
    from .tolist(), so only one row's list of Python floats is held at a time."""
    template = " ".join("%.2f" % v + ",%.2f" for v in x_px.tolist())
    return (template % tuple(row.tolist()) for row in y_rows)


def write_line_plot(path, x, series, labels=None, title="", xlabel="", ylabel=""):
    """Write one SVG with a polyline per row of ``series``, shape (k, len(x))."""
    x = np.asarray(x, dtype=float)
    ys = np.atleast_2d(np.asarray(series, dtype=float))
    labels = labels or [f"series {i + 1}" for i in range(ys.shape[0])]
    spans = []
    for v in (x, ys):  # a zero range widens by 1, or by 1e-6 of its magnitude where 1 is lost
        lo, hi = float(v.min()), float(v.max())
        if hi - lo < 1e-12:
            pad = max(1.0, 1e-6 * abs(lo))
            lo, hi = lo - pad, hi + pad
        spans += [lo, hi]
    x_lo, x_hi, y_lo, y_hi = spans
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def sx(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return _MT + (y_hi - v) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="13">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        'stroke="#333" stroke-width="1"/>',
    ]
    for tv in _ticks(x_lo, x_hi):
        px = sx(tv)
        parts.append(f'<line x1="{px:.1f}" y1="{_MT}" x2="{px:.1f}" y2="{_MT + ph}" '
                     'stroke="#ddd" stroke-width="0.7"/>')
        parts.append(f'<text x="{px:.1f}" y="{_MT + ph + 18}" text-anchor="middle">'
                     f'{_fmt(tv)}</text>')
    for tv in _ticks(y_lo, y_hi):
        py = sy(tv)
        parts.append(f'<line x1="{_ML}" y1="{py:.1f}" x2="{_ML + pw}" y2="{py:.1f}" '
                     'stroke="#ddd" stroke-width="0.7"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py + 4:.1f}" text-anchor="end">'
                     f'{_fmt(tv)}</text>')
    for idx, pts in enumerate(_polyline_points(sx(x), map(sy, ys))):
        color = _PALETTE[idx % len(_PALETTE)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.6"/>')
        ly = _MT + 16 + 20 * idx
        parts.append(f'<line x1="{_ML + pw + 12}" y1="{ly - 4}" x2="{_ML + pw + 36}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2.5"/>')
        parts.append(f'<text x="{_ML + pw + 42}" y="{ly}">{labels[idx].translate(_ESC)}</text>')
    if title:
        parts.append(f'<text x="{_ML + pw / 2}" y="26" text-anchor="middle" '
                     f'font-size="16">{title.translate(_ESC)}</text>')
    if xlabel:
        parts.append(f'<text x="{_ML + pw / 2}" y="{_H - 14}" text-anchor="middle">'
                     f'{xlabel.translate(_ESC)}</text>')
    if ylabel:
        parts.append(f'<text x="20" y="{_MT + ph / 2}" text-anchor="middle" '
                     f'transform="rotate(-90 20 {_MT + ph / 2})">{ylabel.translate(_ESC)}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:  # no XML declaration: UTF-8
        fh.write("\n".join(parts) + "\n")
