"""Minimal static SVG line plots (axes, polylines, legend). No dependencies."""

__all__ = ["line_panels"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#7f7f7f")

_W, _H = 420, 320
_ML, _MR, _MT, _MB = 55, 15, 30, 45
_TICKS = 5  # per axis


def _ticks(lo, hi):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (_TICKS - 1)
    return [lo + i * step for i in range(_TICKS)]


def _panel_svg(panel, ox, oy):
    title, series = panel["title"], panel["series"]
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(0.0, min(ys_all)), max(1.0, max(ys_all))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def sx(x):
        return ox + _ML + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y):
        return oy + _MT + ph - (y - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<rect x="{ox + _ML}" y="{oy + _MT}" width="{pw}" height="{ph}" '
        'fill="none" stroke="black"/>',
        f'<text x="{ox + _W / 2:.1f}" y="{oy + 18}" text-anchor="middle" '
        f'font-size="13">{title}</text>',
    ]
    for t in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{sx(t):.1f}" y1="{oy + _MT + ph}" '
                     f'x2="{sx(t):.1f}" y2="{oy + _MT + ph + 4}" stroke="black"/>')
        parts.append(f'<text x="{sx(t):.1f}" y="{oy + _MT + ph + 16}" '
                     f'text-anchor="middle" font-size="9">{t:.3g}</text>')
    for t in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{ox + _ML - 4}" y1="{sy(t):.1f}" '
                     f'x2="{ox + _ML}" y2="{sy(t):.1f}" stroke="black"/>')
        parts.append(f'<text x="{ox + _ML - 6}" y="{sy(t) + 3:.1f}" '
                     f'text-anchor="end" font-size="9">{t:.3g}</text>')
    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        ly = oy + _MT + 12 + 12 * i
        parts.append(f'<line x1="{ox + _ML + 8}" y1="{ly - 3}" x2="{ox + _ML + 28}" '
                     f'y2="{ly - 3}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{ox + _ML + 32}" y="{ly}" font-size="9">{label}</text>')
    return parts


def line_panels(panels, path):
    """Write a row of line-plot panels to an SVG file.

    Each panel is {"title": str, "series": [(label, xs, ys), ...]}.
    """
    width = _W * max(len(panels), 1)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{_H}" font-family="sans-serif">',
             f'<rect width="{width}" height="{_H}" fill="white"/>']
    for i, panel in enumerate(panels):
        parts.extend(_panel_svg(panel, i * _W, 0))
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
