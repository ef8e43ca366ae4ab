"""Minimal SVG line charts, no plotting dependency.

Deliberately bare: one polyline per series, axes, and min/max tick labels.
The charts exist for eyeballing trends in metric logs, nothing more.
"""

__all__ = ["line_chart"]

_WIDTH, _HEIGHT = 640, 400
_MARGIN = 56


def _escape(text):
    """XML-escape chart text. Same as xml.sax.saxutils.escape, whose import
    pulls in urllib.request and ssl: about 7 MiB of RSS in every process
    that imports the CLI."""
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span == 0:
        return [(out_lo + out_hi) / 2.0 for _ in values]
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def line_chart(path, xs, series, title, x_label, y_label):
    """Write an SVG line chart.

    series is a mapping from legend name to a list of y values aligned
    with xs.
    """
    xs = [float(x) for x in xs]
    all_y = [float(y) for ys in series.values() for y in ys]
    if not xs or not all_y:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y), max(all_y)
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    left, right = _MARGIN, _WIDTH - 16
    top, bottom = 28, _HEIGHT - _MARGIN
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2}" y="18" text-anchor="middle" font-size="14">{_escape(title)}</text>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>',
        f'<text x="{left}" y="{bottom + 16}" text-anchor="middle">{x_lo:g}</text>',
        f'<text x="{right}" y="{bottom + 16}" text-anchor="middle">{x_hi:g}</text>',
        f'<text x="{left - 6}" y="{bottom + 4}" text-anchor="end">{y_lo:.4g}</text>',
        f'<text x="{left - 6}" y="{top + 4}" text-anchor="end">{y_hi:.4g}</text>',
        f'<text x="{(left + right) / 2}" y="{_HEIGHT - 10}" text-anchor="middle">{_escape(x_label)}</text>',
        f'<text x="14" y="{(top + bottom) / 2}" text-anchor="middle" '
        f'transform="rotate(-90 14 {(top + bottom) / 2})">{_escape(y_label)}</text>',
    ]
    px = _scale(xs, x_lo, x_hi, left, right)
    for i, (name, ys) in enumerate(series.items()):
        color = colors[i % len(colors)]
        py = _scale([float(y) for y in ys], y_lo, y_hi, bottom, top)
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        parts.append(
            f'<text x="{right - 4}" y="{top + 14 + 14 * i}" text-anchor="end" fill="{color}">{_escape(name)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
