"""Minimal self-contained SVG line charts (no plotting dependency).

CSV files are the authoritative outputs; these charts exist so results can
be eyeballed in a browser on a headless box.
"""

import math

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
WIDTH, HEIGHT = 640, 420


def _log_ticks(lo, hi):
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(lo_e, hi_e + 1) if lo <= 10.0 ** e <= hi]


def _linear_ticks(lo, hi):
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / 4)) if span > 0 else 1.0
    for mult in (5, 2, 1):
        if span / (step * mult) >= 3:
            step *= mult
            break
    t0 = math.ceil(lo / step) * step
    out = []
    while t0 <= hi + 1e-12 * abs(step):
        out.append(t0)
        t0 += step
    return out


class LineChart:
    """One WIDTH x HEIGHT panel with a log x axis and a linear y axis:
    add_line() then render() to an SVG string."""

    def __init__(self, title="", xlabel="", ylabel=""):
        self.title, self.xlabel, self.ylabel = title, xlabel, ylabel
        self.lines = []

    def add_line(self, x, y, label="", dashed=False):
        pts = [(float(a), float(b)) for a, b in zip(x, y)
               if not (math.isnan(b) or math.isinf(b))]
        self.lines.append((pts, label, dashed))

    def _range(self, axis):
        vals = [p[axis] for pts, _, _ in self.lines for p in pts]
        if axis == 0:  # log x: positive values only, no margin
            vals = [v for v in vals if v > 0]
        lo, hi = min(vals), max(vals)
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        if axis == 1:
            margin = 0.05 * (hi - lo)
            lo, hi = lo - margin, hi + margin
        return lo, hi

    def render(self):
        ml, mr, mt, mb = 70, 20, 30, 50
        pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb
        xlo, xhi = self._range(0)
        ylo, yhi = self._range(1)

        def sx(v):
            return ml + pw * (math.log10(v) - math.log10(xlo)) / \
                (math.log10(xhi) - math.log10(xlo))

        def sy(v):
            return mt + ph * (1 - (v - ylo) / (yhi - ylo))

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" font-family="sans-serif" font-size="12">',
            f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
            'fill="white" stroke="black"/>',
            f'<text x="{ml + pw / 2}" y="18" text-anchor="middle" '
            f'font-size="14">{self.title}</text>',
            f'<text x="{ml + pw / 2}" y="{HEIGHT - 10}" '
            f'text-anchor="middle">{self.xlabel}</text>',
            f'<text x="16" y="{mt + ph / 2}" text-anchor="middle" '
            f'transform="rotate(-90 16 {mt + ph / 2})">{self.ylabel}</text>',
        ]
        for tv in _log_ticks(xlo, xhi):
            x = sx(tv)
            parts.append(f'<line x1="{x:.1f}" y1="{mt + ph}" x2="{x:.1f}" '
                         f'y2="{mt + ph + 4}" stroke="black"/>')
            parts.append(f'<text x="{x:.1f}" y="{mt + ph + 17}" '
                         f'text-anchor="middle">{tv:g}</text>')
        for tv in _linear_ticks(ylo, yhi):
            y = sy(tv)
            parts.append(f'<line x1="{ml - 4}" y1="{y:.1f}" x2="{ml}" '
                         f'y2="{y:.1f}" stroke="black"/>')
            parts.append(f'<text x="{ml - 7}" y="{y + 4:.1f}" '
                         f'text-anchor="end">{tv:g}</text>')
        for i, (pts, label, dashed) in enumerate(self.lines):
            color = _COLORS[i % len(_COLORS)]
            path = " ".join(f"{sx(px):.1f},{sy(py):.1f}" for px, py in pts
                            if px > 0)
            dash = ' stroke-dasharray="6,4"' if dashed else ""
            parts.append(f'<polyline points="{path}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"{dash}/>')
            if label:
                y = mt + 16 + 16 * i
                parts.append(f'<line x1="{ml + pw - 130}" y1="{y - 4}" '
                             f'x2="{ml + pw - 105}" y2="{y - 4}" '
                             f'stroke="{color}" stroke-width="1.5"{dash}/>')
                parts.append(f'<text x="{ml + pw - 100}" y="{y}">{label}</text>')
        parts.append("</svg>")
        return "\n".join(parts)


def panel_grid(charts):
    """Stack rendered charts into one SVG document, two panels a row, each
    chart's own <svg> nested in a translated group."""
    ncols = 2
    if not charts:
        return '<svg xmlns="http://www.w3.org/2000/svg"/>'
    nrows = (len(charts) + ncols - 1) // ncols
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{ncols * WIDTH}" '
             f'height="{nrows * HEIGHT}">']
    for i, chart in enumerate(charts):
        x, y = (i % ncols) * WIDTH, (i // ncols) * HEIGHT
        parts.append(f'<g transform="translate({x},{y})">{chart.render()}</g>')
    parts.append("</svg>")
    return "\n".join(parts)
