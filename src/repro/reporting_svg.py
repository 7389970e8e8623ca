"""SVG figure rendering — dependency-free vector charts.

The ASCII charts in :mod:`repro.reporting` are for terminals; this module
writes the same figures as standalone SVG files (hand-assembled markup,
no matplotlib) so `benchmarks/output/` contains paper-style artifacts a
browser can display. Supported shapes cover everything the paper's
evaluation needs: grouped vertical bars (Figs. 3/10/11/12/13/16), line
series (Fig. 14), and scatter (Fig. 15).
"""

from __future__ import annotations

import html
from typing import List, Mapping, Optional, Sequence, Tuple

#: categorical palette (color-blind-safe-ish, no external deps)
PALETTE = ("#4878d0", "#ee854a", "#6acc64", "#d65f5f",
           "#956cb4", "#8c613c", "#dc7ec0", "#797979")

_FONT = 'font-family="Helvetica,Arial,sans-serif"'


def _esc(text: str) -> str:
    return html.escape(str(text), quote=True)


def _axis_ticks(lo: float, hi: float, n: int = 5) -> List[float]:
    """Round-ish tick positions covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(1, n - 1)
    mag = 10 ** int(f"{raw:e}".split("e")[1])
    step = max(mag, round(raw / mag) * mag)
    first = int(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 0.5:
        if t >= lo - step * 0.5:
            ticks.append(round(t, 10))
        t += step
    return ticks or [lo, hi]


class SVGCanvas:
    """Minimal SVG assembly helper."""

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self._parts: List[str] = []

    def rect(self, x, y, w, h, fill, opacity=1.0) -> None:
        """Add a rectangle."""
        self._parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" '
            f'height="{h:.1f}" fill="{fill}" opacity="{opacity}"/>')

    def line(self, x1, y1, x2, y2, stroke="#999", width=1.0) -> None:
        """Add a line segment."""
        self._parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" '
            f'y2="{y2:.1f}" stroke="{stroke}" stroke-width="{width}"/>')

    def circle(self, cx, cy, r, fill) -> None:
        """Add a circle marker."""
        self._parts.append(
            f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="{r:.1f}" '
            f'fill="{fill}"/>')

    def polyline(self, points: Sequence[Tuple[float, float]],
                 stroke: str, width: float = 2.0) -> None:
        """Add an unfilled polyline through the points."""
        pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
        self._parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"/>')

    def text(self, x, y, content, size=11, anchor="start", fill="#222",
             rotate: Optional[float] = None) -> None:
        """Add a text label."""
        transform = (f' transform="rotate({rotate} {x:.1f} {y:.1f})"'
                     if rotate is not None else "")
        self._parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" {_FONT} '
            f'text-anchor="{anchor}" fill="{fill}"{transform}>'
            f'{_esc(content)}</text>')

    def render(self) -> str:
        """Serialize the full SVG document."""
        body = "\n".join(self._parts)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'width="{self.width}" height="{self.height}" '
                f'viewBox="0 0 {self.width} {self.height}">\n'
                f'<rect width="100%" height="100%" fill="white"/>\n'
                f"{body}\n</svg>\n")


def grouped_bar_svg(series: Mapping[str, Mapping[str, float]],
                    title: str = "", ylabel: str = "% speedup",
                    width: int = 960, height: int = 360) -> str:
    """Grouped vertical bars: one group per category, one bar per series.

    Matches the paper's per-benchmark grouped-bar figures.
    """
    categories: List[str] = []
    for values in series.values():
        for cat in values:
            if cat not in categories:
                categories.append(cat)
    if not categories:
        return SVGCanvas(width, height).render()

    all_vals = [v for values in series.values() for v in values.values()]
    lo = min(0.0, min(all_vals))
    hi = max(0.0, max(all_vals))
    ticks = _axis_ticks(lo, hi)
    lo, hi = min(ticks[0], lo), max(ticks[-1], hi)
    span = (hi - lo) or 1.0

    left, right, top, bottom = 56, 12, 34, 86
    plot_w = width - left - right
    plot_h = height - top - bottom
    y_of = lambda v: top + plot_h * (1 - (v - lo) / span)

    svg = SVGCanvas(width, height)
    if title:
        svg.text(width / 2, 18, title, size=14, anchor="middle")
    # gridlines + y labels
    for t in ticks:
        y = y_of(t)
        svg.line(left, y, width - right, y, stroke="#e5e5e5")
        svg.text(left - 6, y + 4, f"{t:g}", size=10, anchor="end",
                 fill="#555")
    svg.text(14, top + plot_h / 2, ylabel, size=11, anchor="middle",
             rotate=-90)

    group_w = plot_w / len(categories)
    bar_w = max(2.0, group_w * 0.8 / max(1, len(series)))
    for ci, cat in enumerate(categories):
        gx = left + ci * group_w
        for si, (label, values) in enumerate(series.items()):
            if cat not in values:
                continue
            v = values[cat]
            x = gx + group_w * 0.1 + si * bar_w
            y0, y1 = y_of(max(0.0, v)), y_of(min(0.0, v))
            svg.rect(x, y0, bar_w * 0.92, max(0.5, y1 - y0),
                     PALETTE[si % len(PALETTE)])
        svg.text(gx + group_w / 2, height - bottom + 14, cat, size=10,
                 anchor="end", rotate=-35)
    svg.line(left, y_of(0), width - right, y_of(0), stroke="#333",
             width=1.2)
    # legend
    lx = left
    ly = height - 18
    for si, label in enumerate(series):
        svg.rect(lx, ly - 9, 10, 10, PALETTE[si % len(PALETTE)])
        svg.text(lx + 14, ly, label, size=10)
        lx += 18 + 7 * len(label)
    return svg.render()


def line_svg(series: Mapping[str, Sequence[Tuple[float, float]]],
             title: str = "", xlabel: str = "", ylabel: str = "",
             width: int = 720, height: int = 400,
             markers: bool = True) -> str:
    """Line/scatter chart: one polyline (and markers) per series."""
    all_pts = [p for pts in series.values() for p in pts]
    if not all_pts:
        return SVGCanvas(width, height).render()
    xs = [p[0] for p in all_pts]
    ys = [p[1] for p in all_pts]
    xt = _axis_ticks(min(xs), max(xs))
    yt = _axis_ticks(min(0.0, min(ys)), max(ys))
    xlo, xhi = min(xt[0], min(xs)), max(xt[-1], max(xs))
    ylo, yhi = min(yt[0], min(ys)), max(yt[-1], max(ys))
    xspan = (xhi - xlo) or 1.0
    yspan = (yhi - ylo) or 1.0

    left, right, top, bottom = 60, 16, 34, 64
    plot_w = width - left - right
    plot_h = height - top - bottom
    x_of = lambda v: left + plot_w * (v - xlo) / xspan
    y_of = lambda v: top + plot_h * (1 - (v - ylo) / yspan)

    svg = SVGCanvas(width, height)
    if title:
        svg.text(width / 2, 18, title, size=14, anchor="middle")
    for t in yt:
        svg.line(left, y_of(t), width - right, y_of(t), stroke="#e5e5e5")
        svg.text(left - 6, y_of(t) + 4, f"{t:g}", size=10, anchor="end",
                 fill="#555")
    for t in xt:
        svg.line(x_of(t), top, x_of(t), height - bottom, stroke="#f0f0f0")
        svg.text(x_of(t), height - bottom + 16, f"{t:g}", size=10,
                 anchor="middle", fill="#555")
    svg.text(width / 2, height - 34, xlabel, size=11, anchor="middle")
    svg.text(16, top + plot_h / 2, ylabel, size=11, anchor="middle",
             rotate=-90)

    for si, (label, pts) in enumerate(series.items()):
        color = PALETTE[si % len(PALETTE)]
        ordered = sorted(pts)
        svg.polyline([(x_of(x), y_of(y)) for x, y in ordered], color)
        if markers:
            for x, y in ordered:
                svg.circle(x_of(x), y_of(y), 3.2, color)
    lx = left
    ly = height - 10
    for si, label in enumerate(series):
        svg.rect(lx, ly - 9, 10, 10, PALETTE[si % len(PALETTE)])
        svg.text(lx + 14, ly, label, size=10)
        lx += 18 + 7 * len(label)
    return svg.render()
