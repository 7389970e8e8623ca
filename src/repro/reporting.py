"""Terminal-friendly chart rendering for the experiment outputs.

The paper's artifacts are figures; the benches print tables. This module
adds the figure part: grouped horizontal bar charts and simple scatter
lines rendered in plain ASCII, so ``python -m repro figure fig10``
produces something a reader can *see* without matplotlib (which the
reproduction deliberately avoids as a dependency).
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple

#: bar glyph per series, cycled
_GLYPHS = "#*+o%@=~"


def hbar_chart(series: Mapping[str, Mapping[str, float]],
               title: str = "", width: int = 48,
               unit: str = "%", zero_origin: bool = True) -> str:
    """Grouped horizontal bar chart.

    ``series`` maps series label -> {category: value}; categories are the
    outer grouping (one block per category, one bar per series), which
    matches the per-benchmark grouped bars of the paper's figures.
    """
    categories: List[str] = []
    for values in series.values():
        for cat in values:
            if cat not in categories:
                categories.append(cat)
    all_values = [v for values in series.values() for v in values.values()]
    if not all_values:
        return title
    vmax = max(all_values)
    vmin = min(all_values)
    lo = min(0.0, vmin) if zero_origin else vmin
    hi = max(0.0, vmax) if zero_origin else vmax
    span = (hi - lo) or 1.0

    cat_width = max(len(c) for c in categories)
    label_width = max(len(s) for s in series)
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    for cat in categories:
        lines.append(cat)
        for i, (label, values) in enumerate(series.items()):
            if cat not in values:
                continue
            value = values[cat]
            filled = int(round((value - lo) / span * width))
            bar = _GLYPHS[i % len(_GLYPHS)] * max(0, filled)
            lines.append(f"  {label.ljust(label_width)} |{bar.ljust(width)}|"
                         f" {value:+.2f}{unit}")
    legend = "  ".join(f"{_GLYPHS[i % len(_GLYPHS)]}={label}"
                       for i, label in enumerate(series))
    lines.append("")
    lines.append("legend: " + legend)
    return "\n".join(lines)


def scatter_chart(points: Mapping[str, Sequence[Tuple[float, float]]],
                  title: str = "", width: int = 60, height: int = 16,
                  xlabel: str = "", ylabel: str = "") -> str:
    """ASCII scatter plot with one glyph per series (Figure 15 style)."""
    all_pts = [p for pts in points.values() for p in pts]
    if not all_pts:
        return title
    xs = [p[0] for p in all_pts]
    ys = [p[1] for p in all_pts]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for i, (label, pts) in enumerate(points.items()):
        glyph = _GLYPHS[i % len(_GLYPHS)]
        for x, y in pts:
            col = int((x - xmin) / xspan * (width - 1))
            row = height - 1 - int((y - ymin) / yspan * (height - 1))
            grid[row][col] = glyph

    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    for r, row in enumerate(grid):
        y_val = ymax - r * yspan / (height - 1)
        prefix = f"{y_val:8.2f} |" if r % 4 == 0 else " " * 9 + "|"
        lines.append(prefix + "".join(row))
    lines.append(" " * 9 + "+" + "-" * width)
    lines.append(" " * 10 + f"{xmin:<.0f}".ljust(width - 8)
                 + f"{xmax:>.0f}")
    if xlabel or ylabel:
        lines.append(f"x: {xlabel}   y: {ylabel}")
    legend = "  ".join(f"{_GLYPHS[i % len(_GLYPHS)]}={label}"
                       for i, label in enumerate(points))
    lines.append("legend: " + legend)
    return "\n".join(lines)


def stacked_pct_bar(parts: Mapping[str, float], title: str = "",
                    width: int = 60) -> str:
    """One stacked 100% bar (Figure 1 style top-down breakdown)."""
    total = sum(parts.values()) or 1.0
    lines: List[str] = []
    if title:
        lines.append(title)
    bar = ""
    for i, (label, value) in enumerate(parts.items()):
        chars = int(round(value / total * width))
        bar += _GLYPHS[i % len(_GLYPHS)] * chars
    lines.append("|" + bar[:width].ljust(width) + "|")
    for i, (label, value) in enumerate(parts.items()):
        lines.append(f"  {_GLYPHS[i % len(_GLYPHS)]} {label}: "
                     f"{value / total:.1%}")
    return "\n".join(lines)
