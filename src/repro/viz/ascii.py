"""ASCII rendering of the paper's figures.

The benchmark harness prints the same *shapes* the paper plots: the
tuple-id-versus-output-time scatter of Figures 5/6 and the grouped
execution-time bars of Figure 7.  Pure text, no plotting dependency --
the output goes straight into test logs and the reproduction report.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

__all__ = ["scatter", "grouped_bars", "series_summary"]


def scatter(
    series: Mapping[str, Sequence[tuple[float, float]]],
    *,
    width: int = 72,
    height: int = 20,
    title: str = "",
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render named point series on one character grid.

    Each series gets the first letter of its name as its mark; collisions
    show the later series' mark.  Axis ranges cover all series jointly.
    """
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return f"{title}\n(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for name, pts in series.items():
        mark = name[0].upper() if name else "?"
        for x, y in pts:
            col = min(width - 1, int((x - x_lo) / x_span * (width - 1)))
            row = min(height - 1, int((y - y_lo) / y_span * (height - 1)))
            grid[height - 1 - row][col] = mark
    lines = []
    if title:
        lines.append(title)
    legend = "   ".join(f"{name[0].upper()} = {name}" for name in series)
    lines.append(legend)
    lines.append(f"{y_label} (top={y_hi:g})")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(
        f" {x_label}: {x_lo:g} .. {x_hi:g}"
    )
    return "\n".join(lines)


def grouped_bars(
    groups: Mapping[str, Mapping[str, float]],
    *,
    width: int = 50,
    title: str = "",
    value_format: str = "{:.1f}",
) -> str:
    """Render grouped horizontal bars: {group: {series: value}}.

    Used for Figure 7: groups are feedback frequencies, series are the
    schemes F0-F3.
    """
    all_values = [v for row in groups.values() for v in row.values()]
    if not all_values:
        return f"{title}\n(no data)"
    peak = max(all_values) or 1.0
    label_width = max(
        (len(str(series)) for row in groups.values() for series in row),
        default=4,
    )
    lines = []
    if title:
        lines.append(title)
    for group, row in groups.items():
        lines.append(f"{group}:")
        for series, value in row.items():
            bar = "#" * max(1, int(value / peak * width))
            rendered = value_format.format(value)
            lines.append(
                f"  {str(series):<{label_width}} |{bar:<{width}} {rendered}"
            )
    return "\n".join(lines)


def series_summary(
    series: Iterable[tuple[float, float]], *, name: str = "series"
) -> str:
    """One-line numeric digest of a point series (for logs)."""
    pts = list(series)
    if not pts:
        return f"{name}: empty"
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return (
        f"{name}: n={len(pts)}, x∈[{min(xs):g}, {max(xs):g}], "
        f"y∈[{min(ys):g}, {max(ys):g}]"
    )
