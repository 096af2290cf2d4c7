"""Plain-text rendering for tables and figures.

The benchmark harness prints the same rows/series the paper reports;
these helpers keep that output aligned and diff-friendly.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned ASCII table."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError(
                f"row has {len(row)} cells, expected {columns}: {row!r}"
            )
    cells = [[str(value) for value in row] for row in rows]
    widths = [
        max(len(headers[index]), *(len(row[index]) for row in cells))
        if cells
        else len(headers[index])
        for index in range(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = " | ".join(
        headers[index].ljust(widths[index]) for index in range(columns)
    )
    lines.append(header_line)
    lines.append("-+-".join("-" * width for width in widths))
    for row in cells:
        lines.append(
            " | ".join(
                row[index].ljust(widths[index]) for index in range(columns)
            )
        )
    return "\n".join(lines)


def render_bar_chart(
    series: Dict[str, float],
    title: str = "",
    width: int = 40,
    unit: str = "%",
) -> str:
    """Render a horizontal bar chart (one bar per key)."""
    lines: List[str] = []
    if title:
        lines.append(title)
    if not series:
        lines.append("(no data)")
        return "\n".join(lines)
    peak = max(series.values()) or 1.0
    label_width = max(len(key) for key in series)
    for key, value in series.items():
        bar = "#" * max(1, int(round(width * value / peak))) if value else ""
        lines.append(
            f"{key.ljust(label_width)} | {bar} {value:.2f}{unit}"
        )
    return "\n".join(lines)


def render_stacked_shares(
    rows: Dict[str, Dict[str, int]],
    order: Sequence[str],
    title: str = "",
    width: int = 50,
) -> str:
    """Render per-row stacked category proportions (Figure 2 style).

    ``rows`` maps a label to {category: count}; ``order`` fixes the
    category ordering; each row is normalized to ``width`` characters.
    """
    glyphs = {"correct": "c", "protective": "p", "unknown": "?", "malicious": "M"}
    lines: List[str] = []
    if title:
        lines.append(title)
    if not rows:
        lines.append("(no data)")
        return "\n".join(lines)
    label_width = max(len(label) for label in rows)
    for label, counts in rows.items():
        total = sum(counts.get(category, 0) for category in order)
        if total == 0:
            lines.append(f"{label.ljust(label_width)} | (no URs)")
            continue
        bar = ""
        for category in order:
            share = counts.get(category, 0) / total
            bar += glyphs.get(category, "?") * int(round(width * share))
        lines.append(
            f"{label.ljust(label_width)} | {bar[:width].ljust(width)} "
            f"n={total}"
        )
    legend = ", ".join(
        f"{glyphs.get(category, '?')}={category}" for category in order
    )
    lines.append(f"({legend})")
    return "\n".join(lines)


def format_count_with_pct(count: int, pct: float) -> str:
    return f"{count:,} ({pct:.2f}%)"
