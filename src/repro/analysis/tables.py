"""Monospace table rendering for experiment output.

The experiments print in the paper's format (e.g. Table III's
edges-per-microsecond columns) plus a ``paper`` column where the original
reports a comparable number, so shape deviations are visible at a glance.
"""

from __future__ import annotations

from typing import Any, Sequence


class Table:
    """A small fixed-width table builder."""

    def __init__(self, headers: Sequence[str], title: str = ""):
        self.title = title
        self.headers = [str(h) for h in headers]
        self.rows: list[list[str]] = []

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(cells)}"
            )
        self.rows.append([_fmt(c) for c in cells])

    # -- rendering ------------------------------------------------------------
    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def render_markdown(self) -> str:
        lines = []
        if self.title:
            lines.append(f"**{self.title}**")
            lines.append("")
        lines.append("| " + " | ".join(self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def print_tables(tables: Sequence[Table]) -> None:
    """Print each table and a blank line: what an experiment module does
    when run as a script."""
    for table in tables:
        print(table.render())
        print()


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_speedup(base: float, value: float) -> str:
    """Render 'value is N x faster than base' (paper annotation style)."""
    if value <= 0:
        return "inf"
    return f"{base / value:.1f}x"
