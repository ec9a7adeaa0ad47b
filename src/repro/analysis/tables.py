"""Monospace table rendering for experiment output.

The experiments print in the paper's format (e.g. Table III's
edges-per-microsecond columns) plus a ``paper`` column where the original
reports a comparable number, so shape deviations are visible at a glance.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence


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
        lines.append(_md_row(self.headers))
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        lines += [_md_row(row) for row in self.rows]
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def in_order(declared: Iterable[Any], section: Mapping[str, Any]) -> list[str]:
    """The keys of ``section`` that ``declared`` names, in declared order:
    a report is written with sorted keys ("uniform" last), so a table's
    row order comes from its experiment's lists, not from the report (a
    numeric key sorts as a number: ``sorted(section, key=int)``)."""
    return [key for key in map(str, declared) if key in section]


def _md_row(cells: Sequence[str]) -> str:
    # An unescaped "|" in a cell (Table II's "paper |V|") would split it.
    return "| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |"


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)
