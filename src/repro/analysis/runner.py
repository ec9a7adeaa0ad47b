"""Render the paper's tables and figures from a ``paper`` bench report.

Usage::

    python -m repro.analysis.runner [REPORT] [--markdown]

``REPORT`` defaults to ``BENCH_paper.json``; ``python -m repro bench paper
[--quick]`` writes one.  Nothing is measured here: each table is an
:data:`~repro.analysis.experiments.EXPERIMENTS` record's ``render`` of its
section.  A missing or malformed report is one ``runner: error:`` line,
exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Mapping

from repro.analysis import experiments
from repro.analysis.benchsuite import validate_file


class ReportError(Exception):
    """The report cannot be rendered (one line, naming what is wrong)."""


def load_report(path: str) -> dict:
    """``path``'s report: valid as :func:`validate_file` checks it, with a
    non-empty section for every experiment."""
    problems = validate_file(path)
    if not problems:
        with open(path) as fh:
            report = json.load(fh)
        problems = [f"{path}: no '{exp.section}' section for {exp.name} "
                    "(write one with `python -m repro bench paper`)"
                    for exp in experiments.EXPERIMENTS
                    if not (isinstance(section := exp.read(report), Mapping)
                            and section)]
    if problems:
        raise ReportError("; ".join(problems))
    return report


def render_report(report: Mapping[str, Any], markdown: bool = False) -> str:
    """Every experiment's tables, in :data:`EXPERIMENTS` order, each record
    under a ``==== name ====`` header."""
    lines = []
    for exp in experiments.EXPERIMENTS:
        try:
            tables = exp.render(exp.read(report))
        except (LookupError, TypeError, ValueError) as exc:
            raise ReportError(f"the '{exp.section}' section does not hold "
                              f"{exp.name}'s numbers ({exc!r})") from None
        lines.append(f"==== {exp.name} ====")
        for table in tables:
            lines += [table.render_markdown() if markdown else table.render(),
                      ""]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.runner",
        description="Render the paper's tables and figures from a "
                    "`repro bench paper` report (measures nothing).")
    parser.add_argument("report", nargs="?", default="BENCH_paper.json",
                        help="the report to render (default: %(default)s)")
    parser.add_argument("--markdown", action="store_true",
                        help="emit markdown tables")
    args = parser.parse_args(argv)
    try:
        text = render_report(load_report(args.report), args.markdown)
    except ReportError as exc:
        print(f"runner: error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
