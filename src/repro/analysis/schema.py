"""Shape validation for ``BENCH_*.json`` reports and trajectory rows.

The *read-side* check: a report that was hand-edited,
truncated by a bad merge, or written by a different repo fails with a
one-line problem string instead of a ``KeyError`` three stacks deep.

Validators return lists of one-line problem strings (empty = valid)
rather than raising, so callers decide between a ``SystemExit`` (CLI)
and an assertion (tests).  What a given report must contain is its
suite's business (:mod:`repro.analysis.benchsuite`); this module only
knows shapes.
"""

from __future__ import annotations

import math
import re
from typing import Any, List, Mapping, Optional, Sequence

__all__ = [
    "trajectory_row_problems",
    "validate_report",
    "validate_trajectory",
]

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_COMMIT_RE = re.compile(r"^[0-9a-f]{4,40}$")


def _check_numbers(node: Any, path: str, problems: List[str]) -> None:
    """Every number in the tree must be finite (JSON can't carry NaN)."""
    if isinstance(node, Mapping):
        for k, v in node.items():
            _check_numbers(v, f"{path}.{k}", problems)
    elif isinstance(node, (list, tuple)):
        for i, v in enumerate(node):
            _check_numbers(v, f"{path}[{i}]", problems)
    elif isinstance(node, float) and not math.isfinite(node):
        problems.append(f"non-finite number at {path}: {node}")


def _check_version(data: Mapping, problems: List[str]) -> None:
    version = data.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool) \
            or version < 1:
        problems.append(
            f"schema_version must be a positive integer, got {version!r}")


def validate_report(report: Any, keys: Sequence[str] = ()) -> List[str]:
    """One report dict: a positive integer ``schema_version``, every
    required top-level key, finite numbers throughout."""
    if not isinstance(report, Mapping):
        return [f"report is a {type(report).__name__}, not an object"]
    problems: List[str] = []
    _check_version(report, problems)
    problems += [f"report missing key {key!r}"
                 for key in keys if key not in report]
    _check_numbers(report, "report", problems)
    return problems


def trajectory_row_problems(row: Any, index: Optional[int] = None
                            ) -> List[str]:
    """One trajectory row: dated, tagged with its suite, finite.

    ``commit`` (the source's git hash) is ``null`` outside a checkout and
    absent from rows older than the field.
    """
    where = "row" if index is None else f"row {index}"
    if not isinstance(row, Mapping):
        return [f"{where} is a {type(row).__name__}, not an object"]
    problems: List[str] = []
    date = row.get("date")
    if not isinstance(date, str) or not _DATE_RE.match(date):
        problems.append(
            f"{where}: 'date' must be an ISO date string, got {date!r}")
    kind = row.get("kind")
    if not isinstance(kind, str) or not kind:
        problems.append(
            f"{where}: 'kind' must name the row's suite, got {kind!r}")
    commit = row.get("commit")
    if commit is not None and not (isinstance(commit, str)
                                   and _COMMIT_RE.match(commit)):
        problems.append(
            f"{where}: 'commit' must be a git hash or null, got {commit!r}")
    if not any(k not in ("date", "kind", "commit", "quick") for k in row):
        problems.append(f"{where}: carries no measurements")
    _check_numbers(row, where, problems)
    return problems


def validate_trajectory(data: Any) -> List[str]:
    """A whole ``BENCH_trajectory.json`` document."""
    if not isinstance(data, Mapping):
        return [f"trajectory is a {type(data).__name__}, not an object"]
    problems: List[str] = []
    _check_version(data, problems)
    rows = data.get("rows")
    if not isinstance(rows, list):
        problems.append(
            f"'rows' must be a list, got {type(rows).__name__}")
        return problems
    for i, row in enumerate(rows):
        problems.extend(trajectory_row_problems(row, i))
    return problems
