"""Shape validation for ``BENCH_*.json`` reports.

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
from typing import Any, List, Mapping, Sequence

__all__ = ["validate_report"]


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


def validate_report(report: Any, keys: Sequence[str] = ()) -> List[str]:
    """One report dict: a positive integer ``schema_version``, every
    required top-level key, finite numbers throughout."""
    if not isinstance(report, Mapping):
        return [f"report is a {type(report).__name__}, not an object"]
    problems: List[str] = []
    version = report.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool) \
            or version < 1:
        problems.append(
            f"schema_version must be a positive integer, got {version!r}")
    problems += [f"report missing key {key!r}"
                 for key in keys if key not in report]
    _check_numbers(report, "report", problems)
    return problems
