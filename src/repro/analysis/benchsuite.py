"""One bench/gate harness, declared as data (``repro bench <suite>``).

Every committed ``BENCH_<suite>.json`` is produced and guarded by one
:class:`BenchSuite`: a name, a ``run(quick) -> report`` function, the
report's required top-level keys, a **gate table** of :class:`Gate` rows
and a headline.  Everything else — the evaluator, the report writer, the
one gate-table renderer and the ``repro bench`` command — exists once,
here, and reads the table.

A gate row is ``report[path] <op> bound``: ``path`` is a dotted key path
whose ``*`` matches every key of a mapping (graph names differ between
``--quick`` CI runs and the committed full-size reports, so rows are
never matched by name).  A key the path names but the report lacks, and a
``*`` that matches nothing, are violations — a vacuous report never
passes.  Every row reads a deterministic value — a bit-identity, a count,
a simulated-clock ratio — so a report's verdict does not depend on the
machine that measured it.  Wall-clock measurements stay in the reports
and the headlines as recorded numbers; wall time is gated by the ledger
(``BENCHMARK.json``), not here.
"""

from __future__ import annotations

import json
import operator
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.analysis.schema import validate_report

#: ``schema_version`` of every report.
SCHEMA_VERSION = 1

_MISSING = object()

_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "is": operator.is_,
    "==": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
    "<=": operator.le,
    "<": operator.lt,
    "in": lambda value, bound: bound[0] < value < bound[1],
    "len>=": lambda value, bound: len(value) >= bound,
    "len==": lambda value, bound: len(value) == bound,
}


@dataclass(frozen=True)
class Sibling:
    """A bound read from another key of the same row."""

    key: str


@dataclass(frozen=True)
class Gate:
    """One row of a suite's gate table (see the module docstring).

    ``bound`` is a constant (for ``in``, an open ``(low, high)`` interval)
    or a :class:`Sibling` key.  ``skip`` names keys a ``*`` must not match
    (sections that mix per-graph rows with one differently-shaped row).
    """

    path: str
    op: str
    bound: Any
    why: str
    skip: tuple = ()

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown gate op {self.op!r}")

    def describe(self) -> str:
        """The row as ``--list`` prints it."""
        bound = (self.bound.key if isinstance(self.bound, Sibling)
                 else self.bound)
        return f"{self.path} {self.op} {bound} -- {self.why}"


@dataclass(frozen=True)
class BenchSuite:
    """One gated benchmark, as data."""

    name: str
    #: What the suite proves, one sentence per gate family (``--list``).
    doc: str
    run: Callable[[bool], dict]
    keys: tuple
    gates: tuple
    #: ``report -> {field: value}``: the suite's headline, printed in the
    #: header of its gate table.
    headline: Callable[[Mapping], dict]

    @property
    def committed_file(self) -> str:
        return f"BENCH_{self.name}.json"

    def report_file(self, quick: bool) -> str:
        """Where a fresh report lands: never the committed one under ``--quick``."""
        return f"BENCH_{self.name}_quick.json" if quick else self.committed_file


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

#: Suite name (the ``BENCH_<name>.json`` stem) -> module declaring its
#: ``SUITE``.  Modules import on first use, so validating one report never
#: imports every benchmark's dependencies.
_SUITE_MODULES = {
    "kernels": "benchreport",
    "serve": "serving",
    "dynamic": "dynamic",
    "store": "store",
    "shard": "shard",
    "async": "async_serve",
    "paper": "paper",
    "trace": "tracing",
}

SUITE_NAMES = tuple(_SUITE_MODULES)


def get_suite(name: str) -> BenchSuite:
    try:
        module = _SUITE_MODULES[name]
    except KeyError:
        raise ValueError(
            f"unknown bench suite {name!r}; expected one of "
            f"{', '.join(SUITE_NAMES)}") from None
    return import_module(f"repro.analysis.{module}").SUITE


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------

def _resolve(node: Any, parts: Sequence[str], skip: tuple,
             at: tuple = ()) -> Iterator[tuple]:
    """``(path, parent, value)`` per match of ``parts`` under ``node``;
    one ``_MISSING`` value where a key is absent or a ``*`` matches nothing."""
    head, rest = parts[0], parts[1:]
    keys: list = []
    if isinstance(node, Mapping):
        keys = ([k for k in node if k not in skip] if head == "*"
                else [head] if head in node else [])
    if not keys:
        yield at + tuple(parts), None, _MISSING
    for key in keys:
        if rest:
            yield from _resolve(node[key], rest, skip, at + (key,))
        else:
            yield at + (key,), node, node[key]


def matched(gate: Gate, report: Mapping) -> list:
    """Every value of ``report`` the row reads (its ``*`` expanded)."""
    return [value for _, _, value
            in _resolve(report, gate.path.split("."), gate.skip)
            if value is not _MISSING]


def _brief(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, Mapping):
        return "{" + ", ".join(f"{k} {_brief(v)}"
                               for k, v in value.items()) + "}"
    if isinstance(value, list):
        return f"{len(value)} entries"
    return str(value)


def _show(value: Any) -> str:
    """:func:`_brief`, naming what a problem line needs to be acted on."""
    if value is _MISSING:
        return "nothing recorded"
    if isinstance(value, list) and value:
        return f"{len(value)} entries, first: {value[0]}"
    return _brief(value)


def violations(suite: BenchSuite, report: Mapping) -> Iterator[tuple]:
    """``(gate, problem)`` for every row of the table ``report`` violates."""
    for gate in suite.gates:
        for path, parent, value in _resolve(report, gate.path.split("."),
                                            gate.skip):
            bound = gate.bound
            if isinstance(bound, Sibling):
                bound = (_MISSING if parent is None
                         else parent.get(bound.key, _MISSING))
            try:
                ok = (value is not _MISSING and bound is not _MISSING
                      and _OPS[gate.op](value, bound))
            except TypeError:
                ok = False
            if not ok:
                yield gate, (f"{'.'.join(path)}: {gate.why} "
                             f"(got {_show(value)}, need {gate.op} "
                             f"{_show(bound)})")


def evaluate(suite: BenchSuite, report: Any) -> list:
    """Every problem with ``report``, one line each (empty = it passes):
    schema (required keys, finite numbers) first, then the gate table."""
    problems = validate_report(report, suite.keys)
    if isinstance(report, Mapping):
        problems += [p for _, p in violations(suite, report)]
    return problems


def summary_lines(suite: BenchSuite, report: Mapping) -> list:
    """The suite's gate table as measured, one markdown line per row:
    verdict, the value(s) the row read, and the row itself."""
    failed = {gate for gate, _ in violations(suite, report)}
    held = len(suite.gates) - len(failed)
    try:
        headline = ", ".join(f"{k} {_brief(v)}"
                             for k, v in suite.headline(report).items())
    except (KeyError, TypeError, ValueError):
        headline = "no headline (incomplete report)"
    lines = [f"| {suite.name} | measured | {held}/{len(suite.gates)} rows "
             f"hold; {headline} |", "|---|---|---|"]
    for gate in suite.gates:
        values = matched(gate, report)
        numeric = all(isinstance(v, (int, float))
                      and not isinstance(v, bool) for v in values)
        shown = ([_brief(v) for v in sorted({min(values), max(values)})]
                 if values and numeric
                 else dict.fromkeys(_brief(v) for v in values))
        span = (" .. " if numeric else " / ").join(shown) \
            or "nothing recorded"
        rows = f" ({len(values)} rows)" if len(values) > 1 else ""
        lines.append(f"| {'FAIL' if gate in failed else 'PASS'} | "
                     f"{span}{rows} | {gate.describe()} |")
    return lines


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _write_json(data: Any, path: str) -> None:
    """Write-temp-then-rename: an interrupted run never truncates a file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=".bench-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_report(suite: BenchSuite, report: Mapping, path: str) -> list:
    """Gate, then write: returns the problems and writes only when there
    are none, so a failing run never replaces a committed report."""
    problems = evaluate(suite, report)
    if not problems:
        _write_json(report, path)
    return problems


def validate_file(path: str) -> list:
    """Load and validate one benchmark report by what its name claims:
    ``BENCH_<suite>.json`` and ``BENCH_<suite>_quick.json`` against that
    suite's required keys, anything else kind-agnostically."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return [f"{path}: does not exist"]
    except OSError as exc:
        return [f"{path}: cannot be read ({exc.strerror})"]
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        return [f"{path}: not valid JSON ({exc})"]
    name = os.path.basename(path)
    stem = re.match(r"^BENCH_([a-z]+)(?:_quick)?\.json$", name)
    if stem and stem.group(1) in _SUITE_MODULES:
        problems = validate_report(data, get_suite(stem.group(1)).keys)
    else:
        problems = validate_report(data)
    return [f"{path}: {p}" for p in problems]


# ---------------------------------------------------------------------------
# The driver (``repro bench``)
# ---------------------------------------------------------------------------

def list_lines() -> list:
    """``repro bench --list``: the suite table, then every gate row."""
    lines = ["| suite | committed report | gates |", "|---|---|---|"]
    suites = [get_suite(name) for name in SUITE_NAMES]
    lines += [f"| `{s.name}` | `{s.committed_file}` | {s.doc} |"
              for s in suites]
    for suite in suites:
        lines += ["", f"{suite.name}:"]
        lines += [f"  {gate.describe()}" for gate in suite.gates]
    return lines


def run_suites(names: Sequence[str], *, quick: bool = False,
               directory: str = ".") -> int:
    """Run, gate and record each named suite; the process exit code.

    Every suite prints its gate table as measured.  A suite that fails any
    row also prints one line per problem and writes no report; the
    remaining suites still run.
    """
    failed = []
    for suite in (get_suite(name) for name in names):
        report = suite.run(quick)
        for line in summary_lines(suite, report):
            print(line)
        path = os.path.join(directory, suite.report_file(quick))
        problems = write_report(suite, report, path)
        if problems:
            for problem in problems:
                print(f"{suite.name} gate: {problem}", file=sys.stderr)
            print(f"{suite.name} gate FAILED; nothing written",
                  file=sys.stderr)
            failed.append(suite.name)
            continue
        print(f"{suite.name} gate OK; report written to {path}",
              file=sys.stderr)
    if failed:
        print(f"bench FAILED: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0
