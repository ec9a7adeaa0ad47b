"""One bench/gate harness, declared as data (``repro bench <suite>``).

Every committed ``BENCH_<suite>.json`` is produced and guarded by one
:class:`BenchSuite`: a name, a ``run(quick) -> report`` function, the
report's required top-level keys, a **gate table** of :class:`Gate` rows,
a trajectory headline and a summary printer.  Everything else — the
evaluator, the report writer, the baseline loader, the trajectory
appender and the CLI driver — exists once, here, and reads the table.

A gate row is ``report[path] <op> bound``: ``path`` is a dotted key path
whose ``*`` matches every key of a mapping (graph names differ between
``--quick`` CI runs and the committed full-size baselines, so rows are
never matched by name).  A key the path names but the report lacks, and a
``*`` that matches nothing, are violations — a vacuous report never
passes.  With a baseline (``--check``) a row's ``rel`` additionally
requires the worst matched value to stay above that fraction of the
baseline's worst value.
"""

from __future__ import annotations

import datetime
import json
import operator
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from importlib import import_module
from typing import (
    Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence,
)

from repro.analysis.schema import (
    trajectory_row_problems,
    validate_report,
    validate_trajectory,
)

#: ``schema_version`` of every report and of the trajectory file.
SCHEMA_VERSION = 1

#: Fraction of the baseline's worst value a relative row must retain.
#: Deliberately loose: baselines are recorded on full-size graphs while CI
#: measures ``--quick`` sizes on noisy shared runners — the relative
#: clause catches a fast path silently degrading to loop speed, not 10%
#: wall-clock jitter.
REL_TOLERANCE = 0.25

#: The cross-PR perf history; every accepted run appends one dated row.
TRAJECTORY_FILE = "BENCH_trajectory.json"

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
class Quick:
    """A bound that depends on the report's size: ``full`` vs ``--quick``."""

    full: float
    quick: float


@dataclass(frozen=True)
class Sibling:
    """A bound read from another key of the same row."""

    key: str


@dataclass(frozen=True)
class Gate:
    """One row of a suite's gate table (see the module docstring).

    ``bound`` is a constant (for ``in``, an open ``(low, high)`` interval),
    a :class:`Quick` pair or a :class:`Sibling` key; ``None`` means the row
    has no absolute clause (only ``rel``).
    ``skip`` names keys a ``*`` must not match (sections that mix
    per-graph rows with one differently-shaped row).
    """

    path: str
    op: str
    bound: Any
    why: str
    #: With a baseline: the minimum over the ``*`` matches must stay at or
    #: above ``rel`` x the baseline's minimum over its own matches.
    rel: Optional[float] = None
    #: With a baseline the ``rel`` clause replaces the absolute one.
    rel_waives_bound: bool = False
    skip: tuple = ()

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown gate op {self.op!r}")
        if self.rel is not None and not 0 < self.rel <= 1:
            raise ValueError(
                f"relative tolerance must be in (0, 1], got {self.rel}")
        if self.bound is None and self.rel is None:
            raise ValueError(f"gate {self.path!r} has neither bound nor rel")

    def describe(self) -> str:
        """The row as ``--list`` prints it."""
        clauses = []
        if self.bound is not None:
            bound = self.bound
            if isinstance(bound, Quick):
                bound = f"{bound.full} ({bound.quick} with --quick)"
            elif isinstance(bound, Sibling):
                bound = bound.key
            clauses.append(f"{self.op} {bound}")
        if self.rel is not None:
            clauses.append(f">= {self.rel:.0%} of baseline"
                           + (" instead, under --check"
                              if self.rel_waives_bound else ""))
        return f"{self.path} {', '.join(clauses)} -- {self.why}"


@dataclass(frozen=True)
class BenchSuite:
    """One gated benchmark, as data."""

    name: str
    #: What the suite proves, one sentence per gate family (``--list``).
    doc: str
    run: Callable[[bool], dict]
    keys: tuple
    gates: tuple
    #: ``report -> {field: value}``: the suite's trajectory headline.
    headline: Callable[[Mapping], dict]
    #: ``report -> lines`` printed after a run.
    summary: Callable[[Mapping], list]

    @property
    def baseline_file(self) -> str:
        return f"BENCH_{self.name}.json"

    def report_file(self, quick: bool) -> str:
        """Where a fresh report lands: never the baseline under ``--quick``."""
        return f"BENCH_{self.name}_quick.json" if quick else self.baseline_file

    @property
    def reads_baseline(self) -> bool:
        return any(g.rel is not None for g in self.gates)


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


def _show(value: Any) -> str:
    if value is _MISSING:
        return "nothing recorded"
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, list) and value:
        return f"{len(value)} entries, first: {value[0]}"
    return repr(value)


def _worst(matches: Iterable[tuple]) -> Optional[float]:
    """The minimum numeric value a row matched (``None``: matched none)."""
    return min((value for _, _, value in matches
                if isinstance(value, (int, float))
                and not isinstance(value, bool)), default=None)


def _relative(suite: BenchSuite, gate: Gate, matches: Sequence[tuple],
              baseline: Mapping) -> Iterator[str]:
    parts = gate.path.split(".")
    floor = _worst(_resolve(baseline, parts, gate.skip))
    if floor is None:
        yield (f"baseline has no {parts[0]} section (is --check pointed "
               f"at a {suite.baseline_file}?)")
        return
    fresh, threshold = _worst(matches), gate.rel * floor
    if fresh is None:
        yield (f"{gate.path}: the baseline records {floor:.2f}x but the "
               "fresh report has no number to hold to it")
    elif fresh < threshold:
        yield (f"{gate.path}: {fresh:.2f}x fell below {threshold:.2f}x "
               f"({gate.rel:.0%} of the baseline's {floor:.2f}x)")


def violations(suite: BenchSuite, report: Mapping,
               baseline: Optional[Mapping] = None) -> Iterator[tuple]:
    """``(gate, problem)`` for every row of the table ``report`` violates.

    ``baseline=None`` evaluates the absolute clauses only (what a report
    must satisfy to be recorded); with a baseline (``--check``) the
    relative clauses apply on top.
    """
    quick = bool(report.get("quick"))
    for gate in suite.gates:
        matches = list(_resolve(report, gate.path.split("."), gate.skip))
        absolute = gate.bound is not None and not (
            gate.rel_waives_bound and baseline is not None)
        for path, parent, value in matches:
            bound = gate.bound
            if isinstance(bound, Quick):
                bound = bound.quick if quick else bound.full
            elif isinstance(bound, Sibling):
                bound = (_MISSING if parent is None
                         else parent.get(bound.key, _MISSING))
            try:
                ok = (value is not _MISSING and bound is not _MISSING
                      and (not absolute or _OPS[gate.op](value, bound)))
            except TypeError:
                ok = False
            if not ok:
                need = f", need {gate.op} {_show(bound)}" if absolute else ""
                yield gate, (f"{'.'.join(path)}: {gate.why} "
                             f"(got {_show(value)}{need})")
        if gate.rel is not None and baseline is not None:
            for problem in _relative(suite, gate, matches, baseline):
                yield gate, problem


def evaluate(suite: BenchSuite, report: Any,
             baseline: Optional[Mapping] = None) -> list:
    """Every problem with ``report``, one line each (empty = it passes):
    schema (required keys, finite numbers) first, then the gate table."""
    problems = validate_report(report, suite.keys)
    if isinstance(report, Mapping):
        problems += [p for _, p in violations(suite, report, baseline)]
    return problems


# ---------------------------------------------------------------------------
# Reports, baselines, trajectory
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


def write_report(suite: BenchSuite, report: Mapping, path: str,
                 baseline: Optional[Mapping] = None) -> list:
    """Gate, then write: returns the problems and writes only when there
    are none, so a failing run never replaces a committed report."""
    problems = evaluate(suite, report, baseline)
    if not problems:
        _write_json(report, path)
    return problems


def load_baseline(path: str) -> dict:
    """Read a ``--check`` baseline, failing with a one-line ``SystemExit``.

    A missing, unparseable or malformed baseline is an operator mistake
    (wrong ``--dir``, corrupt checkout), not a bug.  Baselines may be
    partial — the gates only read the sections they compare — but
    whatever is present must be well-formed.
    """
    try:
        with open(path) as fh:
            report = json.load(fh)
    except FileNotFoundError:
        raise SystemExit(
            f"--check baseline {path!r} does not exist; point --dir at "
            "the directory holding the committed reports") from None
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"--check baseline {path!r} is not valid JSON ({exc}); "
            "restore it from version control") from None
    problems = validate_report(report, strict=False)
    if problems:
        more = f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""
        raise SystemExit(
            f"--check baseline {path!r} fails schema validation: "
            f"{problems[0]}{more}; restore it from version control")
    return report


def _source_commit() -> Optional[str]:
    """Short hash of the checkout this package runs from (None outside one)."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], capture_output=True,
            text=True, timeout=10, cwd=os.path.dirname(os.path.abspath(__file__)))
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def trajectory_row(suite: BenchSuite, report: Mapping, *,
                   date: Optional[str] = None) -> dict:
    """Condense one report into its dated, commit-stamped trajectory row."""
    return {
        "date": date or datetime.date.today().isoformat(),
        "kind": suite.name,
        "commit": _source_commit(),
        "quick": bool(report.get("quick", False)),
        **suite.headline(report),
    }


def append_trajectory(row: Mapping, path: str) -> None:
    """Append one row to the trajectory file (created on first use).

    Rows are append-only: every accepted run leaves its data point
    behind chronologically.
    """
    problems = trajectory_row_problems(row)
    if problems:
        raise ValueError(
            f"refusing to append a malformed trajectory row: {problems[0]}")
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {"schema_version": SCHEMA_VERSION, "rows": []}
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path} is corrupt ({exc}); repair or delete it to restart "
            "the trajectory") from None
    if not isinstance(data, dict) or not isinstance(data.get("rows"), list):
        raise ValueError(
            f"{path} is not a trajectory file (expected a 'rows' list)")
    data["rows"].append(dict(row))
    _write_json(data, path)


def validate_file(path: str) -> list:
    """Load and validate one benchmark artifact by what its name claims:
    ``BENCH_trajectory.json`` as the trajectory, ``BENCH_<suite>.json``
    against that suite's required keys, anything else kind-agnostically."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return [f"{path}: does not exist"]
    except json.JSONDecodeError as exc:
        return [f"{path}: not valid JSON ({exc})"]
    name = os.path.basename(path)
    stem = re.match(r"^BENCH_([a-z]+)\.json$", name)
    if name == TRAJECTORY_FILE:
        problems = validate_trajectory(data)
    elif stem and stem.group(1) in _SUITE_MODULES:
        problems = validate_report(data, get_suite(stem.group(1)).keys)
    else:
        problems = validate_report(data)
    return [f"{path}: {p}" for p in problems]


# ---------------------------------------------------------------------------
# The driver (``repro bench``)
# ---------------------------------------------------------------------------

def list_lines() -> list:
    """``repro bench --list``: the suite table, then every gate row."""
    lines = ["| suite | baseline | gates |", "|---|---|---|"]
    suites = [get_suite(name) for name in SUITE_NAMES]
    lines += [f"| `{s.name}` | `{s.baseline_file}` | {s.doc} |"
              for s in suites]
    for suite in suites:
        lines += ["", f"{suite.name}:"]
        lines += [f"  {gate.describe()}" for gate in suite.gates]
    return lines


def run_suites(names: Sequence[str], *, quick: bool = False,
               check: bool = False, directory: str = ".",
               trajectory: bool = True) -> int:
    """Run, gate and record each named suite; the process exit code.

    Baselines are read before anything runs or is written: a full-size
    ``--check`` run writes to the very file it is gated against.  A suite
    that fails any row prints one line per problem, writes no report and
    appends no trajectory row; the remaining suites still run.
    """
    suites = [get_suite(name) for name in names]
    baselines = {
        s.name: load_baseline(os.path.join(directory, s.baseline_file))
        for s in suites if check and s.reads_baseline}
    failed = []
    for suite in suites:
        report = suite.run(quick)
        for line in suite.summary(report):
            print(line)
        path = os.path.join(directory, suite.report_file(quick))
        problems = write_report(suite, report, path,
                                baselines.get(suite.name))
        if problems:
            for problem in problems:
                print(f"{suite.name} gate: {problem}", file=sys.stderr)
            print(f"{suite.name} gate FAILED; nothing written",
                  file=sys.stderr)
            failed.append(suite.name)
            continue
        against = (f" against baseline {suite.baseline_file}"
                   if suite.name in baselines else "")
        print(f"{suite.name} gate OK{against}; report written to {path}",
              file=sys.stderr)
        if trajectory:
            append_trajectory(trajectory_row(suite, report),
                              os.path.join(directory, TRAJECTORY_FILE))
    if failed:
        print(f"bench FAILED: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0
