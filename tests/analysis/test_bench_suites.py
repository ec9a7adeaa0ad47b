"""Every suite's gate table, row by row.

The tables are data, so the test is too: for each row of each suite,
push a passing report just past that row's bound and assert that row —
and only that row — fires, in the evaluator and in the printed table.
"""

import copy
import json

import pytest

from repro.analysis.benchsuite import (
    SUITE_NAMES,
    Sibling,
    evaluate,
    get_suite,
    list_lines,
    summary_lines,
    violations,
)
from tests.helpers import REPO_ROOT

#: Suites with a committed full-size report at the repo root.
COMMITTED = tuple(n for n in SUITE_NAMES if n != "trace")

ROWS = [pytest.param(name, i, id=f"{name}-{gate.path}")
        for name in SUITE_NAMES
        for i, gate in enumerate(get_suite(name).gates)]


@pytest.fixture(scope="module")
def passing_report(quick_report_of):
    """Every suite's real quick report: it passes its table as measured."""
    return quick_report_of


def _first_match(report, gate):
    """(parent mapping, leaf key) of the row's first match in ``report``."""
    node, parts = report, gate.path.split(".")
    for part in parts[:-1]:
        key = (next(k for k in node if k not in gate.skip)
               if part == "*" else part)
        node = node[key]
    leaf = next(iter(node)) if parts[-1] == "*" else parts[-1]
    return node, leaf


def _just_past(gate, parent, leaf):
    """A value for ``parent[leaf]`` that barely violates the row."""
    bound = gate.bound
    if isinstance(bound, Sibling):
        bound = parent[bound.key]
    step = 1 if isinstance(bound, int) and not isinstance(bound, bool) \
        else 0.01
    return {
        "is": lambda: not bound,
        "==": lambda: bound + 1,
        ">=": lambda: bound - step,
        ">": lambda: bound,
        "<=": lambda: bound + step,
        "<": lambda: bound,
        "in": lambda: bound[1],
        "len>=": lambda: parent[leaf][:bound - 1],
        "len==": lambda: ["one entry too many"],
    }[gate.op]()


def _at_edge(gate, parent, leaf):
    """The value for ``parent[leaf]`` nearest the bound that still holds."""
    bound = gate.bound
    if isinstance(bound, Sibling):
        bound = parent[bound.key]
    step = 1 if isinstance(bound, int) and not isinstance(bound, bool) \
        else 0.01
    return {
        "is": lambda: bound,
        "==": lambda: bound,
        ">=": lambda: bound,
        ">": lambda: bound + step,
        "<=": lambda: bound,
        "<": lambda: bound - step,
        "in": lambda: (bound[0] + bound[1]) / 2,
        "len>=": lambda: parent[leaf][:bound],
        "len==": lambda: parent[leaf][:bound],
    }[gate.op]()


def _fired(suite, report):
    return {gate for gate, _ in violations(suite, report)}


def _verdicts(suite, report):
    """The PASS/FAIL column of the printed table, one entry per row."""
    lines = summary_lines(suite, report)
    assert lines[0].startswith(f"| {suite.name} | measured | ")
    assert lines[1] == "|---|---|---|"
    rows = lines[2:]
    assert len(rows) == len(suite.gates)
    for line, gate in zip(rows, suite.gates):
        assert line.endswith(f" | {gate.describe()} |"), line
    return [line.split(" | ")[0].lstrip("| ") for line in rows]


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_passing_report_passes(name, passing_report):
    suite, report = get_suite(name), passing_report(name)
    assert evaluate(suite, report) == []
    assert _verdicts(suite, report) == ["PASS"] * len(suite.gates)
    n = len(suite.gates)
    assert f" | {n}/{n} rows hold; " in summary_lines(suite, report)[0]


@pytest.mark.parametrize("name,index", ROWS)
def test_each_row_fires_alone_just_past_its_bound(name, index,
                                                  passing_report):
    suite = get_suite(name)
    gate = suite.gates[index]
    report = copy.deepcopy(passing_report(name))
    parent, leaf = _first_match(report, gate)
    parent[leaf] = _just_past(gate, parent, leaf)
    assert _fired(suite, report) == {gate}
    verdicts = _verdicts(suite, report)
    assert verdicts[index] == "FAIL"
    assert verdicts.count("FAIL") == 1


@pytest.mark.parametrize("name,index", ROWS)
def test_each_row_holds_at_the_edge_of_its_bound(name, index,
                                                 passing_report):
    """The other side of "just past": the tightest passing value holds,
    so each row's op and bound are exactly the declared ones."""
    suite = get_suite(name)
    gate = suite.gates[index]
    report = copy.deepcopy(passing_report(name))
    parent, leaf = _first_match(report, gate)
    parent[leaf] = _at_edge(gate, parent, leaf)
    assert _fired(suite, report) == set()
    assert _verdicts(suite, report) == ["PASS"] * len(suite.gates)


@pytest.mark.parametrize("name,index", ROWS)
def test_a_report_missing_the_rows_key_never_passes(name, index,
                                                    passing_report):
    suite = get_suite(name)
    gate = suite.gates[index]
    report = copy.deepcopy(passing_report(name))
    parent, leaf = _first_match(report, gate)
    if gate.path.endswith("*"):
        parent.clear()  # a `*` that matches nothing
    else:
        del parent[leaf]
    assert gate in _fired(suite, report)
    # The table still renders (headline or not), that row failing.
    assert _verdicts(suite, report)[index] == "FAIL"


@pytest.mark.parametrize("name", COMMITTED)
def test_committed_report_passes_its_own_table(name):
    suite = get_suite(name)
    report = json.loads((REPO_ROOT / suite.committed_file).read_text())
    assert report["quick"] is False
    assert evaluate(suite, report) == []


def test_readme_table_is_the_list_output():
    """README's suite table is `repro bench --list`'s, line for line."""
    readme = (REPO_ROOT / "README.md").read_text()
    table = [line for line in list_lines() if line.startswith("|")]
    assert len(table) == 2 + len(SUITE_NAMES)
    for line in table:
        assert line in readme, line
