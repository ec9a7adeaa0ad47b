"""Every suite's gate table, row by row.

The tables are data, so the test is too: for each row of each suite,
push a passing report just past that row's bound and assert that row —
and only that row — fires.
"""

import copy
import json

import pytest

from repro.analysis.benchsuite import (
    SUITE_NAMES,
    Quick,
    Sibling,
    evaluate,
    get_suite,
    list_lines,
    violations,
)
from tests.helpers import REPO_ROOT, with_nominal_overhead

#: Suites with a committed full-size report at the repo root.
COMMITTED = tuple(n for n in SUITE_NAMES if n != "trace")

ROWS = [pytest.param(name, i, id=f"{name}-{gate.path}")
        for name in SUITE_NAMES
        for i, gate in enumerate(get_suite(name).gates)]


@pytest.fixture(scope="module")
def passing_report(quick_report_of):
    """A report that passes its suite's table, also against itself.

    Real quick runs — except ``trace``, whose measured ``overhead_ratio``
    is a wall-clock ratio of sub-second runs that a loaded machine can
    push past its ceiling; it is doctored to a nominal value (CI's ``bench
    all --quick --check`` gates the real thing; its other rows stay
    measured).
    """
    def get(name):
        if name == "trace":
            return with_nominal_overhead(quick_report_of(name))
        return quick_report_of(name)
    return get


def _first_match(report, gate):
    """(parent mapping, leaf key) of the row's first match in ``report``."""
    node, parts = report, gate.path.split(".")
    for part in parts[:-1]:
        key = (next(k for k in node if k not in gate.skip)
               if part == "*" else part)
        node = node[key]
    leaf = next(iter(node)) if parts[-1] == "*" else parts[-1]
    return node, leaf


def _just_past(gate, parent, leaf, quick):
    """A value for ``parent[leaf]`` that barely violates the row."""
    bound = gate.bound
    if isinstance(bound, Quick):
        bound = bound.quick if quick else bound.full
    elif isinstance(bound, Sibling):
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


def _fired(suite, report, baseline):
    return {gate for gate, _ in violations(suite, report, baseline)}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_passing_report_passes(name, passing_report):
    suite, report = get_suite(name), passing_report(name)
    assert evaluate(suite, report) == []
    assert evaluate(suite, report, report) == []


@pytest.mark.parametrize("name,index", ROWS)
def test_each_row_fires_alone_just_past_its_bound(name, index,
                                                  passing_report):
    suite = get_suite(name)
    gate = suite.gates[index]
    report = copy.deepcopy(passing_report(name))
    if gate.bound is not None:
        parent, leaf = _first_match(report, gate)
        parent[leaf] = _just_past(gate, parent, leaf, report["quick"])
        assert _fired(suite, report, None) == {gate}
    if gate.rel is not None:
        # Relative clause: the same report against a 1000x better baseline.
        report = copy.deepcopy(passing_report(name))
        baseline = copy.deepcopy(report)
        parts = gate.path.split(".")
        section = baseline[parts[0]]
        for row in (section.values() if "*" in parts else [section]):
            row[parts[-1]] *= 1000
        assert _fired(suite, report, baseline) == {gate}
        problems = evaluate(suite, report, baseline)
        assert problems and all("fell below" in p for p in problems)


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
    assert gate in _fired(suite, report, None)


@pytest.mark.parametrize("name", COMMITTED)
def test_committed_report_passes_its_own_table(name):
    suite = get_suite(name)
    report = json.loads((REPO_ROOT / suite.baseline_file).read_text())
    assert report["quick"] is False
    assert evaluate(suite, report) == []
    assert evaluate(suite, report, report) == []


def test_readme_table_is_the_list_output():
    """README's suite table is `repro bench --list`'s, line for line."""
    readme = (REPO_ROOT / "README.md").read_text()
    table = [line for line in list_lines() if line.startswith("|")]
    assert len(table) == 2 + len(SUITE_NAMES)
    for line in table:
        assert line in readme, line
