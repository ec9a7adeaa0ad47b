"""The paper's tables are views of the ``paper`` bench report.

Every experiment record renders from the committed full-size
``BENCH_paper.json`` and from a fresh ``--quick`` report without measuring
anything, in an order that does not depend on the report's key order; the
runner renders a whole report and fails closed on a bad one.  What the
numbers must look like is the ``paper`` suite's gate table
(``test_bench_suites.py``)."""

import copy
import dataclasses
import json
import re
from importlib import import_module

import pytest

from repro.analysis import experiments, runner
from repro.analysis.experiments import EXPERIMENTS
from tests.helpers import REPO_ROOT

COMMITTED = REPO_ROOT / "BENCH_paper.json"


def _measuring(*args, **kwargs):
    raise AssertionError("a renderer measured")


@pytest.fixture
def no_measuring(monkeypatch):
    """Every ``measure`` and every graph build of the experiments raises."""
    monkeypatch.setattr(experiments, "EXPERIMENTS", tuple(
        dataclasses.replace(exp, measure=_measuring) for exp in EXPERIMENTS))
    for exp in EXPERIMENTS:
        module = import_module(exp.render.__module__)
        for name in ("load_dataset", "rmat", "strong_scaling"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _measuring)


@pytest.fixture(params=["committed", "quick"])
def report(request, quick_report_of):
    if request.param == "committed":
        return json.loads(COMMITTED.read_text())
    return quick_report_of("paper")


def test_every_section_resolves(report):
    for exp in EXPERIMENTS:
        assert isinstance(exp.read(report), dict), exp.section


@pytest.mark.parametrize("exp", EXPERIMENTS, ids=lambda exp: exp.name)
def test_every_record_renders_without_measuring(exp, report, no_measuring):
    tables = exp.render(exp.read(report))
    assert tables, f"{exp.name} rendered no tables"
    for table in tables:
        assert table.rows, table.title
        assert table.render()
        assert table.render_markdown().count("|") >= 2


def test_row_order_does_not_follow_key_order(quick_report_of):
    """The quick report is built in measuring order; its sorted-key JSON
    round trip ("16" before "4", "uniform" last) renders the same text."""
    report = quick_report_of("paper")
    resorted = json.loads(json.dumps(report, sort_keys=True))
    assert runner.render_report(resorted) == runner.render_report(report)
    text = runner.render_report(resorted)
    assert "rmat-s21-ef16: speedup 4 -> 64 nodes" in text
    assert text.index("uniform ") < text.index("rmat-s21-ef16 ")


def test_fig7_note_reads_the_measured_saving(quick_report_of):
    fig7 = copy.deepcopy(quick_report_of("paper")["fig7"])
    fig7["windows"]["C_adj"]["saving_largest"] = 0.25
    exp = next(exp for exp in EXPERIMENTS if exp.name == "fig7")
    note = exp.render(fig7)[-1].render()
    assert "ours saves ~25% at full size" in note


def test_runner_renders_the_committed_report(capsys, no_measuring):
    assert runner.main([str(COMMITTED)]) == 0
    out = capsys.readouterr().out
    headers = re.findall(r"^==== (\S+) ====$", out, flags=re.M)
    assert headers == [exp.name for exp in EXPERIMENTS]
    assert "Table II: graphs" in out


def test_runner_markdown(tmp_path, capsys, no_measuring, quick_report_of):
    path = tmp_path / "BENCH_paper_quick.json"
    path.write_text(json.dumps(quick_report_of("paper"), sort_keys=True))
    assert runner.main([str(path), "--markdown"]) == 0
    assert "| graph | hybrid | ssi |" in capsys.readouterr().out


def _bad_reports(tmp_path):
    missing = tmp_path / "BENCH_paper.json"
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    stale = json.loads(COMMITTED.read_text())
    del stale["scaling"]["fig10"]
    no_section = tmp_path / "stale.json"
    no_section.write_text(json.dumps(stale))
    stale["scaling"]["fig10"] = {}
    empty_section = tmp_path / "empty.json"
    empty_section.write_text(json.dumps(stale))
    stale["scaling"]["fig10"] = {"uk-2005": {}}
    del stale["fig1"]["histogram"]
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps(stale))
    return {missing: "does not exist", tmp_path: "cannot be read",
            garbled: "not valid JSON",
            no_section: "no 'scaling.fig10' section",
            empty_section: "no 'scaling.fig10' section",
            malformed: "'fig1' section does not hold"}


def test_runner_fails_closed(tmp_path, capsys):
    for path, problem in _bad_reports(tmp_path).items():
        assert runner.main([str(path)]) == 2, path
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1, err
        assert err.startswith("runner: error: ") and problem in err, err


def test_readme_maps_every_claim_to_its_gate_row():
    """README's paper mapping quotes the ``paper`` suite's gate table: each
    row's path + bound and its ``why``, verbatim."""
    from repro.analysis.benchsuite import get_suite

    readme = (REPO_ROOT / "README.md").read_text()
    for gate in get_suite("paper").gates:
        row, why = gate.describe().split(" -- ", 1)
        assert f"| `{row}` | {why} |" in readme, gate.path


def test_readme_measured_by_names_real_code():
    """Each "measured by" entry is ``exp_<record>.<function>`` of an
    experiment record's module or ``paper.<function>``."""
    readme = (REPO_ROOT / "README.md").read_text()
    mapping = readme.split("## Mapping to the paper's experiments", 1)[1]
    mapping = mapping.split("\n## ", 1)[0]
    modules = {exp.render.__module__.rsplit(".", 1)[1] for exp in EXPERIMENTS}
    entries = [entry for line in mapping.splitlines()
               if line.startswith("| `") and line.count(" | ") == 2
               for entry in re.findall(r"`([^`]+)`", line.rsplit(" | ", 1)[1])]
    assert len(entries) >= 27
    for entry in entries:
        module, _, name = entry.partition(".")
        if module == "paper":
            assert callable(getattr(import_module("repro.analysis.paper"),
                                    name, None)), entry
        else:
            assert module in modules, entry
            assert callable(getattr(import_module(
                f"repro.analysis.experiments.{module}"), name, None)), entry
