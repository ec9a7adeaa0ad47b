"""Smoke tests: every experiment runs in fast mode and renders its tables.

What the numbers must look like is the ``paper`` bench suite's gate table,
which ``test_bench_suites.py`` exercises on the same ``fast`` sweeps at
full scale — so rendering is checked here on quarter-scale graphs, not by
measuring everything a second time."""

import pytest

from repro.analysis.experiments import ALL_EXPERIMENTS


@pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
def test_experiment_fast_mode(name):
    module = ALL_EXPERIMENTS[name]
    tables = module.run(fast=True, scale=0.25)
    assert tables, f"{name} produced no tables"
    for table in tables:
        rendered = table.render()
        assert rendered
        md = table.render_markdown()
        assert md.count("|") >= 2 or table.title == ""


def test_runner_cli(tmp_path, capsys):
    from repro.analysis.runner import main

    out = tmp_path / "results.txt"
    assert main(["--exp", "table2", "--fast", "-o", str(out)]) == 0
    content = out.read_text()
    assert "Table II" in content


def test_runner_requires_selection():
    from repro.analysis.runner import main

    with pytest.raises(SystemExit):
        main([])


def test_runner_markdown(capsys):
    from repro.analysis.runner import main

    assert main(["--exp", "fig1", "--fast", "--markdown"]) == 0
    out = capsys.readouterr().out
    assert "|" in out


def test_readme_maps_every_claim_to_its_gate_row():
    """README's paper mapping quotes the ``paper`` suite's gate table: each
    row's path + bound and its ``why``, verbatim."""
    from repro.analysis.benchsuite import get_suite
    from tests.helpers import REPO_ROOT

    readme = (REPO_ROOT / "README.md").read_text()
    for gate in get_suite("paper").gates:
        row, why = gate.describe().split(" -- ", 1)
        assert f"| `{row}` | {why} |" in readme, gate.path
