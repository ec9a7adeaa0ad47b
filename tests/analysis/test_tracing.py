"""The ``trace`` bench suite and the artifacts ``repro bench trace`` leaves."""

import json

import pytest

from repro.analysis.benchsuite import evaluate
from repro.analysis.tracing import SUITE, check_traced_run, trace_workload
from repro.cli import main
from repro.obs.journal import DecisionJournal, replay_journal


@pytest.fixture(scope="module")
def check_report(quick_report_of):
    return quick_report_of("trace")


def test_check_report_shape_and_verdict(check_report):
    for key in SUITE.keys:
        assert key in check_report, key
    assert evaluate(SUITE, check_report) == []
    assert check_report["problems"] == [] and check_report["ok"] is True
    assert check_report["digests_identical"] is True
    assert check_report["journal_deterministic"] is True
    assert check_report["replay"]["ok"] is True
    assert check_report["span_problems"] == []
    # Tracing's wall-clock cost is recorded, never gated.
    assert check_report["overhead_ratio"] > 0.0
    assert not any(gate.path == "overhead_ratio" for gate in SUITE.gates)
    json.dumps(check_report)


def test_bench_trace_leaves_replayable_artifacts(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "trace", "--quick", "--dir", str(tmp_path)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "BENCH_trace_quick.json").read_text())
    # The written journal round-trips to the report's digest.
    journal = DecisionJournal.load(str(tmp_path / "TRACE_journal.jsonl"))
    assert journal.digest() == report["journal_digest"]
    assert len(journal) == report["n_events"]
    # Replay works from the serialized form too.
    _, requests, _ = trace_workload(quick=True)
    assert replay_journal(journal, requests).ok
    doc = json.loads((tmp_path / "TRACE_events.json").read_text())
    assert doc["traceEvents"]


def test_check_flags_artifact_problems(tmp_path, monkeypatch):
    bad = tmp_path / "BENCH_async.json"
    bad.write_text("{broken")
    monkeypatch.chdir(tmp_path)
    report = check_traced_run(quick=True, repeats=1)
    assert not report["ok"]
    assert any("artifact schema" in p for p in report["problems"])
    # The gate run leaves the CI artifacts behind.
    assert (tmp_path / "TRACE_journal.jsonl").exists()
    assert json.loads((tmp_path / "TRACE_events.json").read_text())[
        "traceEvents"]
