"""The ``repro trace`` command and the ``trace`` bench suite."""

import json

import pytest

from repro.analysis.benchsuite import evaluate
from repro.analysis.tracing import (
    SUITE,
    check_traced_run,
    one_off_trace_run,
)
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


def test_one_off_writes_replayable_artifacts(tmp_path):
    journal_path = str(tmp_path / "journal.jsonl")
    trace_path = str(tmp_path / "trace.json")
    payload = one_off_trace_run(journal_path=journal_path,
                                trace_path=trace_path, quick=True)
    assert payload["replay"]["ok"], payload["replay"]["problems"]
    assert payload["span_problems"] == []
    # The written journal round-trips and matches the in-memory digest.
    journal = DecisionJournal.load(journal_path)
    assert journal.digest() == payload["journal_digest"]
    assert len(journal) == payload["n_events"]
    # Replay works from the serialized form too.
    from repro.analysis.tracing import trace_workload

    _, requests, _ = trace_workload(quick=True)
    assert replay_journal(journal, requests).ok
    doc = json.loads(open(trace_path).read())
    assert doc["traceEvents"]
    # Domains in the utilization report include shard-set fences.
    assert any("[" in key for key in payload["utilization"]["domains"])


def test_cli_trace_one_off(tmp_path, capsys):
    journal = str(tmp_path / "j.jsonl")
    trace = str(tmp_path / "t.json")
    rc = main(["trace", "--quick", "--json",
               "--journal", journal, "--trace", trace])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["replay"]["ok"] is True
    assert json.loads(open(trace).read())["traceEvents"]


def test_cli_trace_interleave_scheduler(tmp_path, capsys):
    rc = main(["trace", "--quick", "--json", "--scheduler", "interleave",
               "--seed", "3",
               "--journal", str(tmp_path / "j.jsonl"),
               "--trace", str(tmp_path / "t.json")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scheduler"] == "interleave"
    assert payload["replay"]["ok"] is True


def test_cli_trace_check_rejects_customization(tmp_path):
    """The gate is `repro bench trace`: it takes no workload flags, and
    `repro trace` no longer has a gate mode to customize."""
    with pytest.raises(SystemExit) as exc:
        main(["bench", "trace", "--quick", "--scheduler", "interleave"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--quick", "--check"])
    assert exc.value.code == 2


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
