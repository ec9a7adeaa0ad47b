"""The recorded serving benchmark and its gate (BENCH_serve.json)."""

import copy
import json

import pytest

from repro.analysis.benchsuite import evaluate, write_report
from repro.analysis.serving import SUITE


@pytest.fixture(scope="module")
def report(quick_report_of):
    return quick_report_of("serve")


class TestServingBench:
    def test_report_shape(self, report):
        for key in SUITE.keys:
            assert key in report
        assert set(report["workloads"]) == {"zipf", "uniform"}
        for row in report["workloads"].values():
            assert set(row["schedulers"]) == {"fifo", "affinity"}
            for agg in row["schedulers"].values():
                assert agg["throughput_qps"] > 0
                assert agg["n_queries"] == row["n_queries"]

    def test_parity_and_zipf_win(self, report):
        """The committed report's contract, exercised on quick sizes."""
        for row in report["workloads"].values():
            assert row["results_identical"] is True
        assert report["workloads"]["zipf"]["throughput_ratio"] > 1.0

    def test_gate_passes_on_fresh_report(self, report):
        assert evaluate(SUITE, report) == []

    def test_gate_catches_parity_breaks(self, report):
        broken = copy.deepcopy(report)
        broken["workloads"]["zipf"]["results_identical"] = False
        assert any("not proven identical" in p
                   for p in evaluate(SUITE, broken))

    def test_gate_rejects_vacuous_reports(self, report):
        """Dropping the comparison fields must fail, not pass silently."""
        vacuous = copy.deepcopy(report)
        del vacuous["workloads"]["zipf"]["results_identical"]
        del vacuous["workloads"]["zipf"]["throughput_ratio"]
        problems = evaluate(SUITE, vacuous)
        assert any("not proven identical" in p for p in problems)
        assert any("throughput_ratio" in p and "nothing recorded" in p
                   for p in problems)

    def test_gate_requires_both_workloads(self, report):
        partial = copy.deepcopy(report)
        del partial["workloads"]["uniform"]
        assert any("workloads.uniform" in p and "must be recorded" in p
                   for p in evaluate(SUITE, partial))

    def test_gate_catches_affinity_losing(self, report):
        broken = copy.deepcopy(report)
        broken["workloads"]["zipf"]["throughput_ratio"] = 0.9
        assert any("must beat FIFO" in p for p in evaluate(SUITE, broken))

    def test_gate_catches_missing_keys(self):
        assert any("missing key" in p for p in evaluate(SUITE, {}))

    def test_write_round_trip(self, report, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        assert write_report(SUITE, report, str(path)) == []
        assert json.loads(path.read_text())["workloads"]["zipf"][
            "results_identical"] is True

    def test_write_refuses_failing_report(self, report, tmp_path):
        broken = copy.deepcopy(report)
        broken["workloads"]["zipf"]["throughput_ratio"] = 0.5
        path = tmp_path / "x.json"
        assert any("beat FIFO" in p
                   for p in write_report(SUITE, broken, str(path)))
        assert not path.exists()


class TestCommittedReport:
    def test_committed_bench_serve_passes_the_gate(self):
        from pathlib import Path
        committed = Path(__file__).resolve().parents[2] / "BENCH_serve.json"
        report = json.loads(committed.read_text())
        assert evaluate(SUITE, report) == []
        assert report["quick"] is False
