"""The async-serving bench report and its regression gates."""

import copy

import pytest

from repro.analysis.async_serve import SUITE, one_off_async_run
from repro.analysis.benchsuite import evaluate, write_report

#: The burst-throughput floor the gate table declares.
MIN_ASYNC_SPEEDUP = 1.3


@pytest.fixture(scope="module")
def quick_report(quick_report_of):
    return quick_report_of("async")


class TestQuickRun:
    def test_schema_and_gates(self, quick_report):
        for key in SUITE.keys:
            assert key in quick_report
        assert evaluate(SUITE, quick_report) == []

    def test_steady_row(self, quick_report):
        steady = quick_report["steady"]
        assert steady["results_identical"] is True
        assert steady["p99_ratio"] <= 1.1
        assert steady["p99_async_s"] > 0

    def test_burst_row(self, quick_report):
        burst = quick_report["burst"]
        assert burst["results_identical"] is True
        assert burst["throughput_ratio"] >= MIN_ASYNC_SPEEDUP
        assert burst["disjoint_updates"] > 0
        assert burst["async"]["overlap_fraction"] > 0
        assert burst["async"]["max_concurrency"] > 1

    def test_backpressure_row(self, quick_report):
        bp = quick_report["backpressure"]
        assert bp["defer_identical"] is True
        assert bp["shed_deterministic"] is True
        assert bp["rejected_absent_from_digests"] is True
        assert bp["deferred_keep_arrival_accounting"] is True
        assert bp["n_rejected"] > 0
        assert bp["n_deferred"] > 0

    def test_interleavings_row(self, quick_report):
        inter = quick_report["interleavings"]
        assert inter["all_identical"] is True
        assert len(inter["seeds"]) >= 2
        assert set(inter["identical"]) == {str(s) for s in inter["seeds"]}
        assert inter["overlap_fraction_min"] > 0

    def test_write_round_trip(self, quick_report, tmp_path):
        import json

        path = tmp_path / "async.json"
        assert write_report(SUITE, quick_report, str(path)) == []
        loaded = json.loads(path.read_text())
        assert set(loaded) >= set(SUITE.keys)
        assert loaded["burst"]["throughput_ratio"] == pytest.approx(
            quick_report["burst"]["throughput_ratio"])

    def test_headline_fields(self, quick_report):
        headline = SUITE.headline(quick_report)
        assert headline["burst_speedup"] >= MIN_ASYNC_SPEEDUP
        assert headline["interleavings_identical"] is True


class TestGates:
    def test_bit_identity_is_non_negotiable(self, quick_report):
        for scenario in ("steady", "burst"):
            bad = copy.deepcopy(quick_report)
            bad[scenario]["results_identical"] = False
            assert any("diverged" in p for p in evaluate(SUITE, bad))

    def test_p99_ceiling(self, quick_report):
        bad = copy.deepcopy(quick_report)
        bad["steady"]["p99_ratio"] = 2.0
        assert any("ceiling" in p for p in evaluate(SUITE, bad))

    def test_throughput_floor(self, quick_report):
        bad = copy.deepcopy(quick_report)
        bad["burst"]["throughput_ratio"] = 1.0
        assert any("floor" in p for p in evaluate(SUITE, bad))

    def test_overlap_required(self, quick_report):
        """A 'speedup' with no measured overlap is an accounting bug."""
        bad = copy.deepcopy(quick_report)
        bad["burst"]["async"]["overlap_fraction"] = 0.0
        assert any("no overlap" in p for p in evaluate(SUITE, bad))

    def test_backpressure_booleans_required(self, quick_report):
        bad = copy.deepcopy(quick_report)
        bad["backpressure"]["shed_deterministic"] = False
        assert any("shed_deterministic" in p
                   for p in evaluate(SUITE, bad))

    def test_interleaving_battery_required(self, quick_report):
        bad = copy.deepcopy(quick_report)
        bad["interleavings"]["all_identical"] = False
        bad["interleavings"]["identical"]["3"] = False
        assert any("diverged" in p for p in evaluate(SUITE, bad))
        short = copy.deepcopy(quick_report)
        short["interleavings"]["seeds"] = [0]
        assert any("battery" in p for p in evaluate(SUITE, short))

    def test_write_refuses_failing_report(self, quick_report, tmp_path):
        bad = copy.deepcopy(quick_report)
        bad["burst"]["results_identical"] = False
        path = tmp_path / "bad.json"
        assert write_report(SUITE, bad, str(path))
        assert not path.exists()


class TestCommittedBaseline:
    def test_committed_report_passes_its_own_gate(self):
        """The checked-in BENCH_async.json satisfies its gate table."""
        import json
        import os

        path = os.path.join(os.path.dirname(__file__), "..", "..",
                            "BENCH_async.json")
        with open(path) as fh:
            report = json.load(fh)
        assert report["quick"] is False
        assert evaluate(SUITE, report) == []


class TestOneOff:
    def test_one_off_run_fields(self):
        payload = one_off_async_run(n_queries=24, arrival_rate=2000.0,
                                    n_tenants=4, update_mix=0.25,
                                    workers=3, scale=0.2, seed=1)
        assert payload["results_identical"] is True
        assert payload["n_rejected"] == 0
        assert payload["async"]["max_concurrency"] >= 1
        assert payload["serial"]["throughput_qps"] > 0

    def test_one_off_shed_reports_none_identity(self):
        """With requests shed the oracle comparison is meaningless —
        the payload says so instead of comparing unequal sets."""
        payload = one_off_async_run(n_queries=32, arrival_rate=8000.0,
                                    n_tenants=4, update_mix=0.2,
                                    workers=1, max_queue=2,
                                    overflow="shed", arrival_mode="flash",
                                    scale=0.2, seed=2)
        assert payload["n_rejected"] > 0
        assert payload["results_identical"] is None
