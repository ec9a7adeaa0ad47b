"""The dynamic-graph bench report and its regression gates."""

import copy
import json

import pytest

from repro.analysis.benchsuite import (
    REL_TOLERANCE,
    Gate,
    evaluate,
    write_report,
)
from repro.analysis.dynamic import SUITE


@pytest.fixture(scope="module")
def quick_report(quick_report_of):
    return quick_report_of("dynamic")


class TestQuickRun:
    def test_schema_and_gates(self, quick_report):
        for key in SUITE.keys:
            assert key in quick_report
        assert evaluate(SUITE, quick_report) == []

    def test_incremental_rows(self, quick_report):
        assert quick_report["incremental"]
        for row in quick_report["incremental"].values():
            assert row["bit_identical"] is True
            assert row["speedup"] > 0
            assert 0 < row["n_affected"] < row["n_vertices"]

    def test_invalidation_rows(self, quick_report):
        for row in quick_report["invalidation"].values():
            assert row["post_update_bit_identical"] is True
            assert row["retained_warm_hits"] > 0
            assert row["invalidated_entries"] > 0
            assert row["retained_entries"] > 0
            # Retention ordering: warm > post-update > cold hit rates.
            assert (row["warm_hit_rate"] > row["post_update_hit_rate"]
                    > row["cold_hit_rate"])

    def test_serving_row(self, quick_report):
        srv = quick_report["serving"]
        assert srv["results_identical"] is True
        assert srv["n_updates"] > 0
        assert set(srv["schedulers"]) == {"fifo", "affinity"}

    def test_write_round_trip(self, quick_report, tmp_path):
        path = tmp_path / "BENCH_dynamic.json"
        assert write_report(SUITE, quick_report, str(path)) == []
        assert json.loads(path.read_text())["quick"] is True

    def test_passes_against_committed_baseline(self, quick_report):
        with open("BENCH_dynamic.json") as fh:
            baseline = json.load(fh)
        assert evaluate(SUITE, quick_report, baseline) == []


class TestGateClauses:
    def doctor(self, report, section, graph, **changes):
        doctored = copy.deepcopy(report)
        doctored[section][graph].update(changes)
        return doctored

    def test_bit_identity_is_non_negotiable(self, quick_report):
        gname = next(iter(quick_report["incremental"]))
        bad = self.doctor(quick_report, "incremental", gname,
                          bit_identical=False)
        assert any("bit-identical" in p for p in evaluate(SUITE, bad))
        # Even the tolerance-based CI gate never waives it.
        assert any("bit-identical" in p
                   for p in evaluate(SUITE, bad, quick_report))

    def test_speedup_floor_full_reports(self, quick_report):
        gname = next(iter(quick_report["incremental"]))
        slow = self.doctor(quick_report, "incremental", gname, speedup=1.5)
        slow["quick"] = False
        assert any("below" in p for p in evaluate(SUITE, slow))
        # The same 1.5x is fine for a quick run...
        slow["quick"] = True
        assert evaluate(SUITE, slow) == []
        # ... and against a baseline the relative clause owns the verdict.
        slow["quick"] = False
        assert evaluate(SUITE, slow, slow) == []

    def test_retained_hits_required(self, quick_report):
        gname = next(iter(quick_report["invalidation"]))
        flushed = self.doctor(quick_report, "invalidation", gname,
                              retained_warm_hits=0)
        assert any("retained" in p or "flushed" in p
                   for p in evaluate(SUITE, flushed))

    def test_serving_identity_required(self, quick_report):
        bad = copy.deepcopy(quick_report)
        bad["serving"]["results_identical"] = False
        assert any("barrier" in p for p in evaluate(SUITE, bad))

    def test_baseline_relative_speedup(self, quick_report):
        base = copy.deepcopy(quick_report)
        for row in base["incremental"].values():
            row["speedup"] = 1000.0  # worst-case baseline speedup: 1000x
        problems = evaluate(SUITE, quick_report, base)
        assert any("fell below" in p for p in problems)

    def test_missing_baseline_section_flagged(self, quick_report):
        problems = evaluate(SUITE, quick_report, {})
        assert any("baseline has no incremental" in p for p in problems)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            Gate("incremental.*.speedup", ">=", 2.0, "w", rel=0)
        assert [g.rel for g in SUITE.gates if g.rel is not None] \
            == [REL_TOLERANCE]

    def test_write_refuses_failing_report(self, quick_report, tmp_path):
        bad = copy.deepcopy(quick_report)
        bad["serving"]["results_identical"] = False
        path = tmp_path / "x.json"
        assert write_report(SUITE, bad, str(path))
        assert not path.exists()
