"""The graph-store bench report and its regression gates."""

import copy

import pytest

from repro.analysis.benchsuite import evaluate, write_report
from repro.analysis.store import SUITE


@pytest.fixture(scope="module")
def quick_report(quick_report_of):
    return quick_report_of("store")


class TestQuickRun:
    def test_schema_and_gates(self, quick_report):
        for key in SUITE.keys:
            assert key in quick_report
        assert evaluate(SUITE, quick_report) == []

    def test_tc2d_rows(self, quick_report):
        assert quick_report["tc2d"]
        for row in quick_report["tc2d"].values():
            assert row["bit_identical"] is True
            assert row["warm_speedup"] > 0
            assert row["grid_builds"] == 1

    def test_versions_row(self, quick_report):
        ver = quick_report["versions"]
        assert ver["results_identical"] is True
        assert ver["version_histories_identical"] is True
        assert ver["n_updates"] > 0
        assert set(ver["schedulers"]) == {"fifo", "affinity"}
        # Versions advanced: some graph must be past v0.
        assert any(v > 0 for v in ver["final_versions"].values())

    def test_delete_heavy_rows(self, quick_report):
        dh = quick_report["delete_heavy"]
        assert dh["serving"]["results_identical"] is True
        for gname, row in dh.items():
            if gname == "serving":
                continue
            assert row["bit_identical"] is True
            assert row["edges_after"] < row["edges_before"]
            assert row["delete_fraction"] >= 0.75

    def test_write_round_trip(self, quick_report, tmp_path):
        import json

        path = tmp_path / "store.json"
        assert write_report(SUITE, quick_report, str(path)) == []
        loaded = json.loads(path.read_text())
        assert set(loaded) >= set(SUITE.keys)
        for gname, row in quick_report["tc2d"].items():
            assert loaded["tc2d"][gname]["warm_speedup"] == pytest.approx(
                row["warm_speedup"])
            assert loaded["tc2d"][gname]["bit_identical"] is True


class TestGates:
    def test_bit_identity_is_non_negotiable(self, quick_report):
        bad = copy.deepcopy(quick_report)
        gname = next(iter(bad["tc2d"]))
        bad["tc2d"][gname]["bit_identical"] = False
        assert any("differ" in p for p in evaluate(SUITE, bad))

    def test_warm_speedup_is_recorded_not_gated(self, quick_report):
        slow = copy.deepcopy(quick_report)
        gname = next(iter(slow["tc2d"]))
        slow["tc2d"][gname]["warm_speedup"] = 0.5
        assert evaluate(SUITE, slow) == []

    def test_grid_must_build_once(self, quick_report):
        bad = copy.deepcopy(quick_report)
        gname = next(iter(bad["tc2d"]))
        bad["tc2d"][gname]["grid_builds"] = 3
        assert any("must build once" in p for p in evaluate(SUITE, bad))

    def test_version_history_independence_required(self, quick_report):
        bad = copy.deepcopy(quick_report)
        bad["versions"]["version_histories_identical"] = False
        assert any("version histories" in p for p in evaluate(SUITE, bad))

    def test_delete_heavy_parity_required(self, quick_report):
        bad = copy.deepcopy(quick_report)
        for gname, row in bad["delete_heavy"].items():
            if gname != "serving":
                row["bit_identical"] = False
                break
        assert any("shrinkage" in p for p in evaluate(SUITE, bad))

    def test_write_refuses_failing_report(self, quick_report, tmp_path):
        bad = copy.deepcopy(quick_report)
        bad["versions"]["results_identical"] = False
        path = tmp_path / "bad.json"
        assert write_report(SUITE, bad, str(path))
        assert not path.exists()
