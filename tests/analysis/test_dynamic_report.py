"""The dynamic-graph bench report and its regression gates."""

import copy
import json

import pytest

from repro.analysis.benchsuite import evaluate, write_report
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

    def test_wall_clock_speedup_is_recorded_not_gated(self, quick_report):
        gname = next(iter(quick_report["incremental"]))
        slow = self.doctor(quick_report, "incremental", gname, speedup=0.5)
        slow["quick"] = False
        assert evaluate(SUITE, slow) == []

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

    def test_write_refuses_failing_report(self, quick_report, tmp_path):
        bad = copy.deepcopy(quick_report)
        bad["serving"]["results_identical"] = False
        path = tmp_path / "x.json"
        assert write_report(SUITE, bad, str(path))
        assert not path.exists()


class TestOneOffUpdate:
    def test_exactness_is_checked_against_the_raw_counters(self, monkeypatch):
        """A wrong inherited score patch fails `incremental_matches_query`:
        the session and the incremental state share it, the raw recount
        does not."""
        import numpy as np

        import repro.dynamic.delta as delta
        from repro.analysis.dynamic import one_off_update_run
        from repro.graph.generators import powerlaw_configuration

        graph = powerlaw_configuration(160, 900, seed=3, name="oneoff")
        assert one_off_update_run(
            graph, nranks=4, n_edges=10, seed=1)["incremental_matches_query"]

        inherit = delta.inherit_scores

        def corrupt(parent, child, affected):
            inherit(parent, child, affected)
            base, pending = child.scores.pop("pending")
            child.scores["pending"] = (base + 1, pending)

        monkeypatch.setattr(delta, "inherit_scores", corrupt)
        graph = powerlaw_configuration(160, 900, seed=3, name="oneoff")
        payload = one_off_update_run(graph, nranks=4, n_edges=10, seed=1)
        assert payload["incremental_matches_query"] is False
        assert np.isfinite(payload["post_update_hit_rate"])
