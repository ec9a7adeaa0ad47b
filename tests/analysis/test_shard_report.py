"""The shardstore bench report and its regression gates."""

import copy

import pytest

from repro.analysis.benchsuite import evaluate, write_report
from repro.analysis.shard import SUITE, one_off_shard_run
from repro.graph.generators import powerlaw_configuration


@pytest.fixture(scope="module")
def quick_report(quick_report_of):
    return quick_report_of("shard")


class TestQuickRun:
    def test_schema_and_gates(self, quick_report):
        for key in SUITE.keys:
            assert key in quick_report
        assert evaluate(SUITE, quick_report) == []

    def test_bit_identity_rows(self, quick_report):
        assert quick_report["bit_identity"]
        for row in quick_report["bit_identity"].values():
            assert row["heads_identical"] is True
            assert row["kernels_identical"] is True
            assert row["multi_shard_commits"] > 0
            assert row["version_vector_ok"] is True

    def test_read_scaling_row(self, quick_report):
        scaling = quick_report["read_scaling"]
        assert scaling["digests_identical"] is True
        assert scaling["read_scaling"] >= 1.5
        assert scaling["replicas"] == 3

    def test_failover_row(self, quick_report):
        fo = quick_report["failover"]
        assert fo["digests_identical"] is True
        assert fo["reseeds"] == 1
        assert fo["rejoined_converged"] is True

    def test_replication_row(self, quick_report):
        for row in quick_report["replication"].values():
            assert row["converged"] is True
            assert row["divergence_detected"] is True
            assert row["healed"] is True
            assert row["converged_after_heal"] is True

    def test_write_round_trip(self, quick_report, tmp_path):
        import json

        path = tmp_path / "shard.json"
        assert write_report(SUITE, quick_report, str(path)) == []
        loaded = json.loads(path.read_text())
        assert set(loaded) >= set(SUITE.keys)
        assert loaded["read_scaling"]["read_scaling"] == pytest.approx(
            quick_report["read_scaling"]["read_scaling"])

    def test_headline_fields(self, quick_report):
        headline = SUITE.headline(quick_report)
        assert headline["read_scaling"] > 0
        assert headline["failover_digests_identical"] is True


class TestGates:
    def test_bit_identity_is_non_negotiable(self, quick_report):
        bad = copy.deepcopy(quick_report)
        gname = next(iter(bad["bit_identity"]))
        bad["bit_identity"][gname]["kernels_identical"] = False
        assert any("differ" in p for p in evaluate(SUITE, bad))

    def test_multi_shard_commits_required(self, quick_report):
        """A bit-identity round that never crossed a shard boundary
        proves nothing about the commit barrier."""
        bad = copy.deepcopy(quick_report)
        gname = next(iter(bad["bit_identity"]))
        bad["bit_identity"][gname]["multi_shard_commits"] = 0
        assert any("multi-shard" in p for p in evaluate(SUITE, bad))

    def test_read_scaling_floor(self, quick_report):
        bad = copy.deepcopy(quick_report)
        bad["read_scaling"]["read_scaling"] = 1.1
        assert any("floor" in p for p in evaluate(SUITE, bad))

    def test_version_vector_consistency_required(self, quick_report):
        bad = copy.deepcopy(quick_report)
        gname = next(iter(bad["bit_identity"]))
        bad["bit_identity"][gname]["version_vector_ok"] = False
        assert any("version vector" in p for p in evaluate(SUITE, bad))

    def test_failover_gate(self, quick_report):
        bad = copy.deepcopy(quick_report)
        bad["failover"]["digests_identical"] = False
        assert any("failover" in p for p in evaluate(SUITE, bad))

    def test_write_refuses_failing_report(self, quick_report, tmp_path):
        bad = copy.deepcopy(quick_report)
        bad["read_scaling"]["digests_identical"] = False
        path = tmp_path / "bad.json"
        assert write_report(SUITE, bad, str(path))
        assert not path.exists()


class TestOneOff:
    def test_one_off_run_fields(self):
        g = powerlaw_configuration(120, 700, seed=6, name="oneoff")
        payload = one_off_shard_run(g, nshards=4, nranks=8, replicas=2,
                                    n_edges=12, seed=1)
        assert payload["bit_identical"] is True
        assert payload["version_vector_ok"] is True
        assert payload["replicas_converged"] is True
        assert payload["version"] == "oneoff@v1"
        assert len(payload["ring"]) == 2
