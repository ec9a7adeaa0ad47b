"""Evaluator clauses, the kernels suite's table, the trajectory appender."""

import json
import subprocess

import pytest

from repro.analysis.benchreport import SUITE
from repro.analysis.benchsuite import (
    REL_TOLERANCE,
    SUITE_NAMES,
    BenchSuite,
    Gate,
    append_trajectory,
    evaluate,
    get_suite,
    trajectory_row,
    violations,
    write_report,
)
from tests.helpers import REPO_ROOT

COMMITTED = REPO_ROOT / "BENCH_kernels.json"


def replay_row(warm=10.0, cold=2.0, identical=True):
    return {"warm_speedup": warm, "cold_speedup": cold,
            "bit_identical": identical}


def report_with(rows):
    return {"cached_replay": rows}


#: The evaluator's two clause kinds on the smallest table that has both:
#: an exactness row and a baseline-relative speedup row.
TOY = BenchSuite(
    name="toy", doc="", run=lambda quick: {}, keys=(),
    gates=(Gate("cached_replay.*.bit_identical", "is", True,
                "fast path is no longer bit-identical to its oracle"),
           Gate("cached_replay.*.warm_speedup", ">=", None,
                "warm oracle-vs-fast speedup", rel=REL_TOLERANCE)),
    headline=dict, summary=list)


def check_against_baseline(report, baseline, suite=TOY):
    """Gate rows only: these synthetic reports carry one section."""
    return [problem for _, problem in violations(suite, report, baseline)]


BASELINE = report_with({
    "lcc:powerlaw-m": replay_row(warm=8.0),
    "lcc:rmat-s10": replay_row(warm=14.0),
    "tc:powerlaw-m": replay_row(warm=12.0),
})


class TestGate:
    def test_row_names_are_not_matched(self):
        """CI quick graphs differ from the committed full-size baseline."""
        fresh = report_with({"lcc:tiny-x": replay_row(warm=4.0),
                             "tc:tiny-x": replay_row(warm=4.0)})
        # floor: 0.25 * the baseline's worst (8.0) = 2.0 -> passes at 4.0
        assert check_against_baseline(fresh, BASELINE) == []

    def test_worst_row_is_the_contract(self):
        fresh = report_with({"lcc:a": replay_row(warm=50.0),
                             "lcc:b": replay_row(warm=0.5),
                             "tc:a": replay_row(warm=11.0)})
        problems = check_against_baseline(fresh, BASELINE)
        assert len(problems) == 1
        assert "0.50x fell below 2.00x" in problems[0]

    def test_bit_identical_is_non_negotiable(self):
        fresh = report_with({
            "lcc:a": replay_row(warm=100.0, identical=False),
            "tc:a": replay_row(warm=100.0)})
        problems = check_against_baseline(fresh, BASELINE)
        assert any("bit-identical" in p for p in problems)
        # ... with or without a baseline.
        assert any("bit-identical" in p
                   for p in check_against_baseline(fresh, None))

    def test_empty_fresh_report_flagged(self):
        problems = check_against_baseline(report_with({}), BASELINE)
        assert any("cached_replay" in p and "nothing recorded" in p
                   for p in problems)

    def test_numberless_fresh_row_flagged(self):
        """A relative row never passes for want of a number to compare."""
        fresh = report_with({"lcc:a": dict(replay_row(), warm_speedup=None)})
        assert any("no number" in p
                   for p in check_against_baseline(fresh, BASELINE))

    def test_empty_baseline_flagged_not_vacuously_passed(self):
        """--check pointed at the wrong file must fail, not gate nothing."""
        fresh = report_with({"lcc:a": replay_row(warm=9.0)})
        problems = check_against_baseline(fresh, {"workloads": {}})
        assert any("baseline has no cached_replay" in p for p in problems)

    def test_tolerance_scales_the_floor(self):
        """The floor is REL_TOLERANCE x the baseline's worst row."""
        fresh = report_with({"lcc:a": replay_row(warm=5.0),
                             "tc:a": replay_row(warm=5.0)})
        assert check_against_baseline(fresh, BASELINE) == []
        steep = report_with({
            key: replay_row(warm=row["warm_speedup"] * 4)
            for key, row in BASELINE["cached_replay"].items()})
        # floor: 0.25 * 32 = 8.0 -> fails at 5.0, in one line
        assert len(check_against_baseline(fresh, steep)) == 1

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            Gate("cached_replay.*.warm_speedup", ">=", None, "w", rel=0.0)

    def test_default_tolerance_is_loose(self):
        assert 0 < REL_TOLERANCE <= 0.5
        relative = [g for name in SUITE_NAMES for g in get_suite(name).gates
                    if g.rel is not None]
        assert relative and all(g.rel == REL_TOLERANCE for g in relative)

    def test_kernels_gates_exactness_and_only_records_speed(self):
        """The loop side of both speedups is only the bit-identity oracle:
        a slow ratio passes; a missing or inexact ``linalg`` row never
        does, even on a plain recording run."""
        slow = report_with({"lcc:a": replay_row(warm=0.3)})
        slow["linalg"] = {"tc2d_spgemm:a": {"warm_speedup": 0.3,
                                            "bit_identical": True}}
        assert check_against_baseline(slow, None, SUITE) == []
        assert not SUITE.reads_baseline
        slow["linalg"]["tc2d_spgemm:a"]["bit_identical"] = False
        assert any("edge-centric oracle" in p
                   for p in check_against_baseline(slow, None, SUITE))
        del slow["linalg"]
        assert any("linalg" in p and "nothing recorded" in p
                   for p in check_against_baseline(slow, None, SUITE))


class TestCommittedBaseline:
    def test_committed_baseline_is_self_consistent(self):
        """The repo-root BENCH_kernels.json passes the gate against itself."""
        report = json.loads(COMMITTED.read_text())
        assert evaluate(SUITE, report, report) == []

    def test_load_write_round_trip(self, tmp_path):
        report = json.loads(COMMITTED.read_text())
        out = tmp_path / "copy.json"
        assert write_report(SUITE, report, str(out)) == []
        assert json.loads(out.read_text()) == report


class TestTrajectory:
    def test_row_summarizes_report(self):
        report = report_with({"lcc:g": replay_row(warm=4.0),
                              "tc:g": replay_row(warm=6.0)})
        report["quick"] = True
        report["kernels"] = {
            "lcc:g": {"wall_clock_s": 0.5, "adj_hit_rate": 0.8,
                      "offsets_hit_rate": 0.7},
            "tc:g": {"wall_clock_s": 1.5, "adj_hit_rate": None,
                     "offsets_hit_rate": None},
            # A 2D block cache's cold pass: not the 1D population.
            "lcc2d:g": {"wall_clock_s": 0.0, "adj_hit_rate": 0.0,
                        "offsets_hit_rate": None}}
        row = trajectory_row(SUITE, report, date="2026-07-26")
        assert row["date"] == "2026-07-26"
        assert row["kind"] == "kernels"
        assert row["quick"] is True
        # Stamped with the checkout the code ran from (null outside one).
        head = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True,
                              cwd=COMMITTED.parent)
        assert row["commit"] == (head.stdout.strip()
                                 if head.returncode == 0 else None)
        assert row["n_kernels"] == 3
        assert row["total_kernel_wall_s"] == 2.0
        assert row["max_kernel_wall_s"] == 1.5
        assert row["mean_adj_hit_rate"] == 0.8
        assert row["min_warm_speedups"] == {"lcc": 4.0, "tc": 6.0}

    def test_append_creates_then_extends(self, tmp_path):
        report = report_with({"lcc:g": replay_row(warm=4.0)})
        path = tmp_path / "BENCH_trajectory.json"
        for date in ("2026-07-25", "2026-07-26"):
            append_trajectory(trajectory_row(SUITE, report, date=date),
                              str(path))
        data = json.loads(path.read_text())
        assert [r["date"] for r in data["rows"]] == ["2026-07-25",
                                                     "2026-07-26"]
        assert data["schema_version"] == 1

    def test_committed_trajectory_is_valid(self):
        """The repo-root trajectory is one series: every row is dated and
        tagged with its suite, and carries that suite's headline."""
        from repro.analysis.schema import validate_trajectory

        data = json.loads(
            (COMMITTED.parent / "BENCH_trajectory.json").read_text())
        assert validate_trajectory(data) == []
        assert data["rows"]
        for row in data["rows"]:
            assert row["kind"] in SUITE_NAMES
            assert isinstance(row["quick"], bool)
            if row["kind"] == "shard":
                assert row["read_scaling"] > 0
                assert row["failover_digests_identical"] is True
            elif row["kind"] == "async":
                assert row["burst_speedup"] > 0
                assert row["interleavings_identical"] is True
            elif row["kind"] == "kernels":
                assert "min_warm_speedups" in row
            elif row["kind"] == "paper":
                assert row["claims_held"] == row["claims_total"] > 0
                assert row["best_speedup_4_to_64"] > 4.0
                assert row["commit"]
        assert "paper" in {row["kind"] for row in data["rows"]}

    def test_corrupt_trajectory_reported_cleanly(self, tmp_path):
        path = tmp_path / "BENCH_trajectory.json"
        path.write_text('{"rows": [')  # truncated by a killed run
        row = trajectory_row(SUITE, report_with({}))
        with pytest.raises(ValueError, match="corrupt"):
            append_trajectory(row, str(path))
        # The corrupt file is left untouched for manual inspection.
        assert path.read_text() == '{"rows": ['
