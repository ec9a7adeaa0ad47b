"""Evaluator clauses, the kernels suite's table, the trajectory appender."""

import json
import subprocess

import pytest

from repro.analysis.benchreport import SUITE
from repro.analysis.benchsuite import (
    SUITE_NAMES,
    BenchSuite,
    Gate,
    Sibling,
    append_trajectory,
    evaluate,
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


#: The evaluator on the smallest table: an exactness row and a floor.
TOY = BenchSuite(
    name="toy", doc="", run=lambda quick: {}, keys=(),
    gates=(Gate("cached_replay.*.bit_identical", "is", True,
                "fast path is no longer bit-identical to its oracle"),
           Gate("cached_replay.*.warm_speedup", ">=", 1.0,
                "warm oracle-vs-fast speedup")),
    headline=dict)


def problems_of(report, suite=TOY):
    """Gate rows only: these synthetic reports carry one section."""
    return [problem for _, problem in violations(suite, report)]


class TestGate:
    def test_row_names_are_not_matched(self):
        """CI quick graphs differ from the committed full-size report."""
        fresh = report_with({"lcc:tiny-x": replay_row(warm=4.0),
                             "tc:tiny-x": replay_row(warm=4.0)})
        assert problems_of(fresh) == []

    def test_every_match_is_held(self):
        fresh = report_with({"lcc:a": replay_row(warm=50.0),
                             "lcc:b": replay_row(warm=0.5),
                             "tc:a": replay_row(warm=11.0)})
        problems = problems_of(fresh)
        assert len(problems) == 1
        assert problems[0].startswith("cached_replay.lcc:b.warm_speedup:")
        assert "got 0.5, need >= 1" in problems[0]

    def test_bit_identical_is_non_negotiable(self):
        fresh = report_with({
            "lcc:a": replay_row(warm=100.0, identical=False),
            "tc:a": replay_row(warm=100.0)})
        assert any("bit-identical" in p for p in problems_of(fresh))

    def test_star_matching_nothing_flagged(self):
        problems = problems_of(report_with({}))
        assert len(problems) == 2
        assert all("cached_replay" in p and "nothing recorded" in p
                   for p in problems)

    def test_missing_key_flagged(self):
        row = replay_row()
        del row["warm_speedup"]
        problems = problems_of(report_with({"lcc:a": row}))
        assert problems == [
            "cached_replay.lcc:a.warm_speedup: warm oracle-vs-fast speedup "
            "(got nothing recorded, need >= 1)"]
        assert problems_of({}) and problems_of({"cached_replay": 3})

    def test_numberless_row_flagged(self):
        """A row never passes for want of a number to compare."""
        fresh = report_with({"lcc:a": dict(replay_row(), warm_speedup=None)})
        assert any("got None" in p for p in problems_of(fresh))

    @pytest.mark.parametrize("op,bound,good,bad", [
        ("is", True, True, 1),
        ("==", 0.0, 0.0, 1e-12),
        (">=", 1.5, 1.5, 1.49),
        (">", 1.0, 1.01, 1.0),
        ("<=", 1.1, 1.1, 1.11),
        ("<", 3, 2, 3),
        ("in", (0.0, 1.0), 0.5, 1.0),
        ("len>=", 2, [0, 1], [0]),
        ("len==", 0, [], ["a problem"]),
    ])
    def test_absolute_clause_per_op(self, op, bound, good, bad):
        suite = BenchSuite(name="op", doc="", run=lambda quick: {}, keys=(),
                           gates=(Gate("x.value", op, bound, "w"),),
                           headline=dict)
        assert problems_of({"x": {"value": good}}, suite) == []
        assert len(problems_of({"x": {"value": bad}}, suite)) == 1

    def test_sibling_bound(self):
        suite = BenchSuite(
            name="sib", doc="", run=lambda quick: {}, keys=(),
            gates=(Gate("g.*.after", "<", Sibling("before"), "shrinks"),),
            headline=dict)
        assert problems_of({"g": {"a": {"before": 5, "after": 3}}},
                           suite) == []
        assert problems_of({"g": {"a": {"before": 5, "after": 5}}}, suite)
        # A sibling the row lacks is a violation, not a pass.
        assert problems_of({"g": {"a": {"after": 3}}}, suite)

    def test_gate_rows_are_validated(self):
        with pytest.raises(ValueError, match="unknown gate op"):
            Gate("x", "~=", 1, "w")
        with pytest.raises(TypeError):
            Gate("x", ">=", why="a row needs a bound")

    def test_kernels_gates_exactness_and_only_records_speed(self):
        """The loop side of both speedups is only the bit-identity oracle:
        a slow ratio passes; a missing or inexact ``linalg`` row never
        does."""
        slow = report_with({"lcc:a": replay_row(warm=0.3)})
        slow["linalg"] = {"tc2d_spgemm:a": {"warm_speedup": 0.3,
                                            "bit_identical": True}}
        assert problems_of(slow, SUITE) == []
        slow["linalg"]["tc2d_spgemm:a"]["bit_identical"] = False
        assert any("edge-centric oracle" in p
                   for p in problems_of(slow, SUITE))
        del slow["linalg"]
        assert any("linalg" in p and "nothing recorded" in p
                   for p in problems_of(slow, SUITE))


class TestCommittedBaseline:
    def test_committed_report_passes(self):
        """The repo-root BENCH_kernels.json passes its gate table."""
        report = json.loads(COMMITTED.read_text())
        assert evaluate(SUITE, report) == []

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
