"""Evaluator clauses, the kernels suite's table and headline."""

import json

import pytest

from repro.analysis.benchreport import SUITE
from repro.analysis.benchsuite import (
    BenchSuite,
    Gate,
    Sibling,
    evaluate,
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


class TestHeadline:
    def test_headline_summarizes_report(self):
        report = report_with({"lcc:g": replay_row(warm=4.0),
                              "tc:g": replay_row(warm=6.0)})
        report["kernels"] = {
            "lcc:g": {"wall_clock_s": 0.5, "adj_hit_rate": 0.8,
                      "offsets_hit_rate": 0.7},
            "tc:g": {"wall_clock_s": 1.5, "adj_hit_rate": None,
                     "offsets_hit_rate": None},
            # A 2D block cache's cold pass: not the 1D population.
            "lcc2d:g": {"wall_clock_s": 0.0, "adj_hit_rate": 0.0,
                        "offsets_hit_rate": None}}
        headline = SUITE.headline(report)
        assert headline["n_kernels"] == 3
        assert headline["total_kernel_wall_s"] == 2.0
        assert headline["max_kernel_wall_s"] == 1.5
        assert headline["mean_adj_hit_rate"] == 0.8
        assert headline["min_warm_speedups"] == {"lcc": 4.0, "tc": 6.0}
