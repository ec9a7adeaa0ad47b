"""Tests for RankTrace counters."""

import pytest

import repro.runtime
from repro.runtime.trace import RankTrace


class TestCounters:
    def test_remote_get_accounting(self):
        tr = RankTrace(rank=0)
        tr.remote_get(40, 1e-6)
        assert tr.n_remote_gets == 1
        assert tr.bytes_remote == 40
        assert tr.comm_time == pytest.approx(1e-6)
        assert tr.total_reads == 1

    def test_cache_hit_accounting(self):
        tr = RankTrace(rank=0)
        tr.cache_hit(40, 1e-8)
        assert tr.n_cache_hits == 1
        assert tr.bytes_cached == 40
        assert tr.cache_time == pytest.approx(1e-8)

    def test_remote_fraction(self):
        tr = RankTrace(rank=0)
        tr.remote_get(8, 1e-6)
        tr.local_read(8, 1e-7)
        tr.local_read(8, 1e-7)
        tr.cache_hit(8, 1e-8)
        assert tr.remote_fraction == pytest.approx(0.25)

    def test_remote_fraction_empty(self):
        assert RankTrace(rank=0).remote_fraction == 0.0


class TestMerge:
    def test_merge_totals(self):
        a, b = RankTrace(rank=0), RankTrace(rank=1)
        a.remote_get(8, 1e-6)
        b.remote_get(8, 2e-6)
        b.compute(5e-6)
        a.merge_totals(b)
        assert a.n_remote_gets == 2
        assert a.bytes_remote == 16
        assert a.comm_time == pytest.approx(3e-6)
        assert a.comp_time == pytest.approx(5e-6)

    def test_merge_leaves_the_other_trace_alone(self):
        a, b = RankTrace(rank=0), RankTrace(rank=1)
        b.cache_hit(8, 1e-8)
        a.merge_totals(b)
        assert (b.n_cache_hits, b.bytes_cached) == (1, 8)
        assert (a.n_cache_hits, a.bytes_cached) == (1, 8)
        assert a.rank == 0


class TestLocalAndCompute:
    def test_local_read_accounting(self):
        tr = RankTrace(rank=0)
        tr.local_read(24, 1e-7)
        assert tr.n_local_reads == 1
        assert tr.bytes_local == 24
        assert tr.comp_time == pytest.approx(1e-7)
        assert tr.comm_time == 0.0
        assert tr.total_reads == 1

    def test_compute_charges_time_not_reads(self):
        tr = RankTrace(rank=0)
        tr.compute(3e-6)
        assert tr.comp_time == pytest.approx(3e-6)
        assert tr.total_reads == 0


class TestFromTotals:
    def test_sets_the_named_counters(self):
        tr = RankTrace.from_totals(3, n_remote_gets=5, bytes_remote=40,
                                   comm_time=2e-6)
        assert tr.rank == 3
        assert (tr.n_remote_gets, tr.bytes_remote) == (5, 40)
        assert tr.comm_time == pytest.approx(2e-6)
        assert tr.n_local_reads == 0

    @pytest.mark.parametrize("name", ["n_bogus", "ops", "record_ops"])
    def test_unknown_counter_rejected(self, name):
        with pytest.raises(ValueError, match="unknown trace counter"):
            RankTrace.from_totals(0, **{name: 1})


def test_trace_is_counters_only():
    """No op log: the recording switch is an unknown field."""
    with pytest.raises(TypeError):
        RankTrace(rank=0, record_ops=True)
    tr = RankTrace(rank=0)
    assert not hasattr(tr, "ops") and not hasattr(tr, "record")


def test_runtime_exports_no_op_kinds():
    assert "OpKind" not in repro.runtime.__all__
    assert not hasattr(repro.runtime, "OpKind")
