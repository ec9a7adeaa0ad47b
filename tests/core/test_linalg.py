"""Algebraic 2D kernels pinned to their edge-centric oracles, bit for bit.

``tc2d_spgemm`` replays packed SUMMA panels vectorized; the scalar
edge-centric ``tc2d`` loop is its oracle: triangle counts, per-rank
virtual clocks, results and trace totals must match with exact float
equality, uncached and cached, cold and warm.  ``lcc2d`` has no scalar
2D twin, so its scores are pinned to the 1D ``lcc`` kernel (the shared
:func:`~repro.core.local.lcc_from_triplets` finisher) and its clocks to
determinism.  The batched cached-``tc2d`` replay rides the same panels
through :meth:`ClampiCache.access_batch` and is pinned against the
scalar cached loop including CLaMPI statistics.
"""

import tracemalloc

import numpy as np
import pytest

from repro.clampi.cache import ConsistencyMode
from repro.core.config import CacheSpec, LCCConfig
from repro.core.intersect import SUPPORT_BUDGET
from repro.core.linalg import summa_stats
from repro.core.local import lcc_local, triangle_count_local
from repro.core.tc2d import run_distributed_tc_2d
from repro.graph.generators import powerlaw_configuration, rmat
from repro.graph.partition2d import GridPartition2D
from repro.obs.trace import SpanTracer, activate, check_spans
from repro.session import Session, get_kernel, run_kernel
from repro.utils.errors import ConfigError

from tests.helpers import make_graph_suite

GRAPH = powerlaw_configuration(220, 1400, seed=11)

COUNTERS = ("n_remote_gets", "n_cache_hits", "n_local_reads",
            "bytes_remote", "bytes_cached", "bytes_local",
            "comm_time", "comp_time", "cache_time")


def assert_outcomes_identical(a, b):
    assert a.time == b.time
    assert a.clocks == b.clocks
    assert a.results == b.results
    for ta, tb in zip(a.traces, b.traces):
        for name in COUNTERS:
            assert getattr(ta, name) == getattr(tb, name), name


class TestUncachedParity:
    @pytest.mark.parametrize("nranks", [1, 4, 9, 16])
    def test_clocks_and_counts_match_oracle(self, nranks):
        cfg = LCCConfig(nranks=nranks)
        oracle = run_distributed_tc_2d(GRAPH, cfg)
        res = run_kernel("tc2d_spgemm", GRAPH, cfg).raw
        assert res.global_triangles == oracle.global_triangles
        assert res.global_triangles == triangle_count_local(GRAPH)
        assert_outcomes_identical(res.outcome, oracle.outcome)

    @pytest.mark.parametrize("idx", range(6))
    def test_graph_suite(self, idx):
        g = make_graph_suite()[idx]
        cfg = LCCConfig(nranks=4)
        oracle = run_distributed_tc_2d(g, cfg)
        res = run_kernel("tc2d_spgemm", g, cfg).raw
        assert res.global_triangles == oracle.global_triangles
        assert_outcomes_identical(res.outcome, oracle.outcome)

    def test_warm_resident_queries_stay_identical(self):
        cfg = LCCConfig(nranks=9)
        oracle = run_distributed_tc_2d(GRAPH, cfg)
        with Session(GRAPH, cfg) as session:
            for _ in range(3):
                res = session.run("tc2d_spgemm")
                assert res.global_triangles == oracle.global_triangles
                assert_outcomes_identical(res.outcome, oracle.outcome)


class TestCachedParity:
    @pytest.mark.parametrize("mode", [ConsistencyMode.ALWAYS_CACHE,
                                      ConsistencyMode.TRANSPARENT],
                             ids=lambda m: m.value)
    def test_spgemm_vs_scalar_loop_with_caches(self, mode):
        # Small enough to force evictions through the batch machinery.
        spec = CacheSpec(offsets_bytes=0, adj_bytes=4096, mode=mode)
        kw = dict(nranks=9, threads=2, cache=spec)
        with Session(GRAPH, LCCConfig(fast_path=True, **kw)) as fast, \
                Session(GRAPH, LCCConfig(fast_path=False, **kw)) as loop:
            for _ in range(3):
                rf = fast.run("tc2d_spgemm", keep_cache=True)
                rl = loop.run("tc2d_spgemm", keep_cache=True)
                assert rf.global_triangles == rl.global_triangles
                assert_outcomes_identical(rf.outcome, rl.outcome)
                assert rf.adj_cache_stats == rl.adj_cache_stats
                assert [c.stats.snapshot() for c in fast._c2d.caches] == \
                    [c.stats.snapshot() for c in loop._c2d.caches]

    @pytest.mark.parametrize("mode", [ConsistencyMode.ALWAYS_CACHE,
                                      ConsistencyMode.TRANSPARENT],
                             ids=lambda m: m.value)
    def test_cached_tc2d_batched_replay(self, mode):
        # The deferred follow-up: warm cached grid queries take the
        # vectorized access_batch path; the scalar loop is the oracle.
        spec = CacheSpec(offsets_bytes=0, adj_bytes=8192, mode=mode)
        kw = dict(nranks=9, threads=2, cache=spec)
        with Session(GRAPH, LCCConfig(fast_path=True, **kw)) as fast, \
                Session(GRAPH, LCCConfig(fast_path=False, **kw)) as loop:
            for _ in range(3):  # cold, then two warm reuse rounds
                rf = fast.run("tc2d", keep_cache=True)
                rl = loop.run("tc2d", keep_cache=True)
                assert rf.global_triangles == rl.global_triangles
                assert_outcomes_identical(rf.outcome, rl.outcome)
                assert [c.stats.snapshot() for c in fast._c2d.caches] == \
                    [c.stats.snapshot() for c in loop._c2d.caches]

    def test_warm_cache_actually_reused(self):
        spec = CacheSpec.relative(GRAPH.nbytes, 0.0, 1.0)
        with Session(GRAPH, LCCConfig(nranks=9, cache=spec)) as s:
            s.run("tc2d", keep_cache=True)
            warm = s.run("tc2d", keep_cache=True)
            stats = [c.stats.snapshot() for c in s._c2d.caches]
        assert warm.warm_cache
        assert sum(st["hits"] for st in stats) > 0


class TestLCC2D:
    @pytest.mark.parametrize("nranks", [1, 4, 9])
    def test_scores_match_1d_lcc(self, nranks):
        cfg = LCCConfig(nranks=nranks)
        r2 = run_kernel("lcc2d", GRAPH, cfg)
        r1 = run_kernel("lcc", GRAPH, cfg)
        np.testing.assert_array_equal(r2.raw.lcc, r1.raw.lcc)
        np.testing.assert_array_equal(r2.raw.triangles_per_vertex,
                                      r1.raw.triangles_per_vertex)
        assert r2.global_triangles == r1.global_triangles

    @pytest.mark.parametrize("idx", range(6))
    def test_graph_suite_scores(self, idx):
        g = make_graph_suite()[idx]
        res = run_kernel("lcc2d", g, LCCConfig(nranks=4))
        np.testing.assert_allclose(res.raw.lcc, lcc_local(g))

    def test_warm_queries_deterministic(self):
        with Session(GRAPH, LCCConfig(nranks=9)) as session:
            first = session.run("lcc2d")
            again = session.run("lcc2d")
        np.testing.assert_array_equal(first.raw.lcc, again.raw.lcc)
        assert_outcomes_identical(first.outcome, again.outcome)

    def test_directed_rejected(self):
        g = powerlaw_configuration(64, 300, seed=3, directed=True)
        with pytest.raises(ConfigError):
            run_kernel("lcc2d", g, LCCConfig(nranks=4))


class TestSummaTables:
    def test_directed_graph_rejected(self):
        # The sweep credits each upper edge to both stored directions; on
        # a directed graph that symmetry does not exist, so fail closed.
        g = powerlaw_configuration(64, 300, seed=3, directed=True)
        grid = GridPartition2D(g.n, 4)
        with pytest.raises(ConfigError, match="expects an undirected graph"):
            summa_stats(g, grid)

    def test_results_reference_read_only_tables(self):
        with Session(GRAPH, LCCConfig(nranks=9)) as session:
            first = session.run("lcc2d").raw
            again = session.run("lcc2d").raw
            stats, _ = session._c2d.panel_state()
        assert first.triangles_per_vertex is stats.tpv
        assert first.lcc is again.lcc is stats.lcc  # scored once per epoch
        for held in (stats.tpv, stats.lcc):
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 0

    def test_peak_memory_bounded_by_strip_budget(self):
        # A strip holds two gathered operands and SciPy's worst-case-sized
        # output, a 4-byte index and a 1-byte value each: ~10 B per budgeted
        # entry.  The rest is O(m) - edge list, owners, counts - and measures
        # ~67 B per stored edge.  The strip product A[:, V_k] @ A[V_k, :]
        # (the formulation this replaced) peaks at ~100 MB on this graph,
        # 6x what the masked sweep allocates and 4x this bound.
        g = rmat(12, 16, seed=1)
        grid = GridPartition2D(g.n, 9)
        tracemalloc.start()
        try:
            summa_stats(g, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * SUPPORT_BUDGET + 96 * g.num_adjacency_entries


class TestSquareGridGuard:
    @pytest.mark.parametrize("kernel", ["tc2d_spgemm", "lcc2d"])
    @pytest.mark.parametrize("nranks", [2, 6, 8, 12])
    def test_rectangular_grid_raises_clear_error(self, kernel, nranks):
        with pytest.raises(ConfigError) as exc:
            run_kernel(kernel, GRAPH, LCCConfig(nranks=nranks))
        msg = str(exc.value)
        assert kernel in msg
        assert "square process grid" in msg
        assert "tc2d" in msg  # points at the rectangular-capable kernel

    def test_error_suggests_square_rank_counts(self):
        with pytest.raises(ConfigError) as exc:
            run_kernel("tc2d_spgemm", GRAPH, LCCConfig(nranks=8))
        assert "4 or 9" in str(exc.value)

    def test_kernel_specs_carry_the_trait(self):
        assert get_kernel("tc2d_spgemm").square_grid_only
        assert get_kernel("lcc2d").square_grid_only
        assert not get_kernel("tc2d").square_grid_only


class TestDynamicUpdates:
    def test_post_update_parity_with_fresh_oracle(self):
        from repro.dynamic import random_update_batch

        cfg = LCCConfig(nranks=9, threads=2)
        with Session(GRAPH, cfg) as session:
            for step in range(3):
                batch = random_update_batch(session.graph, 12, 0.5,
                                            seed=step + 1)
                session.apply_updates(batch)
                res = session.run("tc2d_spgemm")
                oracle = run_distributed_tc_2d(session.graph, cfg)
                assert res.global_triangles == oracle.global_triangles
                assert_outcomes_identical(res.outcome, oracle.outcome)
                lcc2d = session.run("lcc2d")
                np.testing.assert_allclose(lcc2d.raw.lcc,
                                           lcc_local(session.graph))


class TestObservability:
    def test_summa_rounds_appear_in_trace(self):
        tracer = SpanTracer()
        grid = GridPartition2D(GRAPH.n, 9)
        with activate(tracer):
            summa_stats(GRAPH, grid)
        names = [s.name for s in tracer.spans]
        assert names.count("summa") == 1
        assert names.count("summa_round") == grid.cols
        assert check_spans(tracer.spans) == []

    def test_kernel_span_emitted(self):
        tracer = SpanTracer()
        with activate(tracer):
            run_kernel("tc2d_spgemm", GRAPH, LCCConfig(nranks=4))
        assert "tc2d_spgemm" in {s.name for s in tracer.spans}


class TestPanelResidency:
    def test_panels_built_once_per_epoch(self, monkeypatch):
        import repro.graphstore.grid2d as g2d

        calls = []
        real = g2d.summa_stats

        def counting(*a, **kw):
            calls.append(1)
            return real(*a, **kw)

        monkeypatch.setattr(g2d, "summa_stats", counting)
        with Session(GRAPH, LCCConfig(nranks=9)) as session:
            session.run("tc2d_spgemm")
            session.run("lcc2d")
            session.run("tc2d_spgemm")
            assert len(calls) == 1  # warm queries replay the same panels
            from repro.dynamic import random_update_batch

            session.apply_updates(random_update_batch(session.graph, 8,
                                                      0.5, seed=4))
            session.run("tc2d_spgemm")
        assert len(calls) == 2  # the resync retired the panel memo

    def test_stream_shape_matches_loop_gets(self):
        grid = GridPartition2D(GRAPH.n, 9)
        cfg = LCCConfig(nranks=9)
        res = run_distributed_tc_2d(GRAPH, cfg)
        streams = None
        with Session(GRAPH, cfg) as session:
            session.run("tc2d_spgemm")
            _, streams = session._c2d.panel_state()
        for rank, (stream, trace) in enumerate(
                zip(streams, res.outcome.traces)):
            # One whole-part get per remote row/column peer, in k-order.
            assert stream.targets.shape[0] == trace.n_remote_gets \
                == 2 * (grid.cols - 1)
