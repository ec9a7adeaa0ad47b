"""Pin the batched replay to the per-edge scalar loop, bit for bit.

Every registered kernel, both CLaMPI consistency modes and no cache at
all, cold and warm: ``fast_path=True`` (the batched replay of
:mod:`repro.core.replay`) must produce a ``DistributedRunResult`` that is
**bit-identical** to ``fast_path=False`` (the per-edge loop, kept
importable as the reference oracle) — scores, virtual clocks, per-rank
trace totals and cache statistics, with exact float equality, not
tolerances.  A cache-less run is the same replay with no CLaMPI stage, so
it is one more input here, not a suite of its own.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clampi.cache import BatchStream, ConsistencyMode
from repro.core.config import CacheSpec, LCCConfig
from repro.core.lcc import execute_lcc_loop, run_distributed_lcc
from repro.core.tc import execute_tc_loop
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    complete_graph,
    erdos_renyi,
    powerlaw_configuration,
    rmat,
)
from repro.session import Session, kernel_names

#: Undirected so every kernel (tc/tc2d/disttc/mapreduce included) runs.
GRAPH = powerlaw_configuration(192, 1200, seed=11)
DIRECTED = powerlaw_configuration(96, 480, seed=12, directed=True)

MODES = [ConsistencyMode.ALWAYS_CACHE, ConsistencyMode.TRANSPARENT]
#: The cache axis: both consistency modes, and no CLaMPI stage at all.
CACHES = [*MODES, None]

#: The cache-less shapes (complete, R-MAT, ER, power-law, directed).
SHAPES = {
    "complete": complete_graph(9),
    "rmat": rmat(7, 8, seed=3),
    "er": erdos_renyi(96, 700, seed=3),
    "powerlaw": powerlaw_configuration(128, 900, seed=3),
    "directed": powerlaw_configuration(64, 300, seed=3, directed=True),
}

INT_COUNTERS = ("n_remote_gets", "n_local_reads", "n_cache_hits", "n_puts",
                "n_sends", "n_recvs", "n_barriers", "n_alltoallv",
                "bytes_remote", "bytes_local", "bytes_cached", "bytes_sent",
                "bytes_received")
TIME_COUNTERS = ("comm_time", "comp_time", "sync_time", "cache_time")


def make_spec(mode: ConsistencyMode | None) -> CacheSpec | None:
    # Small enough to force evictions, so the replay's scalar fallback and
    # its membership bookkeeping are exercised, not just pure-hit runs.
    if mode is None:
        return None
    return CacheSpec(offsets_bytes=1536, adj_bytes=6144, mode=mode)


def cache_id(mode: ConsistencyMode | None) -> str:
    return "no-cache" if mode is None else mode.value


def assert_bit_identical(loop, fast) -> None:
    """Exact equality of two kernel results (no tolerances anywhere)."""
    assert fast.global_triangles == loop.global_triangles
    if loop.raw.lcc is None:
        assert fast.raw.lcc is None
    else:
        np.testing.assert_array_equal(fast.raw.lcc, loop.raw.lcc)
        np.testing.assert_array_equal(fast.raw.triangles_per_vertex,
                                      loop.raw.triangles_per_vertex)
    assert fast.outcome.time == loop.outcome.time
    assert fast.outcome.clocks == loop.outcome.clocks
    assert fast.outcome.results == loop.outcome.results
    for ft, lt in zip(fast.outcome.traces, loop.outcome.traces):
        for name in INT_COUNTERS:
            assert getattr(ft, name) == getattr(lt, name), name
        for name in TIME_COUNTERS:
            assert getattr(ft, name) == getattr(lt, name), name
    assert fast.raw.adj_cache_stats == loop.raw.adj_cache_stats
    assert fast.raw.offsets_cache_stats == loop.raw.offsets_cache_stats


def assert_lcc_tc_parity(graph, **kw) -> None:
    """Replay == loop for ``lcc`` and (undirected graphs) ``tc``."""
    with Session(graph, LCCConfig(fast_path=True, **kw)) as fast_s, \
            Session(graph, LCCConfig(fast_path=False, **kw)) as loop_s:
        assert_bit_identical(loop_s.run("lcc"), fast_s.run("lcc"))
        if not graph.directed:
            assert_bit_identical(loop_s.run("tc"), fast_s.run("tc"))


class TestAllKernelsAllModes:
    @pytest.mark.parametrize("mode", CACHES, ids=cache_id)
    @pytest.mark.parametrize("kernel", kernel_names())
    def test_cold_and_warm_parity(self, kernel, mode):
        spec = make_spec(mode)
        kw = dict(nranks=4, threads=4, cache=spec)
        with Session(GRAPH, LCCConfig(fast_path=True, **kw)) as fast_s, \
                Session(GRAPH, LCCConfig(fast_path=False, **kw)) as loop_s:
            cold_fast = fast_s.run(kernel, keep_cache=True)
            cold_loop = loop_s.run(kernel, keep_cache=True)
            assert_bit_identical(cold_loop, cold_fast)
            warm_fast = fast_s.run(kernel, keep_cache=True)
            warm_loop = loop_s.run(kernel, keep_cache=True)
            assert_bit_identical(warm_loop, warm_fast)

    def test_warm_cache_actually_reused(self):
        # The warm leg above must exercise the reuse effect, not a flush.
        spec = make_spec(ConsistencyMode.ALWAYS_CACHE)
        with Session(GRAPH, LCCConfig(nranks=4, cache=spec)) as s:
            first = s.run("lcc", keep_cache=True)
            again = s.run("lcc", keep_cache=True)
            assert again.warm_cache
            assert again.adj_cache_stats["hit_rate"] > \
                first.adj_cache_stats["hit_rate"]


class TestMoreShapes:
    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("partition", ["block", "cyclic"])
    def test_lcc_partitions_and_overlap(self, partition, overlap):
        spec = make_spec(ConsistencyMode.ALWAYS_CACHE)
        kw = dict(nranks=6, threads=2, partition=partition, overlap=overlap,
                  cache=spec)
        with Session(GRAPH, LCCConfig(fast_path=True, **kw)) as fast_s, \
                Session(GRAPH, LCCConfig(fast_path=False, **kw)) as loop_s:
            assert_bit_identical(loop_s.run("lcc"), fast_s.run("lcc"))
            assert_bit_identical(loop_s.run("tc"), fast_s.run("tc"))

    def test_directed_lcc(self):
        spec = make_spec(ConsistencyMode.ALWAYS_CACHE)
        kw = dict(nranks=4, cache=spec)
        with Session(DIRECTED, LCCConfig(fast_path=True, **kw)) as fast_s, \
                Session(DIRECTED, LCCConfig(fast_path=False, **kw)) as loop_s:
            assert_bit_identical(loop_s.run("lcc"), fast_s.run("lcc"))

    def test_degree_score_policy(self):
        spec = CacheSpec(offsets_bytes=1536, adj_bytes=6144, score="degree")
        kw = dict(nranks=4, cache=spec)
        with Session(GRAPH, LCCConfig(fast_path=True, **kw)) as fast_s, \
                Session(GRAPH, LCCConfig(fast_path=False, **kw)) as loop_s:
            assert_bit_identical(loop_s.run("lcc"), fast_s.run("lcc"))

    def test_offsets_only_cache(self):
        spec = CacheSpec(offsets_bytes=4096, adj_bytes=0)
        kw = dict(nranks=4, cache=spec)
        with Session(GRAPH, LCCConfig(fast_path=True, **kw)) as fast_s, \
                Session(GRAPH, LCCConfig(fast_path=False, **kw)) as loop_s:
            assert_bit_identical(loop_s.run("lcc"), fast_s.run("lcc"))


class TestCachelessShapes:
    """No CLaMPI stage: the replay prices gets from byte counts alone."""

    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_graphs_and_overlap(self, shape, overlap):
        assert_lcc_tc_parity(SHAPES[shape], nranks=4, threads=12,
                             overlap=overlap)

    @pytest.mark.parametrize("method", ["ssi", "binary", "hybrid"])
    @pytest.mark.parametrize("partition", ["block", "cyclic"])
    def test_partitions_and_methods(self, partition, method):
        assert_lcc_tc_parity(SHAPES["rmat"], nranks=8, threads=4,
                             partition=partition, method=method)

    def test_single_rank(self):
        g = rmat(6, 4, seed=3)
        assert_lcc_tc_parity(g, nranks=1)
        with Session(g, LCCConfig(nranks=1)) as s:
            assert s.run("lcc").outcome.total("n_remote_gets") == 0

    def test_more_ranks_than_vertices(self):
        assert_lcc_tc_parity(complete_graph(5), nranks=8)


def assert_cold_and_warm_parity(graph, **kw) -> None:
    """Replay == loop for ``lcc`` and ``tc``, cold then warm (the caches,
    if any, kept between queries)."""
    with Session(graph, LCCConfig(fast_path=True, **kw)) as fast_s, \
            Session(graph, LCCConfig(fast_path=False, **kw)) as loop_s:
        for kernel in ("lcc", "tc", "lcc", "tc"):
            assert_bit_identical(loop_s.run(kernel, keep_cache=True),
                                 fast_s.run(kernel, keep_cache=True))


class TestRankAxis:
    """Every rank replays in one stacked pass: each rank's clock, trace and
    cache must still be its own, at the ledger's rank counts and at
    degenerate ones (ranks owning no vertex, or vertices but no edge)."""

    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("partition", ["block", "cyclic"])
    @pytest.mark.parametrize("mode", [ConsistencyMode.ALWAYS_CACHE, None],
                             ids=cache_id)
    def test_ledger_64_ranks(self, mode, partition, overlap):
        assert_cold_and_warm_parity(GRAPH, nranks=64, threads=4,
                                    partition=partition, overlap=overlap,
                                    cache=make_spec(mode))

    @given(st.integers(min_value=1, max_value=14), st.data(),
           st.sampled_from(["block", "cyclic"]), st.booleans(),
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_any_rank_count(self, n, data, partition, overlap, cached):
        """``nranks`` in ``[1, 3n]`` over a graph whose last vertices are
        isolated: ranks past ``n`` own no vertex, and a rank holding only
        isolated vertices (for ``tc`` also: only vertices whose neighbours
        all have lower ids) owns no edge."""
        live = data.draw(st.integers(min_value=1, max_value=n), "live")
        pairs = [(u, v) for u in range(live) for v in range(u + 1, live)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                          if pairs else st.just([]), "edges")
        graph = CSRGraph.from_edges(np.array(edges, dtype=np.int64)
                                    .reshape(-1, 2), n)
        nranks = data.draw(st.integers(min_value=1, max_value=3 * n),
                           "nranks")
        spec = CacheSpec(offsets_bytes=256, adj_bytes=512) if cached else None
        assert_cold_and_warm_parity(graph, nranks=nranks, threads=2,
                                    partition=partition, overlap=overlap,
                                    cache=spec)


class TestStreamLaziness:
    """A window's ``BatchStream`` exists only once a cache replays it."""

    NRANKS = 4

    @pytest.fixture
    def built(self, monkeypatch):
        """Every ``BatchStream`` constructed while the test runs."""
        built, init = [], BatchStream.__init__

        def counting_init(stream, *args, **kw):
            built.append(stream)
            init(stream, *args, **kw)

        monkeypatch.setattr(BatchStream, "__init__", counting_init)
        return built

    def test_cacheless_session_builds_none(self, built):
        with Session(GRAPH, LCCConfig(nranks=self.NRANKS)) as s:
            s.run("lcc")
            s.run("tc")
        assert built == []

    def test_cached_session_builds_each_stream_once(self, built):
        spec = make_spec(ConsistencyMode.ALWAYS_CACHE)
        with Session(GRAPH, LCCConfig(nranks=self.NRANKS, cache=spec)) as s:
            for _ in range(3):
                s.run("lcc", keep_cache=True)
                s.run("tc", keep_cache=True)
        # Two windows per rank per kernel, however often they replay.
        assert len(built) == 2 * self.NRANKS * 2

    def test_offsets_only_cache_builds_one_per_rank(self, built):
        spec = CacheSpec(offsets_bytes=4096, adj_bytes=0)
        with Session(GRAPH, LCCConfig(nranks=self.NRANKS, cache=spec)) as s:
            s.run("lcc", keep_cache=True)
            s.run("lcc", keep_cache=True)
        assert len(built) == self.NRANKS

    def test_cache_override_after_cacheless_run(self, built):
        spec = make_spec(ConsistencyMode.ALWAYS_CACHE)
        with Session(GRAPH, LCCConfig(nranks=self.NRANKS)) as s, \
                Session(GRAPH, LCCConfig(nranks=self.NRANKS,
                                         cache=spec)) as fresh:
            s.run("lcc")
            assert built == []
            late = s.run("lcc", cache=spec)
            assert s.partition_builds == 1 and late.reused_cluster
            assert len(built) == 2 * self.NRANKS
            # Result *and* CacheStats, exactly.
            assert_bit_identical(fresh.run("lcc"), late)


@pytest.mark.parametrize("mode", [ConsistencyMode.ALWAYS_CACHE, None],
                         ids=cache_id)
class TestDispatch:
    def test_fast_path_skips_loop(self, monkeypatch, mode):
        import repro.core.lcc as lcc_mod
        import repro.core.tc as tc_mod

        def boom(*a, **kw):  # pragma: no cover - should never run
            raise AssertionError("loop oracle must not run on the fast path")

        monkeypatch.setattr(lcc_mod, "execute_lcc_loop", boom)
        monkeypatch.setattr(tc_mod, "execute_tc_loop", boom)
        cfg = LCCConfig(nranks=4, cache=make_spec(mode))
        with Session(GRAPH, cfg) as s:
            s.run("lcc")
            s.run("tc")
        run_distributed_lcc(GRAPH, cfg)

    def test_loop_oracle_skips_replay(self, monkeypatch, mode):
        import repro.core.replay as replay_mod

        def boom(*a, **kw):  # pragma: no cover - should never run
            raise AssertionError("replay must not run with fast_path=False")

        monkeypatch.setattr(replay_mod, "execute_lcc_batched", boom)
        monkeypatch.setattr(replay_mod, "execute_tc_batched", boom)
        cfg = LCCConfig(nranks=4, cache=make_spec(mode), fast_path=False)
        with Session(GRAPH, cfg) as s:
            s.run("lcc")
            s.run("tc")
        run_distributed_lcc(GRAPH, cfg)



def test_loop_entry_points_importable():
    # The reference oracles are part of the public surface.
    assert callable(execute_lcc_loop)
    assert callable(execute_tc_loop)
