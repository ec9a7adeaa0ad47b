"""GridCluster2D: resident tc2d parity, 2D block resync, block caches."""

from dataclasses import fields

import numpy as np
import pytest

from repro.clampi.adaptive import AdaptiveConfig
from repro.clampi.cache import ClampiConfig
from repro.clampi.scores import (
    AppScorePolicy,
    DefaultScorePolicy,
    LRUScorePolicy,
)
from repro.clampi.wrapper import degree_app_score
from repro.core.config import CacheSpec, LCCConfig
from repro.core.local import to_sparse
from repro.core.tc2d import build_grid_blocks, run_distributed_tc_2d
from repro.dynamic import apply_delta, random_update_batch
from repro.graph.generators import complete_graph, powerlaw_configuration
from repro.graph.partition2d import GridPartition2D
from repro.graphstore import GridCluster2D, stale_block_keys, touched_blocks
from repro.runtime.trace import RankTrace
from repro.serve.workload import default_catalog
from repro.session import Session


@pytest.fixture(scope="module")
def graph():
    return powerlaw_configuration(200, 1200, seed=9, name="g2d")


def square_cfg(**kw):
    return LCCConfig(nranks=9, threads=4, **kw)


def rect_cfg(**kw):
    return LCCConfig(nranks=8, threads=4, **kw)


def packed_slice(graph, grid, rank):
    """The independent oracle: the int32 packing of the SciPy slice
    ``A[r_lo:r_hi, c_lo:c_hi]`` of the whole adjacency matrix."""
    row, col = grid.grid_coords(rank)
    (r_lo, r_hi), (c_lo, c_hi) = grid.row_range(row), grid.col_range(col)
    block = to_sparse(graph)[r_lo:r_hi, c_lo:c_hi]
    block.sort_indices()
    return np.concatenate([
        np.array([block.shape[0], block.nnz], dtype=np.int32),
        block.indptr.astype(np.int32), block.indices.astype(np.int32)])


class TestBlockBuild:
    @pytest.mark.parametrize("nranks", [1, 4, 6, 9, 12, 16])
    def test_packed_parts_match_scipy_slice(self, nranks):
        graphs = list(default_catalog().values()) + [
            complete_graph(3)]  # 16 ranks: more row blocks than vertices
        empty_seen = False
        for g in graphs:
            grid = GridPartition2D(g.n, nranks)
            for rank, part in enumerate(build_grid_blocks(g, grid)):
                expect = packed_slice(g, grid, rank)
                assert part.dtype == np.int32
                np.testing.assert_array_equal(part, expect)
                empty_seen |= int(part[1]) == 0
        assert empty_seen or nranks == 1

    def test_touched_blocks_covers_changed_edges(self, graph):
        grid = GridPartition2D(graph.n, 9)
        batch = random_update_batch(graph, 10, 0.5, seed=5)
        res = apply_delta(graph, batch, strict=False)
        ranks = touched_blocks(grid, res.changed_keys, graph.n)
        expect = set()
        for key in res.changed_keys:
            u, v = int(key) // graph.n, int(key) % graph.n
            expect.add(grid.owner_of_edge(u, v))
        assert set(ranks) == expect

    def test_stale_block_keys_positional(self):
        def keys(*rows):  # (k, 3) int64 columns; strict= checks both
            return np.array(rows, dtype=np.int64).reshape(-1, 3)

        old = np.array([3, 2, 0, 1, 2], dtype=np.int32)
        np.testing.assert_array_equal(
            stale_block_keys(4, old, old.copy()), keys(), strict=True)
        np.testing.assert_array_equal(
            stale_block_keys(4, old, np.array([3, 2, 0, 1, 3],
                                              dtype=np.int32)),
            keys((4, 0, 5)), strict=True)
        np.testing.assert_array_equal(
            stale_block_keys(4, old, old[:-1]), keys((4, 0, 5)), strict=True)


class TestResidentParity:
    @pytest.mark.parametrize("cfg_fn", [square_cfg, rect_cfg],
                             ids=["square-3x3", "rect-2x4"])
    def test_warm_queries_bit_identical_to_rebuild(self, graph, cfg_fn):
        cfg = cfg_fn()
        legacy = run_distributed_tc_2d(graph, cfg)
        with Session(graph, cfg) as session:
            runs = [session.run("tc2d") for _ in range(3)]
            assert session.grid_builds == 1
        for r in runs:
            assert int(r.global_triangles) == int(legacy.global_triangles)
            assert r.outcome.clocks == legacy.outcome.clocks

    def test_coexists_with_1d_cluster(self, graph):
        with Session(graph, square_cfg()) as session:
            lcc = session.run("lcc")
            tc2d = session.run("tc2d")
            again = session.run("lcc")
            assert session.partition_builds == 1
            assert session.grid_builds == 1
        np.testing.assert_array_equal(lcc.lcc, again.lcc)
        assert int(tc2d.global_triangles) == int(lcc.global_triangles)


class TestResync:
    @pytest.mark.parametrize("cfg_fn", [square_cfg, rect_cfg],
                             ids=["square-3x3", "rect-2x4"])
    def test_post_update_matches_fresh_rebuild(self, graph, cfg_fn):
        cfg = cfg_fn()
        with Session(graph, cfg) as session:
            session.run("tc2d")
            for step in range(3):   # sustained updates, resync each time
                batch = random_update_batch(session.graph, 12, 0.5,
                                            seed=31 + step)
                out = session.apply_updates(batch)
                assert out.touched_blocks  # 2D cluster really resynced
                post = session.run("tc2d")
                ref = run_distributed_tc_2d(session.graph, cfg)
                assert int(post.global_triangles) == int(ref.global_triangles)
                assert post.outcome.clocks == ref.outcome.clocks

    def test_resync_blocks_match_full_rebuild(self, graph):
        cluster = GridCluster2D()
        cfg = square_cfg()
        cluster.acquire(graph, cfg)
        batch = random_update_batch(graph, 16, 0.5, seed=77)
        res = apply_delta(graph, batch, strict=False)
        cluster.resync(res)
        grid = GridPartition2D(res.graph.n, cfg.nranks)
        fresh = build_grid_blocks(res.graph, grid)
        for rank in range(cfg.nranks):
            np.testing.assert_array_equal(cluster._win.local_part(rank),
                                          fresh[rank])
        cluster.close()

class TestBlockCaches:
    def cached_cfg(self, graph):
        return square_cfg(cache=CacheSpec(
            offsets_bytes=max(1, graph.nbytes // 2), adj_bytes=graph.nbytes))

    def test_warm_cached_queries_hit(self, graph):
        cfg = self.cached_cfg(graph)
        with Session(graph, cfg) as session:
            session.run("tc2d", keep_cache=True)
            caches = session._c2d.caches
            assert caches and any(len(c) for c in caches)
            warm = session.run("tc2d", keep_cache=True)
            hits = sum(c.stats.hits for c in session._c2d.caches)
            assert hits > 0
            # Answers unaffected by caching.
            ref = run_distributed_tc_2d(graph, square_cfg())
            assert int(warm.global_triangles) == int(ref.global_triangles)

    def test_update_invalidates_exactly_touched_blocks(self, graph):
        cfg = self.cached_cfg(graph)
        with Session(graph, cfg) as session:
            session.run("tc2d", keep_cache=True)
            session.run("tc2d", keep_cache=True)
            before = sum(len(c) for c in session._c2d.caches)
            batch = random_update_batch(session.graph, 6, 0.5, seed=13)
            out = session.apply_updates(batch)
            twod = [r for r in out.resyncs if r.kind == "2d"]
            assert twod and twod[0].invalidated_adj_entries > 0
            after = sum(len(c) for c in session._c2d.caches)
            assert 0 < after < before  # untouched blocks stayed warm
            post = session.run("tc2d", keep_cache=True)
            ref = run_distributed_tc_2d(session.graph, square_cfg())
            assert int(post.global_triangles) == int(ref.global_triangles)

    @pytest.mark.parametrize("score, policy", [
        ("default", DefaultScorePolicy), ("lru", LRUScorePolicy),
        ("degree", AppScorePolicy)])
    def test_block_caches_follow_the_spec(self, graph, score, policy):
        """Score policy, application score and adaptive sizing come from
        the spec; capacity and hash size stay the block caches' own."""
        adaptive = AdaptiveConfig(check_interval=64)
        cfg = square_cfg(cache=CacheSpec(
            offsets_bytes=1, adj_bytes=graph.nbytes, score=score,
            adaptive=adaptive))
        with Session(graph, cfg) as session:
            res = session.run("tc2d", keep_cache=True)
            caches = session._c2d.caches
        assert len(caches) == cfg.nranks
        for cache in caches:
            assert type(cache.config.score_policy) is policy
            assert cache.config.app_score_fn is (
                degree_app_score if score == "degree" else None)
            assert cache.config.adaptive is adaptive
            assert cache.config.capacity_bytes == graph.nbytes
            assert cache.config.nslots == ClampiConfig(1).nslots
        ref = run_distributed_tc_2d(graph, square_cfg())
        assert int(res.global_triangles) == int(ref.global_triangles)

    def test_warm_cached_query_is_faster_with_same_answer(self, graph):
        cfg = self.cached_cfg(graph)
        with Session(graph, cfg) as session:
            a = session.run("tc2d", keep_cache=True)
            b = session.run("tc2d", keep_cache=True)
            # Warm cached run differs in *timing* (hits), not answers.
            assert int(a.global_triangles) == int(b.global_triangles)
            assert b.outcome.time < a.outcome.time


def cached_spec(graph):
    return CacheSpec(offsets_bytes=max(1, graph.nbytes // 2),
                     adj_bytes=graph.nbytes)


def assert_same_run(res, ref, *, clocks=True):
    """Field by field: triangles, per-rank results and, with ``clocks``,
    the per-rank clocks and every :class:`RankTrace` field."""
    assert int(res.global_triangles) == int(ref.global_triangles)
    assert res.outcome.results == ref.outcome.results
    if not clocks:
        return
    assert res.outcome.clocks == ref.outcome.clocks
    assert len(res.outcome.traces) == len(ref.outcome.traces)
    for got, want in zip(res.outcome.traces, ref.outcome.traces):
        for f in fields(RankTrace):
            assert getattr(got, f.name) == getattr(want, f.name), f.name


@pytest.fixture
def loop_calls(monkeypatch):
    """Count the scalar-loop runs the resident grid dispatches to."""
    import repro.graphstore.grid2d as g2d

    calls = []
    real = g2d.execute_tc2d

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(g2d, "execute_tc2d", counting)
    return calls


class TestOneDispatch:
    """Fast square-grid queries replay the panels; all others run the loop."""

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["cache-less", "cached"])
    def test_fast_square_grid_never_runs_the_loop(self, graph, loop_calls,
                                                  cached):
        cfg = square_cfg(cache=cached_spec(graph) if cached else None)
        with Session(graph, cfg) as fast, \
                Session(graph, cfg.replace(fast_path=False)) as loop:
            for step in ("cold", "warm", "post-update"):
                if step == "post-update":
                    batch = random_update_batch(fast.graph, 12, 0.5, seed=41)
                    fast.apply_updates(batch)
                    loop.apply_updates(batch)
                before = len(loop_calls)
                res = fast.run("tc2d", keep_cache=True)
                assert len(loop_calls) == before, step
                twin = loop.run("tc2d", keep_cache=True)
                oracle = run_distributed_tc_2d(fast.graph, cfg)
                # Block-cache hits move the clocks, so a cached query's
                # clocks are pinned to the cached loop twin.
                assert_same_run(res, twin)
                assert_same_run(res, oracle, clocks=not cached)

    @pytest.mark.parametrize("cfg_fn", [
        lambda: square_cfg(fast_path=False),
        rect_cfg,
    ], ids=["fast_path-off", "rect-2x4"])
    def test_every_other_query_runs_the_loop(self, graph, loop_calls,
                                             cfg_fn):
        cfg = cfg_fn()
        with Session(graph, cfg) as session:
            runs = [session.run("tc2d") for _ in range(2)]
        assert len(loop_calls) == 2
        oracle = run_distributed_tc_2d(graph, cfg)
        for res in runs:
            assert_same_run(res, oracle)

    def test_one_epoch_shares_one_summa_call(self, graph, monkeypatch,
                                             loop_calls):
        import repro.graphstore.grid2d as g2d

        calls = []
        real = g2d.summa_stats

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(g2d, "summa_stats", counting)
        cfg = square_cfg()
        with Session(graph, cfg) as session:
            tc2d = session.run("tc2d")
            spgemm = session.run("tc2d_spgemm")
            lcc2d = session.run("lcc2d")
        assert len(calls) == 1 and not loop_calls
        oracle = run_distributed_tc_2d(graph, cfg)
        assert_same_run(tc2d, oracle)
        assert_same_run(spgemm, oracle)
        # lcc2d adds row-strip bookkeeping to the clocks, not the counts.
        assert_same_run(lcc2d, oracle, clocks=False)
