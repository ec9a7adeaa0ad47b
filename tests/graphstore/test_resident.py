"""The ResidentCluster lifecycle over both kinds; Cluster1D rekeying resyncs."""

import numpy as np
import pytest

import repro.graphstore.resident as resident
from repro.clampi.cache import ConsistencyMode
from repro.clampi.stats import CacheStats
from repro.core.config import CacheSpec, LCCConfig
from repro.core.lcc import make_partition
from repro.dynamic import UpdateBatch, apply_delta, random_update_batch
from repro.graph.distributed import DistributedCSR
from repro.graph.generators import powerlaw_configuration
from repro.graphstore import (
    Cluster1D,
    ClusterResync,
    GridCluster2D,
    ResidentCluster,
)
from repro.runtime.engine import Engine
from repro.session import Session, UpdateOutcome
from tests.helpers import assert_scores_raw


@pytest.fixture(scope="module")
def graph():
    return powerlaw_configuration(180, 1100, seed=4, name="res")


def spec(graph, **kw):
    return CacheSpec(offsets_bytes=max(1, graph.nbytes // 2),
                     adj_bytes=graph.nbytes, **kw)


def cached_cfg(graph, **kw):
    return LCCConfig(nranks=6, threads=4, cache=spec(graph), **kw)


class TestProtocol:
    def test_implementations_satisfy_protocol(self):
        assert issubclass(Cluster1D, ResidentCluster)
        assert issubclass(GridCluster2D, ResidentCluster)
        assert Cluster1D.kind == "1d" and GridCluster2D.kind == "2d"

    def test_abstract_base_not_instantiable(self):
        with pytest.raises(TypeError):
            ResidentCluster()


KINDS = {"1d": (Cluster1D, "lcc"), "2d": (GridCluster2D, "tc2d")}


def cache_keys(cluster):
    return [[e.key for e in cache.entries()] for cache in cluster.caches]


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestLifecycleContract:
    """What :class:`ResidentCluster` guarantees for every cluster kind."""

    def start(self, graph, kind, **kw):
        """A session whose one resident cluster of ``kind`` served one
        query with its caches kept; returns ``(session, cluster)``."""
        session = Session(graph, LCCConfig(nranks=4, threads=4,
                                           cache=spec(graph, **kw)))
        session.run(KINDS[kind][1], keep_cache=True)
        (cluster,) = session.clusters()
        assert isinstance(cluster, KINDS[kind][0]) and cluster.kind == kind
        return session, cluster

    def test_reuse_while_shape_unchanged_rebuild_when_it_changes(
            self, graph, kind):
        session, cluster = self.start(graph, kind)
        with session:
            engine = cluster._engine
            again = session.run(KINDS[kind][1])
            assert again.reused_cluster and cluster._engine is engine
            # The partition shapes only the 1D cluster.
            cyclic = session.run(KINDS[kind][1], partition="cyclic")
            assert cyclic.reused_cluster == (kind == "2d")
            builds = cluster.builds
            moved = session.run(KINDS[kind][1], nranks=9)
            assert not moved.reused_cluster and cluster._engine is not engine
            assert cluster.builds == builds + 1
            assert (session.partition_builds, session.grid_builds) == (
                (cluster.builds, 0) if kind == "1d" else (0, cluster.builds))

    def test_warm_rule(self, graph, kind):
        session, cluster = self.start(graph, kind)
        with session:
            cfg = session.config
            caches, keys = cluster.caches, cache_keys(cluster)
            assert any(keys)
            # keep_cache + same shape + equal spec + live caches: warm,
            # contents kept, statistics reset.
            cluster.acquire(session.graph, cfg, keep_cache=True)
            assert cluster.last_warm and cluster.last_reused
            assert all(a is b for a, b in zip(cluster.caches, caches))
            assert cache_keys(cluster) == keys
            assert all(c.stats == CacheStats() for c in cluster.caches)
            # Any other query starts with fresh, empty caches.
            lru = cfg.replace(cache=spec(graph, score="lru"))
            for config, keep_cache in ((cfg, False), (lru, True)):
                cluster.acquire(session.graph, config, keep_cache=keep_cache)
                assert not cluster.last_warm
                assert not any(c in caches for c in cluster.caches)
                assert not any(cache_keys(cluster))
            cluster.acquire(session.graph, cfg.replace(cache=None),
                            keep_cache=True)
            assert not cluster.last_warm and cluster.caches == []

    def test_transparent_caches_flush_when_the_epoch_closes(self, graph,
                                                            kind):
        session, cluster = self.start(graph, kind,
                                      mode=ConsistencyMode.TRANSPARENT)
        with session:
            caches = cluster.caches
            assert caches and all(len(c) == 0 for c in caches)
            assert all(c.stats.flushes == 1 for c in caches)
            windows = cluster._windows
            assert not any(w.epoch_open(r) for w in windows
                           for r in range(w.nranks))

            def counts():   # a flush keeps the compulsory-miss record
                return [{k: v for k, v in c.stats.snapshot().items()
                         if k != "compulsory_miss_rate"} for c in caches]

            cold = counts()
            # Kept but flushed: the next query reads exactly what a cold
            # one does.
            again = session.run(KINDS[kind][1], keep_cache=True)
            assert again.warm_cache and cluster.caches == caches
            assert counts() == cold

    def test_unchanged_delta_retains_every_entry_and_touches_nothing(
            self, graph, kind):
        session, cluster = self.start(graph, kind)
        with session:
            keys = cache_keys(cluster)
            noop = UpdateBatch.build(None, None, n=graph.n)
            out = session.apply_updates(noop)
            (resync,) = out.resyncs
            assert resync == ClusterResync(
                kind=kind, retained_entries=sum(map(len, keys)))
            assert resync.retained_entries > 0
            assert cache_keys(cluster) == keys
            assert cluster.graph is out.graph
            if kind == "1d":
                assert cluster._dist.graph is out.graph
            assert (out.touched_ranks, out.touched_blocks, out.time) == (
                (), (), 0.0)

    def test_unresident_cluster_resync_is_a_graph_swap(self, graph, kind):
        cluster = KINDS[kind][0]()
        batch = random_update_batch(graph, 6, 0.25, seed=2)
        res = apply_delta(graph, batch, strict=False)
        assert cluster.resync(res) == ClusterResync(kind=kind)
        assert cluster.graph is res.graph and not cluster.resident

    def test_close_is_idempotent(self, graph, kind):
        session, cluster = self.start(graph, kind)
        contexts, windows = cluster._engine.contexts, cluster._windows
        for _ in range(2):
            cluster.close()
            assert not cluster.resident and cluster.caches == []
            assert all(ctx.cache_for(w) is None
                       for ctx in contexts for w in windows)
        cluster.acquire(graph, session.config)
        assert cluster.resident and cluster.builds == 2
        session.close()
        session.close()
        assert not cluster.resident


class TestResyncRekey:
    def run_update(self, graph, rekey):
        cfg = cached_cfg(graph)
        with Session(graph, cfg) as session:
            session.run("lcc", keep_cache=True)
            session.run("lcc", keep_cache=True)
            batch = random_update_batch(graph, 12, 0.25, seed=55)
            out = session.apply_updates(batch, rekey=rekey)
            post = session.run("lcc", keep_cache=True)
        return out, post

    def test_rekey_retains_more_warmth(self, graph):
        """The satellite's headline: shifted-but-unchanged entries are
        remapped, not dropped, so the post-update hit rate improves."""
        with_rk, post_rk = self.run_update(graph, rekey=True)
        without, post_no = self.run_update(graph, rekey=False)
        assert with_rk.rekeyed_entries > 0
        assert without.rekeyed_entries == 0
        assert with_rk.retained_entries > without.retained_entries
        assert (post_rk.adj_cache_stats["hit_rate"]
                > post_no.adj_cache_stats["hit_rate"])
        # Answers must agree regardless of retention policy.
        np.testing.assert_array_equal(post_rk.lcc, post_no.lcc)

    def test_rekeyed_answers_match_cold(self, graph):
        out, post = self.run_update(graph, rekey=True)
        with Session(out.graph, cached_cfg(out.graph)) as fresh:
            cold = fresh.run("lcc")
        np.testing.assert_array_equal(post.lcc, cold.lcc)
        np.testing.assert_array_equal(post.triangles_per_vertex,
                                      cold.triangles_per_vertex)
        assert_scores_raw(post, out.graph)  # cold shares post's record

    def test_cache_stats_carry_rekeys(self, graph):
        cfg = cached_cfg(graph)
        with Session(graph, cfg) as session:
            session.run("lcc", keep_cache=True)
            batch = random_update_batch(graph, 12, 0.25, seed=55)
            session.apply_updates(batch)
            caches = session.clusters()[0].caches
            stats = sum(c.stats.rekeys for c in caches)
            snap = caches[-1].stats.snapshot()
        assert stats > 0
        assert "rekeys" in snap and "rekeyed_bytes" in snap


def assert_parts_are_views(dist):
    """Every window part is a view of the dist's rank-major CSR, never
    of the graph's own arrays (a put would corrupt the graph)."""
    graph = dist.graph
    for win, csr, own in ((dist.w_offsets, dist.offsets, graph.offsets),
                          (dist.w_adj, dist.adjacency, graph.adjacency)):
        for rank in range(win.nranks):
            part = win.local_part(rank)
            if part.size:
                assert np.shares_memory(part, csr), (win.name, rank)
            assert not np.shares_memory(part, own), (win.name, rank)


class TestResyncMatchesFresh:
    @pytest.mark.parametrize("partition", ["block", "cyclic"])
    def test_parts_match_fresh_build(self, graph, partition, monkeypatch):
        """After each update every rank's parts equal a fresh build's, the
        touched ranks' rebuilt bytes are their new parts' bytes, and the
        parts stay views of the dist's arrays."""
        real, plans = resident.resync_distributed, []

        def spy(*args):
            plans.append(real(*args))
            return plans[-1]
        monkeypatch.setattr(resident, "resync_distributed", spy)
        cfg = cached_cfg(graph, partition=partition)
        with Session(graph, cfg) as session:
            session.run("lcc", keep_cache=True)
            _, dist, _, _ = session.resident_cluster(keep_cache=True)
            assert_parts_are_views(dist)
            for step in range(3):
                batch = random_update_batch(session.graph, 12, 0.25,
                                            seed=60 + step)
                out = session.apply_updates(batch)
                plan = plans[-1]
                assert plan.touched_ranks and (
                    out.touched_ranks == plan.touched_ranks)
                fresh = DistributedCSR(
                    session.graph, make_partition(cfg, graph.n),
                    Engine(cfg.nranks))
                for rank in range(cfg.nranks):
                    for win, ref in ((dist.w_offsets, fresh.w_offsets),
                                     (dist.w_adj, fresh.w_adj)):
                        np.testing.assert_array_equal(
                            win.local_part(rank), ref.local_part(rank))
                assert plan.rebuilt_bytes_by_rank == {
                    rank: dist.w_offsets.part_nbytes(rank)
                    + dist.w_adj.part_nbytes(rank)
                    for rank in plan.touched_ranks}
                assert_parts_are_views(dist)
                session.run("lcc", keep_cache=True)


class TestSessionFold:
    def test_outcome_folds_all_resident_clusters(self, graph):
        cfg = cached_cfg(graph)
        with Session(graph, cfg) as session:
            session.run("lcc", keep_cache=True)
            session.run("tc2d", config=LCCConfig(nranks=9, threads=4))
            batch = random_update_batch(graph, 12, 0.25, seed=8)
            out = session.apply_updates(batch)
        r1d, r2d = out.resyncs
        assert (r1d.kind, r2d.kind) == ("1d", "2d")
        assert out.touched_ranks == r1d.touched and r1d.touched
        assert out.touched_blocks == r2d.touched and r2d.touched
        assert out.time == max(r1d.time, r2d.time)
        for name in ("rebuilt_bytes", "invalidated_offsets_entries",
                     "invalidated_adj_entries", "invalidated_entries",
                     "invalidated_bytes", "rekeyed_entries", "rekeyed_bytes",
                     "retained_entries"):
            assert getattr(out, name) == (getattr(r1d, name)
                                          + getattr(r2d, name)), name
            with pytest.raises(AttributeError):
                setattr(out, name, 0)
        assert UpdateOutcome(delta=out.delta).time == 0.0
