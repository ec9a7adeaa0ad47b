"""Cluster1D / the ResidentCluster protocol, incl. rekeying resyncs."""

import numpy as np
import pytest

from repro.core.config import CacheSpec, LCCConfig
from repro.dynamic import apply_delta, random_update_batch
from repro.graph.generators import powerlaw_configuration
from repro.graphstore import Cluster1D, GridCluster2D, ResidentCluster
from repro.session import Session
from tests.helpers import assert_scores_raw


@pytest.fixture(scope="module")
def graph():
    return powerlaw_configuration(180, 1100, seed=4, name="res")


def cached_cfg(graph, **kw):
    return LCCConfig(nranks=6, threads=4,
                     cache=CacheSpec(offsets_bytes=max(1, graph.nbytes // 2),
                                     adj_bytes=graph.nbytes), **kw)


class TestProtocol:
    def test_implementations_satisfy_protocol(self):
        assert issubclass(Cluster1D, ResidentCluster)
        assert issubclass(GridCluster2D, ResidentCluster)
        assert Cluster1D.kind == "1d" and GridCluster2D.kind == "2d"

    def test_abstract_base_not_instantiable(self):
        with pytest.raises(TypeError):
            ResidentCluster()


class TestAcquire:
    def test_reuse_while_shape_unchanged(self, graph):
        cluster = Cluster1D()
        cfg = cached_cfg(graph)
        e1, d1, _, _ = cluster.acquire(graph, cfg)
        e2, d2, _, _ = cluster.acquire(graph, cfg, keep_cache=True)
        assert e1 is e2 and d1 is d2
        assert cluster.partition_builds == 1
        assert cluster.last_reused and cluster.last_warm
        cluster.close()
        assert not cluster.resident

    def test_shape_change_rebuilds(self, graph):
        cluster = Cluster1D()
        cluster.acquire(graph, cached_cfg(graph))
        cluster.acquire(graph, LCCConfig(nranks=4, threads=4))
        assert cluster.partition_builds == 2
        assert not cluster.last_reused
        cluster.close()


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

    def test_unresident_cluster_resync_is_graph_swap(self, graph):
        cluster = Cluster1D()
        batch = random_update_batch(graph, 6, 0.25, seed=2)
        res = apply_delta(graph, batch, strict=False)
        out = cluster.resync(res)
        assert cluster.graph is res.graph
        assert out.touched == () and out.time == 0.0


class TestSessionFold:
    def test_outcome_folds_all_resident_clusters(self, graph):
        cfg = cached_cfg(graph)
        with Session(graph, cfg) as session:
            session.run("lcc", keep_cache=True)
            session.run("tc2d", config=LCCConfig(nranks=9, threads=4))
            batch = random_update_batch(graph, 12, 0.25, seed=8)
            out = session.apply_updates(batch)
        kinds = sorted(r.kind for r in out.resyncs)
        assert kinds == ["1d", "2d"]
        assert out.touched_ranks and out.touched_blocks
        assert out.time == max(r.time for r in out.resyncs)
        assert out.retained_entries == sum(r.retained_entries
                                           for r in out.resyncs)
