"""Session.apply_updates: resync, targeted invalidation, kernel parity."""

import numpy as np
import pytest

from repro.clampi.cache import ConsistencyMode
from repro.core.config import CacheSpec, LCCConfig
from repro.dynamic import UpdateBatch, random_update_batch
from repro.graph.generators import powerlaw_configuration
from repro.session import Session, get_kernel, kernel_names
from repro.utils.errors import KernelError
from tests.helpers import assert_scores_raw


@pytest.fixture(scope="module")
def graph():
    return powerlaw_configuration(240, 1400, seed=21, name="dyn")


def cached_config(graph, mode=ConsistencyMode.ALWAYS_CACHE, **kw):
    spec = CacheSpec(offsets_bytes=max(1, int(0.5 * graph.nbytes)),
                     adj_bytes=graph.nbytes, mode=mode)
    return LCCConfig(nranks=6, threads=4, cache=spec, **kw)


BATCH_SEED = 33


class TestParityAfterUpdates:
    @pytest.mark.parametrize("mode", [ConsistencyMode.ALWAYS_CACHE,
                                      ConsistencyMode.TRANSPARENT])
    @pytest.mark.parametrize("warm", [False, True])
    def test_lcc_tc_bit_identical_to_fresh(self, graph, mode, warm):
        """Post-update cached queries == cold full recompute, all modes."""
        cfg = cached_config(graph, mode)
        with Session(graph, cfg) as session:
            if warm:
                session.run("lcc", keep_cache=True)
                session.run("lcc", keep_cache=True)
            batch = random_update_batch(graph, 14, 0.25, seed=BATCH_SEED)
            session.apply_updates(batch)
            post_lcc = session.run("lcc", keep_cache=warm)
            post_tc = session.run("tc", keep_cache=warm)
            new_graph = session.graph
        with Session(new_graph, cfg) as fresh:
            ref_lcc = fresh.run("lcc")
            ref_tc = fresh.run("tc")
        np.testing.assert_array_equal(post_lcc.lcc, ref_lcc.lcc)
        np.testing.assert_array_equal(post_lcc.triangles_per_vertex,
                                      ref_lcc.triangles_per_vertex)
        assert post_tc.global_triangles == ref_tc.global_triangles
        # ``fresh`` read the same record as ``session``: recount as well.
        assert_scores_raw(post_lcc, new_graph)
        assert_scores_raw(post_tc, new_graph)

    def test_all_six_kernels_match_the_raw_counters(self, graph):
        """Acceptance gate: every registered kernel's primary output after
        an update equals the raw counters on the new graph bit-for-bit."""
        batch = random_update_batch(graph, 12, 0.25, seed=BATCH_SEED + 1)
        with Session(graph, cached_config(graph)) as session:
            session.run("lcc", keep_cache=True)  # make the cluster resident
            session.apply_updates(batch)
            ran = []
            for kernel in kernel_names():
                if get_kernel(kernel).square_grid_only:
                    # nranks=6 is a rectangular grid; the SUMMA kernels'
                    # post-update parity is pinned at nranks=9 in
                    # tests/core/test_linalg.py::TestDynamicUpdates.
                    continue
                assert_scores_raw(session.run(kernel), session.graph)
                ran.append(kernel)
        assert len(ran) >= 6, ran

    @pytest.mark.parametrize("kernel", ["lcc", "tric"])
    def test_directed_graph_after_updates(self, kernel):
        """A directed version is counted in full on its first read: the
        kernels that take a directed graph match the raw counters."""
        graph = powerlaw_configuration(120, 600, seed=22, directed=True,
                                       name="dyn-directed")
        with Session(graph, cached_config(graph)) as session:
            session.run(kernel, keep_cache=True)
            out = session.apply_updates(
                random_update_batch(graph, 12, 0.25, seed=BATCH_SEED + 3))
            assert out.affected.size and session.graph.scores == {}
            assert_scores_raw(session.run(kernel, keep_cache=True),
                              session.graph)

    def test_cyclic_partition_resync(self, graph):
        cfg = cached_config(graph, partition="cyclic")
        with Session(graph, cfg) as session:
            session.run("lcc", keep_cache=True)
            out = session.apply_updates(
                random_update_batch(graph, 10, 0.5, seed=BATCH_SEED + 2))
            assert out.touched_ranks
            post = session.run("lcc", keep_cache=True)
        with Session(session.graph, cfg) as fresh:
            ref = fresh.run("lcc")
        np.testing.assert_array_equal(post.lcc, ref.lcc)
        assert_scores_raw(post, session.graph)

    def test_repeated_update_query_cycles(self, graph):
        cfg = cached_config(graph)
        with Session(graph, cfg) as session:
            for step in range(4):
                batch = random_update_batch(session.graph, 8, 0.25,
                                            seed=100 + step)
                session.apply_updates(batch)
                res = session.run("lcc", keep_cache=True)
                assert_scores_raw(res, session.graph)


class TestInvalidationBookkeeping:
    def test_warmth_retained_for_unaffected(self, graph):
        cfg = cached_config(graph)
        with Session(graph, cfg) as session:
            session.run("lcc", keep_cache=True)
            session.run("lcc", keep_cache=True)
            out = session.apply_updates(
                random_update_batch(graph, 12, 0.25, seed=BATCH_SEED + 3))
            assert out.invalidated_entries > 0
            assert out.retained_entries > 0
            assert out.time > 0.0
            post = session.run("lcc", keep_cache=True)
            assert post.warm_cache
        with Session(session.graph, cfg) as fresh:
            cold = fresh.run("lcc", keep_cache=True)
        # Hits beyond the cold run are served by retained warm entries.
        assert (post.adj_cache_stats["hits"]
                > cold.adj_cache_stats["hits"])

    def test_invalidation_counted_in_cache_stats(self, graph):
        with Session(graph, cached_config(graph)) as session:
            session.run("lcc", keep_cache=True)
            out = session.apply_updates(
                random_update_batch(graph, 12, 0.25, seed=BATCH_SEED + 4))
            merged_invalidations = sum(
                c.stats.invalidations
                for c in session.clusters()[0].caches)
            assert merged_invalidations == out.invalidated_entries
            assert out.invalidated_bytes > 0

    def test_noop_batch_touches_nothing(self, graph):
        with Session(graph, cached_config(graph)) as session:
            session.run("lcc", keep_cache=True)
            entries_before = sum(
                len(c) for c in session.clusters()[0].caches)
            out = session.apply_updates(UpdateBatch.build(n=graph.n))
            assert not out.delta.changed
            assert out.touched_ranks == ()
            assert out.invalidated_entries == 0
            assert out.retained_entries == entries_before

    def test_update_before_first_query(self, graph):
        with Session(graph, cached_config(graph)) as session:
            out = session.apply_updates(
                random_update_batch(graph, 10, 0.25, seed=BATCH_SEED + 5))
            assert out.touched_ranks == ()  # nothing resident yet
            res = session.run("lcc")
        with Session(session.graph, cached_config(graph)) as fresh:
            ref = fresh.run("lcc")
        np.testing.assert_array_equal(res.lcc, ref.lcc)
        assert_scores_raw(res, session.graph)

    def test_cacheless_session_update(self, graph):
        cfg = LCCConfig(nranks=4, threads=2)
        with Session(graph, cfg) as session:
            session.run("lcc")
            out = session.apply_updates(
                random_update_batch(graph, 10, 0.25, seed=BATCH_SEED + 6))
            assert out.invalidated_entries == 0
            res = session.run("lcc")
        from repro.core.local import lcc_local

        np.testing.assert_allclose(res.lcc, lcc_local(session.graph))

    def test_closed_session_rejects_updates(self, graph):
        session = Session(graph, cached_config(graph))
        session.close()
        with pytest.raises(KernelError):
            session.apply_updates(UpdateBatch.build(n=graph.n))

    def test_update_cost_priced_under_resident_memory_model(self, graph):
        """A per-run override config shapes the resident cluster; update
        costs must use that cluster's memory model, not the default."""
        from repro.runtime.network import MemoryModel

        slow = MemoryModel(dram_latency=1e-3)  # 10000x the default latency
        batch = random_update_batch(graph, 10, 0.25, seed=BATCH_SEED + 7)
        with Session(graph, cached_config(graph)) as default_s:
            default_s.run("lcc", keep_cache=True)
            fast_time = default_s.apply_updates(batch).time
        with Session(graph, cached_config(graph)) as s:
            s.run("lcc", config=cached_config(graph, memory=slow),
                  keep_cache=True)
            slow_time = s.apply_updates(batch).time
        assert slow_time > fast_time

    def test_updates_applied_counter(self, graph):
        with Session(graph, cached_config(graph)) as session:
            assert session.updates_applied == 0
            session.apply_updates(UpdateBatch.build(n=graph.n))
            session.apply_updates(UpdateBatch.build(n=graph.n))
            assert session.updates_applied == 2
