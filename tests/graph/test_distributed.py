"""Tests for DistributedCSR and the two-get remote-read protocol."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.distributed import DistributedCSR, distribute
from repro.graph.generators import rmat
from repro.graph.partition import BlockPartition1D, CyclicPartition1D
from repro.runtime.engine import Engine
from repro.utils.errors import PartitionError


@pytest.fixture
def dist4():
    g = rmat(7, 8, seed=2)
    eng = Engine(4)
    d = distribute(g, eng)
    d.open_epochs()
    return g, eng, d


class TestConstruction:
    def test_windows_registered(self, dist4):
        g, eng, d = dist4
        assert "offsets" in eng.windows
        assert "adjacencies" in eng.windows

    def test_rank_mismatch_rejected(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        eng = Engine(2)
        with pytest.raises(PartitionError):
            DistributedCSR(g, BlockPartition1D(g.n, 4), eng)

    def test_vertex_mismatch_rejected(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        eng = Engine(2)
        with pytest.raises(PartitionError):
            DistributedCSR(g, BlockPartition1D(99, 2), eng)

    def test_adjacency_window_holds_the_graph_adjacency(self, dist4):
        g, eng, d = dist4
        assert d.w_adj.total_nbytes() == g.adjacency.nbytes


class TestLocalAccess:
    def test_local_adj_matches_graph(self, dist4):
        g, eng, d = dist4
        for rank in range(4):
            for v in d.local_vertices(rank)[:5]:
                np.testing.assert_array_equal(d.local_adj(rank, int(v)),
                                              g.adj(int(v)))


class TestRemoteRead:
    @pytest.mark.parametrize("partition_cls", [BlockPartition1D,
                                               CyclicPartition1D])
    def test_read_adjacency_matches_graph(self, partition_cls):
        g = rmat(7, 8, seed=2)
        eng = Engine(4)
        d = DistributedCSR(g, partition_cls(g.n, 4), eng)
        d.open_epochs()
        ctx = eng.contexts[0]
        for v in range(0, g.n, 7):
            np.testing.assert_array_equal(d.read_adjacency(ctx, v),
                                          g.adj(v), err_msg=f"vertex {v}")

    def test_remote_read_issues_two_gets(self, dist4):
        g, eng, d = dist4
        ctx = eng.contexts[0]
        remote_v = int(d.local_vertices(3)[0])
        before = ctx.trace.n_remote_gets
        d.read_adjacency(ctx, remote_v)
        assert ctx.trace.n_remote_gets == before + 2

    def test_local_read_issues_no_gets(self, dist4):
        g, eng, d = dist4
        ctx = eng.contexts[0]
        local_v = int(d.local_vertices(0)[0])
        d.read_adjacency(ctx, local_v)
        assert ctx.trace.n_remote_gets == 0

    def test_timed_variant_leaves_clock(self, dist4):
        g, eng, d = dist4
        ctx = eng.contexts[1]
        remote_v = int(d.local_vertices(2)[0])
        data, dt = d.read_adjacency_timed(ctx, remote_v)
        np.testing.assert_array_equal(data, g.adj(remote_v))
        assert dt > 0
        assert ctx.now == 0.0

    def test_nonlocal_nbytes(self, dist4):
        g, eng, d = dist4
        for r in range(4):
            assert (d.nonlocal_adjacency_nbytes(r)
                    == d.w_adj.total_nbytes() - d.w_adj.part_nbytes(r))


class TestEpochs:
    def test_close_epochs_fires_cache_hooks(self):
        g = rmat(6, 4, seed=1)
        eng = Engine(2)
        d = distribute(g, eng)
        d.open_epochs()

        fired = []

        class Hook:
            def access(self, *a):
                raise AssertionError

            def on_epoch_close(self):
                fired.append(True)

        eng.contexts[0].attach_cache(d.w_adj, Hook())
        d.close_epochs()
        assert fired == [True]
