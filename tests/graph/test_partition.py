"""Tests for the partitioning schemes."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.graph.partition import BlockPartition1D, CyclicPartition1D
from repro.utils.errors import PartitionError
from tests.helpers import window_parts


class TestBlockPartition:
    def test_even_split(self):
        p = BlockPartition1D(16, 4)
        assert p.range_of(0) == (0, 4)
        assert p.range_of(3) == (12, 16)
        assert p.owner(0) == 0
        assert p.owner(5) == 1
        assert p.owner(15) == 3

    def test_uneven_split(self):
        p = BlockPartition1D(10, 4)  # 3,3,2,2
        counts = [p.local_count(r) for r in range(4)]
        assert counts == [3, 3, 2, 2]
        assert sum(counts) == 10

    def test_paper_formula(self):
        # V_k = { v_i : i in ((k-1) n/p, k n/p] } with 1-based k.
        n, p = 64, 8
        part = BlockPartition1D(n, p)
        for k in range(1, p + 1):
            lo, hi = part.range_of(k - 1)
            assert lo == (k - 1) * n // p
            assert hi == k * n // p

    def test_owner_to_local_consistency(self):
        p = BlockPartition1D(100, 7)
        for v in range(100):
            r = p.owner(v)
            li = p.to_local(v)
            assert p.local_vertices(r)[li] == v

    def test_vectorized_matches_scalar(self):
        p = BlockPartition1D(100, 7)
        vs = np.arange(100)
        np.testing.assert_array_equal(p.owners(vs),
                                      [p.owner(v) for v in vs])
        np.testing.assert_array_equal(p.to_local_many(vs),
                                      [p.to_local(v) for v in vs])

    def test_out_of_range_rejected(self):
        p = BlockPartition1D(10, 2)
        with pytest.raises(PartitionError):
            p.owner(10)
        with pytest.raises(PartitionError):
            p.local_vertices(2)

    def test_single_rank(self):
        p = BlockPartition1D(5, 1)
        assert all(p.owner(v) == 0 for v in range(5))


class TestCyclicPartition:
    def test_round_robin(self):
        p = CyclicPartition1D(10, 3)
        assert [p.owner(v) for v in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_local_indexing(self):
        p = CyclicPartition1D(10, 3)
        np.testing.assert_array_equal(p.local_vertices(1), [1, 4, 7])
        assert p.to_local(7) == 2

    def test_balances_degree_ordered_hubs(self):
        # Build an explicitly degree-ordered graph (id 0 = highest degree),
        # the input class the paper says needs relabeling or cyclic
        # distribution: block then piles all hubs onto rank 0.
        import numpy as np

        from repro.graph.csr import CSRGraph
        from repro.graph.generators import powerlaw_configuration

        g0 = powerlaw_configuration(512, 4096, seed=1)
        order = np.argsort(-g0.degrees())          # ids sorted by degree desc
        rank_of = np.empty(g0.n, dtype=np.int64)
        rank_of[order] = np.arange(g0.n)
        e = g0.edges()
        e = e[e[:, 0] < e[:, 1]]
        g = CSRGraph.from_edges(
            np.column_stack([rank_of[e[:, 0]], rank_of[e[:, 1]]]), g0.n)
        deg = g.degrees()
        block = BlockPartition1D(g.n, 4)
        cyclic = CyclicPartition1D(g.n, 4)

        def max_rank_degree_sum(part):
            return max(int(deg[part.local_vertices(r)].sum()) for r in range(4))

        assert max_rank_degree_sum(cyclic) < max_rank_degree_sum(block)

    def test_vectorized_matches_scalar(self):
        p = CyclicPartition1D(50, 4)
        vs = np.arange(50)
        np.testing.assert_array_equal(p.owners(vs), vs % 4)
        np.testing.assert_array_equal(p.to_local_many(vs), vs // 4)


class TestSplitCSR:
    @pytest.mark.parametrize("partition_cls", [BlockPartition1D,
                                               CyclicPartition1D])
    def test_split_preserves_adjacency(self, partition_cls):
        g = rmat(7, 8, seed=2)
        part = partition_cls(g.n, 4)
        offsets_parts, adjacency_parts = window_parts(g, part)
        for r in range(4):
            vs = part.local_vertices(r)
            offs = offsets_parts[r]
            adj = adjacency_parts[r]
            assert offs[0] == 0
            assert offs[-1] == adj.shape[0]
            for li, v in enumerate(vs):
                np.testing.assert_array_equal(
                    adj[offs[li]:offs[li + 1]], g.adj(int(v)),
                    err_msg=f"rank {r} vertex {v}")

    def test_split_covers_all_edges(self):
        g = rmat(7, 8, seed=2)
        part = BlockPartition1D(g.n, 4)
        _, adjacency_parts = window_parts(g, part)
        total = sum(a.shape[0] for a in adjacency_parts)
        assert total == g.num_adjacency_entries

    def test_empty_rank(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        part = BlockPartition1D(g.n, 8)  # more ranks than vertices
        offsets_parts, adjacency_parts = window_parts(g, part)
        assert len(offsets_parts) == 8
        for r in range(3, 8):
            assert adjacency_parts[r].shape[0] == 0
