"""Tests for the 2D grid partition."""

import numpy as np
import pytest

from repro.core.tc2d import build_grid_blocks
from repro.graph.generators import rmat
from repro.graph.partition2d import (
    GridPartition2D,
    communication_peers_1d,
    communication_peers_2d,
)
from repro.utils.errors import PartitionError


class TestGridGeometry:
    def test_square_grid(self):
        g = GridPartition2D(100, 16)
        assert (g.rows, g.cols) == (4, 4)

    def test_rectangular_grid(self):
        g = GridPartition2D(100, 8)
        assert g.rows * g.cols == 8
        assert g.rows in (2, 4)

    def test_prime_rank_count(self):
        g = GridPartition2D(100, 7)
        assert (g.rows, g.cols) == (1, 7)

    def test_single_rank(self):
        g = GridPartition2D(10, 1)
        assert g.owner_of_edge(0, 9) == 0

    def test_invalid_inputs(self):
        with pytest.raises(PartitionError):
            GridPartition2D(10, 0)
        with pytest.raises(PartitionError):
            GridPartition2D(-1, 4)
        with pytest.raises(PartitionError):
            GridPartition2D(10, 4).grid_coords(4)
        with pytest.raises(PartitionError):
            GridPartition2D(10, 4).row_of(10)


class TestEdgeOwnership:
    def test_owner_consistency(self):
        grid = GridPartition2D(64, 16)
        for u, v in [(0, 0), (0, 63), (63, 0), (31, 32)]:
            rank = grid.owner_of_edge(u, v)
            row, col = grid.grid_coords(rank)
            r_lo, r_hi = grid.row_range(row)
            c_lo, c_hi = grid.col_range(col)
            assert r_lo <= u < r_hi
            assert c_lo <= v < c_hi

    def test_vectorized_matches_scalar(self):
        grid = GridPartition2D(64, 8)
        rng = np.random.default_rng(1)
        edges = rng.integers(0, 64, size=(200, 2))
        vec = grid.owners_of_edges(edges)
        for i, (u, v) in enumerate(edges):
            assert vec[i] == grid.owner_of_edge(int(u), int(v))

    def test_packed_blocks_cover_all_edges(self):
        g = rmat(7, 8, seed=1)
        grid = GridPartition2D(g.n, 9)
        parts = build_grid_blocks(g, grid)
        assert sum(int(p[1]) for p in parts) == g.num_adjacency_entries

    def test_peers(self):
        grid = GridPartition2D(64, 16)
        assert len(grid.row_peers(5)) == 4
        assert len(grid.col_peers(5)) == 4
        assert 5 in grid.row_peers(5)
        assert 5 in grid.col_peers(5)


class TestCommunicationScope:
    def test_2d_fewer_peers_than_1d(self):
        g = rmat(9, 16, seed=2)
        p = 64
        assert communication_peers_2d(p) < communication_peers_1d(g, p)

    def test_2d_peer_formula(self):
        assert communication_peers_2d(16) == 6  # 4 + 4 - 2
        assert communication_peers_2d(64) == 14


class TestVectorizedValidation:
    """owners_of_edges rejects bad arrays wholesale,
    mirroring CSRGraph.from_edges (the scalar per-vertex loop is gone)."""

    def test_out_of_range_edge_array_rejected(self):
        grid = GridPartition2D(64, 8)
        with pytest.raises(PartitionError, match="out of range"):
            grid.owners_of_edges(np.array([[0, 64]]))
        with pytest.raises(PartitionError, match="negative"):
            grid.owners_of_edges(np.array([[-1, 3]]))

    def test_non_integer_edges_rejected(self):
        grid = GridPartition2D(64, 8)
        with pytest.raises(PartitionError, match="integer"):
            grid.owners_of_edges(np.array([[0.5, 3.0]]))

    def test_malformed_shape_rejected(self):
        grid = GridPartition2D(64, 8)
        with pytest.raises(PartitionError, match=r"\(m, 2\)"):
            grid.owners_of_edges(np.arange(6))

    def test_empty_edge_array_ok(self):
        grid = GridPartition2D(64, 8)
        assert grid.owners_of_edges(
            np.empty((0, 2), dtype=np.int64)).shape == (0,)

    def test_int32_wrap_guard_on_n(self):
        from repro.utils.errors import GraphFormatError

        with pytest.raises((PartitionError, GraphFormatError)):
            GridPartition2D(2**31 + 1, 4)
