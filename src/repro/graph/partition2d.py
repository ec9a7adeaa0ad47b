"""2D (grid) edge partitioning — the paper's future-work direction i.

The conclusion plans "new asynchronous algorithms for TC/LCC based on
distribution schema that have lower communication costs than 1D
distribution", citing 2.5D matrix-multiplication work; the related-work
section describes 2D partitioning as assigning *edges* to a process grid
(Tom & Karypis).  This module provides that substrate:

ranks form an ``r x c`` grid; edge ``(u, v)`` lives on rank
``grid[row_block(u)][col_block(v)]``.  A rank therefore owns the adjacency
*block* A[I, J] for its row range I and column range J.  For triangle
counting, the classic consequence is that the lists needed to close a
wedge are found within one grid row + one grid column — O(sqrt(p)) peers —
instead of potentially all ``p`` peers under 1D.

:func:`tc2d_communication_volume` quantifies that saving analytically and
is exercised by the ablation benchmark; a full asynchronous 2D TC kernel
is provided by :func:`repro.core.tc2d.run_distributed_tc_2d`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graph.csr import CSRGraph, _check_vertex_range
from repro.utils.errors import PartitionError


def _validate_edge_array(edges: np.ndarray, n: int) -> np.ndarray:
    """Validate an (m, 2) edge array against an ``n``-vertex universe.

    Mirrors :meth:`CSRGraph.from_edges`: the array must be integer-typed
    with every id in ``[0, n)``; the whole array is checked in one
    vectorized pass (min/max), not one vertex at a time.  Returns the
    array as int64.
    """
    e = np.asarray(edges)
    if e.ndim != 2 or e.shape[1] != 2:
        raise PartitionError(f"edges must be (m, 2), got shape {e.shape}")
    if e.dtype.kind not in "iu":
        raise PartitionError(
            f"edges must be an integer array, got dtype {e.dtype}")
    if e.size:
        if int(e.min()) < 0:
            raise PartitionError("negative vertex id in edge array")
        if int(e.max()) >= n:
            raise PartitionError(
                f"vertex id {int(e.max())} out of range for n={n}")
    return e.astype(np.int64, copy=False)


class GridPartition2D:
    """An ``r x c`` process grid over the vertex-pair space.

    Vertices are split into ``r`` row blocks and ``c`` column blocks
    (balanced contiguous ranges); rank ``(i, j)`` — linearized as
    ``i * c + j`` — owns the directed edges whose source falls in row
    block ``i`` and destination in column block ``j``.
    """

    def __init__(self, n: int, nranks: int):
        if nranks < 1:
            raise PartitionError(f"need >= 1 rank, got {nranks}")
        if n < 0:
            raise PartitionError(f"negative vertex count {n}")
        _check_vertex_range(n)  # same int32-wrap guard as CSRGraph.from_edges
        self.n = int(n)
        self.nranks = int(nranks)
        self.rows = int(math.isqrt(nranks))
        while nranks % self.rows != 0:
            self.rows -= 1
        self.cols = nranks // self.rows
        self._row_starts = self._ranges(self.rows)
        self._col_starts = self._ranges(self.cols)

    def _ranges(self, parts: int) -> np.ndarray:
        base, extra = divmod(self.n, parts)
        counts = np.full(parts, base, dtype=np.int64)
        counts[:extra] += 1
        starts = np.zeros(parts + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        return starts

    # -- mapping ----------------------------------------------------------------
    def row_of(self, v: int) -> int:
        """Row block of vertex ``v``."""
        self._check_vertex(v)
        return int(np.searchsorted(self._row_starts, v, side="right") - 1)

    def col_of(self, v: int) -> int:
        """Column block of vertex ``v``."""
        self._check_vertex(v)
        return int(np.searchsorted(self._col_starts, v, side="right") - 1)

    def owner_of_edge(self, u: int, v: int) -> int:
        """Linearized rank owning directed edge ``(u, v)``."""
        return self.row_of(u) * self.cols + self.col_of(v)

    def owners_of_edges(self, edges: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`owner_of_edge` for an (m, 2) array.

        The whole array is range-validated in one pass (the scalar
        ``_check_vertex`` loop would dominate on large edge sets); a
        malformed or out-of-range array is rejected exactly as
        :meth:`CSRGraph.from_edges` rejects it.
        """
        edges = _validate_edge_array(edges, self.n)
        rows = np.searchsorted(self._row_starts, edges[:, 0], side="right") - 1
        cols = np.searchsorted(self._col_starts, edges[:, 1], side="right") - 1
        return rows * self.cols + cols

    def grid_coords(self, rank: int) -> tuple[int, int]:
        """(row, col) of a linearized rank."""
        if not (0 <= rank < self.nranks):
            raise PartitionError(f"rank {rank} out of range [0, {self.nranks})")
        return rank // self.cols, rank % self.cols

    def row_range(self, row: int) -> tuple[int, int]:
        return int(self._row_starts[row]), int(self._row_starts[row + 1])

    def col_range(self, col: int) -> tuple[int, int]:
        return int(self._col_starts[col]), int(self._col_starts[col + 1])

    def row_peers(self, rank: int) -> list[int]:
        """Ranks sharing this rank's grid row (the wedge-closure partners)."""
        row, _ = self.grid_coords(rank)
        return [row * self.cols + j for j in range(self.cols)]

    def col_peers(self, rank: int) -> list[int]:
        """Ranks sharing this rank's grid column."""
        _, col = self.grid_coords(rank)
        return [i * self.cols + col for i in range(self.rows)]

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise PartitionError(f"vertex {v} out of range [0, {self.n})")


def communication_peers_1d(graph: CSRGraph, nranks: int) -> float:
    """Average number of distinct peers a rank reads from under 1D."""
    from repro.graph.partition import BlockPartition1D

    part = BlockPartition1D(graph.n, nranks)
    edges = graph.edges()
    src_owner = part.owners(edges[:, 0])
    dst_owner = part.owners(edges[:, 1])
    peers = {
        r: set(dst_owner[(src_owner == r) & (dst_owner != r)].tolist())
        for r in range(nranks)
    }
    return float(np.mean([len(p) for p in peers.values()]))


def communication_peers_2d(nranks: int) -> float:
    """Peer count under 2D: a rank only talks within its row and column."""
    rows = int(math.isqrt(nranks))
    while nranks % rows != 0:
        rows -= 1
    cols = nranks // rows
    return float(rows + cols - 2)
