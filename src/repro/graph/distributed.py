"""A CSR graph distributed over simulated ranks via two RMA windows.

This is the paper's Figure 3 object: every rank exposes its partition's
``offsets`` and ``adjacencies`` arrays in the ``w_offsets`` / ``w_adj``
windows.  Reading a remote vertex's adjacency list costs exactly two gets:

1. ``(start, end) = Get(w_offsets, owner, local_index, 2)`` — where the
   list lives inside the owner's adjacency array;
2. ``list = Get(w_adj, owner, start, end - start)`` — the list itself.

Both gets go through the attached CLaMPI caches when caching is enabled.

The partitioned graph is held once, as one **rank-major CSR**: every
rank's vertices in local-index order, rank 0's first, with each rank's
offsets rebased to 0.  Each rank's two window parts are views of those
two arrays, and the replay (:mod:`repro.core.replay`) and the update
resync (:mod:`repro.dynamic.invalidate`) read the same arrays.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph, OFFSET_DTYPE, gather_ranges
from repro.graph.partition import BlockPartition1D, Partition
from repro.runtime.context import SimContext
from repro.runtime.engine import Engine
from repro.runtime.window import Window
from repro.utils.errors import PartitionError

#: Window names used throughout the library.
OFFSETS_WINDOW = "offsets"
ADJACENCY_WINDOW = "adjacencies"


class DistributedCSR:
    """Per-rank CSR partitions exposed through RMA windows."""

    def __init__(self, graph: CSRGraph, partition: Partition, engine: Engine):
        if partition.n != graph.n:
            raise PartitionError(
                f"partition over {partition.n} vertices does not match graph "
                f"with {graph.n}"
            )
        if partition.nranks != engine.nranks:
            raise PartitionError(
                f"partition for {partition.nranks} ranks does not match engine "
                f"with {engine.nranks}"
            )
        self.partition = partition
        self.engine = engine
        offsets_parts, adjacency_parts = self._build(graph)
        self.w_offsets = engine.windows.add(Window(OFFSETS_WINDOW, offsets_parts))
        self.w_adj = engine.windows.add(Window(ADJACENCY_WINDOW, adjacency_parts))
        # Scratch for repro.core.replay: per-rank access streams, valid
        # until rebind_graph (they follow the partitioned CSR).  The
        # per-vertex scores are not here: they live on ``graph.scores``.
        self._replay_memo: dict = {}

    def _build(self, graph: CSRGraph) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Hold ``graph`` as the rank-major CSR; return every rank's
        ``(offsets, adjacency)`` window parts, views of its two arrays.

        ``vs[vbound[r]:vbound[r + 1]]`` are rank ``r``'s vertices in
        local-index order, and ``owner`` / ``local`` give each global id's
        rank and local index.  ``offsets`` (length ``n + p``) holds rank
        ``r``'s rebased offsets at ``vbound[r] + r`` onwards, and
        ``adjacency`` its rows, global ids, in the same order.  Both
        arrays are fresh: a put into a window part must not reach the
        graph's own arrays, which its versions share.
        """
        part, nranks = self.partition, self.partition.nranks
        ids = np.arange(graph.n, dtype=np.int64)
        owner = part.owners(ids).astype(np.int64)
        local = part.to_local_many(ids).astype(np.int64)
        counts = np.bincount(owner, minlength=nranks)
        vbound = np.zeros(nranks + 1, dtype=np.int64)
        np.cumsum(counts, out=vbound[1:])
        vs = np.empty(graph.n, dtype=np.int64)
        vs[vbound[owner] + local] = ids

        starts = graph.offsets[vs]
        adjacency, estart = gather_ranges(graph.adjacency, starts,
                                          graph.offsets[vs + 1] - starts)
        ebound = estart[vbound]
        rank_of = owner[vs]
        offsets = np.zeros(graph.n + nranks, dtype=OFFSET_DTYPE)
        offsets[ids + rank_of + 1] = estart[1:] - ebound[rank_of]

        self.graph = graph
        self.vs, self.vbound, self.owner, self.local = vs, vbound, owner, local
        self.offsets, self.adjacency = offsets, adjacency
        o, e = (vbound + np.arange(nranks + 1)).tolist(), ebound.tolist()
        return ([offsets[o[r]:o[r + 1]] for r in range(nranks)],
                [adjacency[e[r]:e[r + 1]] for r in range(nranks)])

    # -- epochs -------------------------------------------------------------
    def open_epochs(self) -> None:
        """``MPI_Win_lock_all`` on both windows for every rank."""
        for rank in range(self.engine.nranks):
            self.w_offsets.lock_all(rank)
            self.w_adj.lock_all(rank)

    def close_epochs(self) -> None:
        """``MPI_Win_unlock_all`` everywhere; fires cache epoch hooks."""
        for rank in range(self.engine.nranks):
            if self.w_offsets.epoch_open(rank):
                self.w_offsets.unlock_all(rank)
            if self.w_adj.epoch_open(rank):
                self.w_adj.unlock_all(rank)
            ctx = self.engine.contexts[rank]
            for win in (self.w_offsets, self.w_adj):
                cache = ctx.cache_for(win)
                if cache is not None:
                    cache.on_epoch_close()

    # -- dynamic updates -----------------------------------------------------
    def rebind_graph(self, graph: CSRGraph) -> None:
        """Hold the post-update ``graph`` (dynamic-graph resync).

        Rebuilds the rank-major CSR, points every rank's window parts at
        it and drops the access-stream memos (scores need no clearing:
        ``graph`` carries its own record).  A rank whose rows the update
        left alone exposes the same bytes at the same offsets, so its
        cache entries stay valid; the caller invalidates the rest, from
        the old parts it kept (:func:`repro.dynamic.invalidate
        .resync_distributed`).
        """
        if graph.n != self.partition.n:
            raise PartitionError(
                f"updated graph has {graph.n} vertices, partition covers "
                f"{self.partition.n}")
        offsets_parts, adjacency_parts = self._build(graph)
        for rank in range(self.partition.nranks):
            self.w_offsets.replace_part(rank, offsets_parts[rank])
            self.w_adj.replace_part(rank, adjacency_parts[rank])
        self._replay_memo.clear()

    # -- vertex access -------------------------------------------------------
    def local_vertices(self, rank: int) -> np.ndarray:
        """Global ids of the vertices ``rank`` owns, in local-index order."""
        return self.vs[self.vbound[rank]:self.vbound[rank + 1]]

    def local_adj(self, rank: int, v: int) -> np.ndarray:
        """Zero-copy adjacency list of a locally-owned vertex."""
        li = self.partition.to_local(v)
        offs = self.w_offsets.local_part(rank)
        return self.w_adj.local_part(rank)[offs[li]:offs[li + 1]]

    def read_adjacency(self, ctx: SimContext, v: int) -> np.ndarray:
        """The two-get remote protocol (or a direct read when local).

        Charges the context's clock for both gets; cache interception is
        automatic when caches are attached.
        """
        owner = self.partition.owner(v)
        li = self.partition.to_local(v)
        if owner == ctx.rank:
            return ctx.get(self.w_adj, owner,
                           int(self.w_offsets.local_part(owner)[li]),
                           int(self.local_adj(owner, v).shape[0]))
        pair = ctx.get(self.w_offsets, owner, li, 2)
        start, end = int(pair[0]), int(pair[1])
        return ctx.get(self.w_adj, owner, start, end - start)

    def read_adjacency_timed(self, ctx: SimContext, v: int
                             ) -> tuple[np.ndarray, float]:
        """Like :meth:`read_adjacency` but returns (data, duration) without
        advancing the clock — used by the double-buffering pipeline."""
        owner = self.partition.owner(v)
        li = self.partition.to_local(v)
        if owner == ctx.rank:
            offs = self.w_offsets.local_part(owner)
            start, end = int(offs[li]), int(offs[li + 1])
            return ctx.get_nowait(self.w_adj, owner, start, end - start)
        pair, t1 = ctx.get_nowait(self.w_offsets, owner, li, 2)
        start, end = int(pair[0]), int(pair[1])
        data, t2 = ctx.get_nowait(self.w_adj, owner, start, end - start)
        return data, t1 + t2

    # -- sizing helpers (cache configuration) ----------------------------------
    def nonlocal_adjacency_nbytes(self, rank: int) -> int:
        """Bytes of adjacency data *not* owned by ``rank``.

        Figure 8 sizes ``C_adj`` as 25% of this quantity.
        """
        return self.w_adj.total_nbytes() - self.w_adj.part_nbytes(rank)

    def csr_nbytes(self) -> int:
        """Total distributed CSR footprint (offsets + adjacency windows)."""
        return self.w_offsets.total_nbytes() + self.w_adj.total_nbytes()


def distribute(graph: CSRGraph, engine: Engine,
               partition: Partition | None = None) -> DistributedCSR:
    """Convenience: distribute ``graph`` with 1D block partitioning."""
    part = partition or BlockPartition1D(graph.n, engine.nranks)
    return DistributedCSR(graph, part, engine)
