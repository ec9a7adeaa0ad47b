"""Partition-aligned shard geometry for one logical graph.

A :class:`ShardPlan` cuts an ``n``-vertex graph into ``nshards``
contiguous vertex ranges whose boundaries are **snapped to resident
-cluster boundaries**: either the 1D rank partition
(:class:`~repro.graph.partition.BlockPartition1D` — every serving rank's
range lands inside exactly one shard) or the 2D grid's block rows
(:class:`~repro.graph.partition2d.GridPartition2D` — every block row of
the ``tc2d`` grid lands inside one shard).  That alignment is the whole
point: a resident cluster of either kind, as
:meth:`~repro.graphstore.resident.ResidentCluster.acquire` builds it,
never straddles shards, so shard-local storage and rank-local compute
agree on where data lives.

Why grouping, not re-dividing: ``BlockPartition1D(n, nshards)``
boundaries are generally *not* a subset of ``BlockPartition1D(n,
nranks)`` boundaries (``n=10, nranks=4`` puts starts at ``[0, 3, 6, 8,
10]`` while 2 shards would want ``[0, 5, 10]``).  So a plan is built by
**grouping whole rank ranges** — ``nranks`` must divide into
``nshards`` even groups — which makes the subset property structural
instead of accidental.

The plan also owns the bit-identity machinery:

* :meth:`slice_shard` — one shard's rows of a global CSR, kept in
  global vertex ids (offsets flat outside the owned range, ``directed=
  True`` because a row slice of an undirected graph is not symmetric);
* :meth:`assemble` — concatenate shard slices back into the global CSR.
  Because slices partition the rows and CSR adjacency is
  row-major, assembly is exact: the assembled bytes equal the unsharded
  graph's bytes, which is what the sharded store's digest proof checks;
* :meth:`split_batch` — split an :class:`~repro.dynamic.delta
  .UpdateBatch` into per-shard sub-batches by the *source* vertex of
  each stored-form key (an undirected batch carries both directions, so
  each direction lands on the shard owning its row).
"""

from __future__ import annotations

import numpy as np

from repro.dynamic.delta import UpdateBatch
from repro.graph.csr import CSRGraph, OFFSET_DTYPE, VERTEX_DTYPE
from repro.graph.partition import BlockPartition1D
from repro.graph.partition2d import GridPartition2D
from repro.utils.errors import PartitionError

__all__ = ["ShardPlan"]


class ShardPlan:
    """Contiguous vertex ranges, snapped to a resident partitioning.

    Build with :meth:`align_1d` (group 1D rank ranges) or
    :meth:`align_2d` (group the 2D grid's block rows); the raw
    constructor accepts explicit boundary starts for tests and tools.
    """

    def __init__(self, n: int, starts: np.ndarray):
        starts = np.asarray(starts, dtype=np.int64)
        if starts.ndim != 1 or starts.shape[0] < 2:
            raise PartitionError(
                f"shard starts must be a 1D array of >= 2 boundaries, "
                f"got shape {starts.shape}")
        if starts[0] != 0 or starts[-1] != n:
            raise PartitionError(
                f"shard starts must run 0..{n}, got "
                f"[{int(starts[0])}..{int(starts[-1])}]")
        if np.any(np.diff(starts) < 0):
            raise PartitionError("shard starts must be non-decreasing")
        self.n = int(n)
        self._starts = starts

    # -- construction --------------------------------------------------------
    @classmethod
    def align_1d(cls, n: int, nranks: int, nshards: int) -> "ShardPlan":
        """Shards as groups of contiguous 1D rank ranges.

        Requires ``nshards`` to divide ``nranks``: shard ``s`` owns the
        ranges of ranks ``[s*k, (s+1)*k)`` with ``k = nranks //
        nshards``, so every rank's vertex range lies inside one shard.
        """
        cls._check_divides(nranks, nshards, "nranks")
        part = BlockPartition1D(n, nranks)
        k = nranks // nshards
        return cls(n, part._starts[::k])

    @classmethod
    def align_2d(cls, n: int, nranks: int, nshards: int) -> "ShardPlan":
        """Shards as groups of the 2D grid's block rows.

        Requires ``nshards`` to divide the grid's row count (for a
        square grid of ``nranks = r*r``, that is ``r``), so every
        ``tc2d`` block row — and with it every grid rank's row range —
        lies inside one shard.
        """
        grid = GridPartition2D(n, nranks)
        cls._check_divides(grid.rows, nshards,
                           f"the {grid.rows}x{grid.cols} grid's row count")
        k = grid.rows // nshards
        return cls(n, grid._row_starts[::k])

    @staticmethod
    def _check_divides(parts: int, nshards: int, what: str) -> None:
        if nshards < 1:
            raise PartitionError(f"need >= 1 shard, got {nshards}")
        if parts % nshards != 0:
            raise PartitionError(
                f"{nshards} shards must evenly group {what} ({parts}); "
                "boundaries would otherwise straddle resident clusters")

    # -- geometry ------------------------------------------------------------
    @property
    def nshards(self) -> int:
        return self._starts.shape[0] - 1

    @property
    def starts(self) -> np.ndarray:
        """Boundary starts, ``[0, ..., n]`` (read-only view)."""
        return self._starts

    def range_of(self, shard: int) -> tuple[int, int]:
        """Half-open global-id range owned by ``shard``."""
        if not (0 <= shard < self.nshards):
            raise PartitionError(
                f"shard {shard} out of range [0, {self.nshards})")
        return int(self._starts[shard]), int(self._starts[shard + 1])

    def shard_of(self, v: int) -> int:
        """Shard owning vertex ``v``."""
        if not (0 <= v < self.n):
            raise PartitionError(f"vertex {v} out of range [0, {self.n})")
        return int(np.searchsorted(self._starts, v, side="right") - 1)

    def owners(self, vs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`shard_of`."""
        return np.searchsorted(self._starts, np.asarray(vs),
                               side="right") - 1

    def aligns_with(self, starts) -> bool:
        """Is every shard boundary also a boundary of ``starts``?

        ``starts`` is a partition's boundary array (e.g. ``BlockPartition
        1D._starts``); True means no range of that partition straddles a
        shard boundary — resident acquisition stays shard-local.
        """
        return bool(np.isin(self._starts, np.asarray(starts)).all())

    # -- update routing ------------------------------------------------------
    def touched_shards(self, batch: UpdateBatch) -> frozenset:
        """Shards whose rows the batch's stored-form keys touch."""
        self._check_batch(batch)
        keys = np.concatenate([batch.insert_keys, batch.delete_keys])
        if keys.size == 0:
            return frozenset()
        return frozenset(int(s) for s in
                         np.unique(self.owners(keys // self.n)))

    def split_batch(self, batch: UpdateBatch) -> dict[int, UpdateBatch]:
        """Per-shard sub-batches, keyed by touched shard id.

        Stored-form keys are ``u * n + v`` sorted ascending, so each
        shard's keys form one contiguous segment at the key boundaries
        ``start[s] * n``.  Sub-batches are **directed** batches over the
        full vertex universe — exactly what the shard's directed row
        slice applies — and an untouched shard gets no entry at all.
        """
        self._check_batch(batch)
        out: dict[int, UpdateBatch] = {}
        bounds = self._starts * np.int64(self.n)
        empty = np.empty(0, dtype=np.int64)
        ins_cuts = np.searchsorted(batch.insert_keys, bounds)
        del_cuts = np.searchsorted(batch.delete_keys, bounds)
        for s in range(self.nshards):
            ins = batch.insert_keys[ins_cuts[s]:ins_cuts[s + 1]]
            dels = batch.delete_keys[del_cuts[s]:del_cuts[s + 1]]
            if ins.size == 0 and dels.size == 0:
                continue
            out[s] = UpdateBatch(n=batch.n, directed=True,
                                 insert_keys=ins if ins.size else empty,
                                 delete_keys=dels if dels.size else empty)
        return out

    def _check_batch(self, batch: UpdateBatch) -> None:
        if batch.n != self.n:
            raise PartitionError(
                f"batch over {batch.n} vertices does not match the "
                f"plan's {self.n}")

    # -- slicing / assembly --------------------------------------------------
    def slice_shard(self, graph: CSRGraph, shard: int) -> CSRGraph:
        """One shard's rows of ``graph``, in global ids over all ``n``.

        Offsets are flat (degree 0) outside the owned range, so the
        slice is a standalone CSR any update machinery can apply
        sub-batches to.  The slice is ``directed=True`` regardless of
        the logical graph: a row range of an undirected CSR is not
        symmetric, and keeping stored-form direction is what makes
        per-shard application exact.
        """
        if graph.n != self.n:
            raise PartitionError(
                f"graph with {graph.n} vertices does not match the "
                f"plan's {self.n}")
        lo, hi = self.range_of(shard)
        offsets = np.zeros(self.n + 1, dtype=OFFSET_DTYPE)
        base = graph.offsets[lo]
        offsets[lo:hi + 1] = graph.offsets[lo:hi + 1] - base
        offsets[hi + 1:] = offsets[hi]
        adjacency = np.ascontiguousarray(
            graph.adjacency[base:graph.offsets[hi]], dtype=VERTEX_DTYPE)
        name = f"{graph.name}:shard{shard}" if graph.name else f"shard{shard}"
        return CSRGraph(offsets, adjacency, directed=True, name=name)

    def assemble(self, slices: list[CSRGraph], *, directed: bool,
                 name: str | None = None) -> CSRGraph:
        """Concatenate per-shard slices back into the global CSR.

        The inverse of :meth:`slice_shard` applied to every shard: row
        degrees concatenate in shard order (ranges partition ``[0,
        n)``), adjacency segments concatenate likewise.  Applying a
        batch per-shard and assembling yields bytes identical to
        applying the whole batch to the unsharded graph — the invariant
        the sharded store's commit digest proves on every apply.
        """
        if len(slices) != self.nshards:
            raise PartitionError(
                f"expected {self.nshards} slices, got {len(slices)}")
        degrees, parts = [], []
        for s, piece in enumerate(slices):
            if piece.n != self.n:
                raise PartitionError(
                    f"slice {s} covers {piece.n} vertices, expected {self.n}")
            lo, hi = self.range_of(s)
            degrees.append(piece.offsets[lo + 1:hi + 1] - piece.offsets[lo:hi])
            parts.append(piece.adjacency[piece.offsets[lo]:piece.offsets[hi]])
        offsets = np.zeros(self.n + 1, dtype=OFFSET_DTYPE)
        if degrees:
            np.cumsum(np.concatenate(degrees), out=offsets[1:])
        adjacency = (np.concatenate(parts) if parts
                     else np.empty(0, dtype=VERTEX_DTYPE))
        return CSRGraph(offsets, np.ascontiguousarray(adjacency,
                                                      dtype=VERTEX_DTYPE),
                        directed=directed, name=name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        ranges = ", ".join(f"[{int(a)},{int(b)})" for a, b in
                           zip(self._starts[:-1], self._starts[1:]))
        return f"ShardPlan(n={self.n}, {ranges})"
