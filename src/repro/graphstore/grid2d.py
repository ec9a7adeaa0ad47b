"""The resident 2D grid cluster: the one place a 2D grid is built.

:class:`GridCluster2D` is the 2D kind of
:class:`~repro.graphstore.resident.ResidentCluster`.  The base owns the
lifecycle — acquire, cache set-up and detach, epochs, the resync
skeleton and its pricing, teardown — and this module supplies what is
2D about it:

* **build** — the :class:`~repro.graph.partition2d.GridPartition2D`
  and one RMA window over the packed blocks.  A block lives once, as
  its packed window part sliced straight from the CSR
  (:func:`repro.core.tc2d.build_block`); the kernels read it from the
  window, and :meth:`acquire` returns the cluster itself;
* **block caches** — with a cache spec configured, each rank gets a
  CLaMPI cache over the packed-blocks window, driven by the spec's mode,
  score policy and adaptive sizing, so repeated block fetches hit
  locally like the 1D kernels' adjacency reads;
* **dispatch** — each query is clocked one of two ways.  A fast query
  (``fast_path`` on) on a square grid replays the epoch's SUMMA panels
  (:meth:`GridCluster2D.panel_state`): ``tc2d`` with or without block
  caches, ``tc2d_spgemm`` and ``lcc2d``.  Every other query runs the
  scalar loop :func:`repro.core.tc2d.execute_tc2d`, the oracle the
  replay is pinned bit-identical against;
* **diff** — the touched units of a resync are ``(row, col)`` *blocks*.
  A changed edge ``(u, v)`` (both stored directions) dirties exactly
  block ``(row_block(u), col_block(v))``; only those blocks are rebuilt
  (:func:`repro.core.tc2d.build_block` — one row-range slice of the new
  CSR), their window parts swapped (the only copy there is), their
  packed-block cache entries invalidated while every other block's
  cached bytes stay warm, and the epoch's panels retired.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Optional

import numpy as np

from repro.clampi.stats import CacheStats
from repro.clampi.wrapper import attach_per_rank, degree_app_score
from repro.core.config import CacheSpec, DistributedRunResult, LCCConfig
from repro.core.linalg import (
    build_round_streams,
    execute_lcc2d,
    execute_tc2d_spgemm,
    summa_stats,
)
from repro.core.tc2d import (
    BLOCKS_WINDOW,
    build_block,
    build_grid_blocks,
    execute_tc2d,
    require_square_grid,
)
from repro.dynamic.delta import DeltaResult
from repro.graph.csr import CSRGraph
from repro.graph.partition2d import GridPartition2D
from repro.graphstore.resident import ClusterResync, ResidentCluster
from repro.runtime.window import Window

__all__ = ["GridCluster2D", "stale_block_keys", "touched_blocks"]


def touched_blocks(grid: GridPartition2D, changed_keys: np.ndarray, n: int
                   ) -> tuple[int, ...]:
    """Ranks whose block a set of changed stored-form edge keys dirties.

    Each key encodes a stored directed edge ``u * n + v``; undirected
    batches carry both directions, so both of an edge's mirror blocks
    appear.  The lookup is one vectorized pass (no per-edge Python).
    """
    if changed_keys.size == 0:
        return ()
    edges = np.column_stack([changed_keys // n, changed_keys % n])
    return tuple(int(r) for r in np.unique(grid.owners_of_edges(edges)))


def stale_block_keys(rank: int, old_packed: np.ndarray,
                     new_packed: np.ndarray) -> np.ndarray:
    """Cache keys invalidated by swapping one rank's packed block.

    Block fetches are whole-part reads keyed ``(rank, 0, part_len)``, so
    at most one key per block can be live; it survives only if the new
    packed bytes are identical (same retention criterion as the 1D
    :func:`~repro.dynamic.invalidate.stale_part_keys`).  Returned as
    ``(k, 3)`` int64 key columns with ``k`` 0 or 1.
    """
    if (old_packed.shape[0] == new_packed.shape[0]
            and np.array_equal(old_packed, new_packed)):
        return np.zeros((0, 3), dtype=np.int64)
    return np.array([[rank, 0, old_packed.shape[0]]], dtype=np.int64)


class GridCluster2D(ResidentCluster):
    """An ``r x c`` grid of adjacency blocks held resident across queries.

    The shape is ``nranks`` and the network/memory/compute models; a
    build slices one packed block per rank from the CSR and exposes them
    through one window, their only copy.
    """

    kind = "2d"
    shape_fields = ("nranks", "network", "memory", "compute")
    acquire = ResidentCluster.acquire
    resync = ResidentCluster.resync

    def __init__(self) -> None:
        super().__init__()
        self._grid: Optional[GridPartition2D] = None
        self._win: Optional[Window] = None
        # _epoch bumps whenever block state changes.
        self._epoch = 0
        # Resident SUMMA panels: the per-round masked-product tables and
        # per-rank block-fetch streams every fast square-grid query
        # replays.  Pure functions of block state, so they live and die
        # with _epoch — a resync that swaps a block rebuilds them once,
        # and every warm query after that replays the same tables.
        self._panel_memo: Optional[tuple[int, Any, list]] = None

    def _build(self, graph: CSRGraph, config: LCCConfig) -> tuple[Window, ...]:
        self._grid = GridPartition2D(graph.n, config.nranks)
        self._win = self._engine.windows.add(
            Window(BLOCKS_WINDOW, build_grid_blocks(graph, self._grid)))
        self._epoch += 1
        return (self._win,)

    def _make_caches(self, spec: CacheSpec) -> list:
        """One cache per rank over the packed blocks, sized ``adj_bytes``
        (none when that is zero); an application-score policy scores a
        block by its fetched length, as on the 1D ``C_adj``."""
        if spec.adj_bytes <= 0:
            return []
        policy = spec.make_policy()
        return attach_per_rank(
            self._engine.contexts, self._win, capacity_bytes=spec.adj_bytes,
            mode=spec.mode, score_policy=policy, adaptive=spec.adaptive,
            app_score_fn=degree_app_score if policy.uses_app_score else None)

    def _handles(self) -> "GridCluster2D":
        """The cluster: the 2D kernels run through its ``execute*``."""
        return self

    def _release(self) -> None:
        self._grid = None
        self._win = None
        self._panel_memo = None

    def panel_state(self):
        """The resident SUMMA panels: ``(stats, streams)`` for this epoch.

        Built once per state epoch from the resident graph (square
        grids only) and reused by every fast query until a resync swaps
        a block (which bumps ``_epoch`` and retires the tables).
        """
        if self._panel_memo is None or self._panel_memo[0] != self._epoch:
            stats = summa_stats(self.graph, self._grid)
            streams = build_round_streams(self._grid, self._win)
            self._panel_memo = (self._epoch, stats, streams)
        return self._panel_memo[1], self._panel_memo[2]

    def execute(self, config: LCCConfig) -> DistributedRunResult:
        """Run the edge-centric ``tc2d`` count on the resident grid.

        A fast query (``fast_path`` on) on a square grid replays this
        epoch's panels — through the block caches'
        :meth:`~repro.clampi.cache.ClampiCache.access_batch` when they
        are attached — bit-identical to the scalar loop (pinned by
        tests).  Every other query, and every query on a rectangular
        grid, runs :func:`~repro.core.tc2d.execute_tc2d`: the oracle.
        """
        if self._fast(config):
            return self._query(config, partial(execute_tc2d_spgemm,
                                               with_cache_stats=False))
        return self._query(config)

    def execute_spgemm(self, config: LCCConfig) -> DistributedRunResult:
        """Run the algebraic ``tc2d_spgemm`` kernel on the resident grid.

        Square grids only (strict guard).  A query off the fast path runs
        the scalar edge-centric loop instead — the two price the
        identical program, so this doubles as the kernel's in-place
        oracle mode (with the same merged block-cache statistics
        attached, so the two modes stay comparable field for field).
        """
        require_square_grid(self._grid, kernel="tc2d_spgemm", strict=True)
        if self._fast(config):
            return self._query(config, execute_tc2d_spgemm)
        return self._query(config, cache_stats=True)

    def execute_lcc2d(self, config: LCCConfig) -> DistributedRunResult:
        """Run the ``lcc2d`` kernel on the resident grid (square only).

        It has no scalar loop, so every query replays the panels.
        """
        require_square_grid(self._grid, kernel="lcc2d", strict=True)
        return self._query(config, execute_lcc2d)

    def _fast(self, config: LCCConfig) -> bool:
        return config.fast_path and require_square_grid(self._grid)

    def _query(self, config: LCCConfig, replay=None, *,
               cache_stats: bool = False) -> DistributedRunResult:
        """One query on the resident grid; closes its epoch.

        ``replay`` (a :mod:`repro.core.linalg` kernel) runs from this
        epoch's panels; without one the scalar loop runs, with the merged
        block-cache statistics attached when ``cache_stats`` is set.
        """
        if replay is None:
            result = execute_tc2d(self._engine, self._grid, self._win,
                                  config, self.graph)
            if cache_stats:
                result = replace(
                    result, adj_cache_stats=CacheStats.merged(self._caches))
        else:
            stats, streams = self.panel_state()
            result = replay(self._engine, self._grid, self._win, config,
                            self.graph, stats, streams)
        self._close_epochs()  # transparent-mode caches flush here
        return result

    # -- dynamic updates -----------------------------------------------------
    def _diff(self, result: DeltaResult, rekey: bool, outcome: ClusterResync,
              inval_dt: list[float]) -> dict[int, int]:
        """Rebuild exactly the blocks a delta's changed edges dirty.

        ``rekey`` is accepted for protocol symmetry; packed blocks are
        always fetched whole from offset 0, so nothing can merely shift.
        """
        grid, win = self._grid, self._win
        rebuilt: dict[int, int] = {}
        touched: list[tuple[int, int]] = []
        for rank in touched_blocks(grid, result.changed_keys, result.graph.n):
            old_packed = win.local_part(rank)
            new_packed = build_block(result.graph, grid, rank)
            stale = stale_block_keys(rank, old_packed, new_packed)
            if not stale.shape[0]:
                continue  # the dirtying edges netted out to no byte change
            touched.append(grid.grid_coords(rank))
            for cache in self._caches:
                dropped, dropped_bytes = self._charge(
                    inval_dt, cache, cache.invalidate, stale)
                outcome.invalidated_adj_entries += dropped
                outcome.invalidated_bytes += dropped_bytes
            win.replace_part(rank, new_packed)
            self._epoch += 1
            rebuilt[rank] = int(new_packed.nbytes)
        outcome.touched = tuple(touched)
        return rebuilt
