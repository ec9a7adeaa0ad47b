"""The resident 2D grid cluster: the one place a 2D grid is built.

:class:`GridCluster2D` is the 2D member of the
:class:`~repro.graphstore.resident.ResidentCluster` family — engine,
:class:`~repro.graph.partition2d.GridPartition2D`, adjacency blocks and
the packed RMA window are built once and served across queries:

* **acquire** builds the grid once and resets clocks and traces per
  query, so a warm query prices exactly what a fresh grid would;
* **dispatch** — each query is clocked one of two ways.  A fast query
  (``fast_path`` on) on a square grid replays the epoch's SUMMA panels
  (:meth:`GridCluster2D.panel_state`): ``tc2d`` with or without block
  caches, ``tc2d_spgemm`` and ``lcc2d``.  Every other query runs the
  scalar loop :func:`repro.core.tc2d.execute_tc2d`, the oracle the
  replay is pinned bit-identical against;
* **resync** is the 2D analogue of :mod:`repro.dynamic.invalidate` —
  the touched units are ``(row, col)`` *blocks* instead of rank slices.
  A changed edge ``(u, v)`` (both stored directions) dirties exactly
  block ``(row_block(u), col_block(v))``; only those blocks are rebuilt
  (:func:`repro.core.tc2d.build_block` — one row-range slice of the new
  CSR, not a full edge re-split), their window regions swapped, their
  packed-block cache entries invalidated while every other block's
  cached bytes stay warm, and the epoch's panels retired;
* optional **block caches**: with a cache spec configured, each rank
  gets a CLaMPI cache over the packed-blocks window, so repeated block
  fetches hit locally exactly like the 1D kernels' adjacency reads.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Optional

import numpy as np

from repro.clampi.cache import ClampiCache, ClampiConfig
from repro.clampi.stats import CacheStats
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
    pack_block,
    require_square_grid,
)
from repro.dynamic.delta import DeltaResult
from repro.graph.csr import CSRGraph
from repro.graph.partition2d import GridPartition2D
from repro.graphstore.resident import ClusterResync, ResidentCluster
from repro.runtime.engine import Engine
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
    """An ``r x c`` grid of adjacency blocks held resident across queries."""

    kind = "2d"

    def __init__(self) -> None:
        self.graph: Optional[CSRGraph] = None
        self.grid_builds = 0
        self.last_reused = False
        self.last_warm = False
        self._engine: Optional[Engine] = None
        self._grid: Optional[GridPartition2D] = None
        self._blocks: list = []
        self._win: Optional[Window] = None
        self._caches: list[ClampiCache] = []
        self._cluster_key: Any = None
        self._cache_spec: Optional[CacheSpec] = None
        # _epoch bumps whenever block state changes.
        self._epoch = 0
        # Resident SUMMA panels: the per-round masked-product tables and
        # per-rank block-fetch streams every fast square-grid query
        # replays.  Pure functions of block state, so they live and die
        # with _epoch — a resync that swaps a block rebuilds them once,
        # and every warm query after that replays the same tables.
        self._panel_memo: Optional[tuple[int, Any, list]] = None

    @property
    def resident(self) -> bool:
        return self._engine is not None

    @property
    def caches(self) -> list:
        return list(self._caches)

    # -- acquisition ---------------------------------------------------------
    def acquire(self, graph: CSRGraph, config: LCCConfig,
                keep_cache: bool = False
                ) -> tuple[Engine, GridPartition2D, list, Window, list]:
        """Build or reuse the grid cluster for ``config``.

        Returns ``(engine, grid, blocks, window, caches)``.  Clocks and
        traces reset per query (a warm query's simulated time matches a
        standalone run); the blocks and packed window — and, with
        ``keep_cache=True``, the block-cache contents — are reused while
        the cluster shape is unchanged.
        """
        key = (config.nranks, config.network, config.memory, config.compute)
        rebuilt = self._engine is None or key != self._cluster_key
        if rebuilt:
            self._drop_caches()
            engine = Engine(config.nranks, network=config.network,
                            memory=config.memory, compute=config.compute)
            grid = GridPartition2D(graph.n, config.nranks)
            blocks = build_grid_blocks(graph, grid)
            win = engine.windows.add(
                Window(BLOCKS_WINDOW, [pack_block(b) for b in blocks]))
            self._engine, self._grid = engine, grid
            self._blocks, self._win = blocks, win
            self._cluster_key = key
            self.graph = graph
            self.grid_builds += 1
            self._epoch += 1
        engine, win = self._engine, self._win
        self._begin_query(engine, (win,))
        self._configure_caches(config, keep_cache, rebuilt)
        self.last_reused = not rebuilt
        return engine, self._grid, self._blocks, win, self._caches

    def panel_state(self):
        """The resident SUMMA panels: ``(stats, streams)`` for this epoch.

        Built once per state epoch from the resident blocks (square
        grids only) and reused by every fast query until a resync swaps
        a block (which bumps ``_epoch`` and retires the tables).
        """
        if self._panel_memo is None or self._panel_memo[0] != self._epoch:
            stats = summa_stats(self.graph, self._grid, self._blocks)
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
            result = execute_tc2d(self._engine, self._grid, self._blocks,
                                  self._win, config, self.graph)
            if cache_stats:
                result = replace(
                    result, adj_cache_stats=CacheStats.merged(self._caches))
        else:
            stats, streams = self.panel_state()
            result = replay(self._engine, self._grid, self._blocks,
                            self._win, config, self.graph, stats, streams)
        self._close_epochs()  # transparent-mode caches flush here
        return result

    def _configure_caches(self, config: LCCConfig, keep_cache: bool,
                          rebuilt: bool) -> None:
        spec = config.cache
        if spec is None or spec.adj_bytes <= 0:
            self._drop_caches()
            return
        warm = (keep_cache and not rebuilt and spec == self._cache_spec
                and bool(self._caches))
        if warm:
            for cache in self._caches:
                cache.stats = CacheStats()
        else:
            self._drop_caches()
            for ctx in self._engine.contexts:
                cache = ClampiCache(
                    self._win, ctx.rank,
                    ClampiConfig(capacity_bytes=spec.adj_bytes,
                                 mode=spec.mode),
                    network=ctx.network, memory=ctx.memory)
                ctx.attach_cache(self._win, cache)
                self._caches.append(cache)
        self._cache_spec = spec
        self.last_warm = warm

    def _drop_caches(self) -> None:
        if self._engine is not None and self._win is not None:
            for ctx in self._engine.contexts:
                ctx.detach_cache(self._win)
        self._caches = []
        self._cache_spec = None

    def _close_epochs(self) -> None:
        """Unlock the blocks window and fire the caches' epoch hooks.

        The epoch-closure boundary is what makes transparent-mode block
        caches flush exactly as the paper's Section II-F requires — the
        same contract ``DistributedCSR.close_epochs`` gives the 1D
        kernels.  Epoch state never touches simulated clocks, so the
        resident path stays bit-identical to the per-call one (which
        simply abandons its open epochs with the throwaway engine).
        """
        if self._engine is None or self._win is None:
            return
        for rank in range(self._engine.nranks):
            if self._win.epoch_open(rank):
                self._win.unlock_all(rank)
            cache = self._engine.contexts[rank].cache_for(self._win)
            if cache is not None:
                cache.on_epoch_close()

    # -- dynamic updates -----------------------------------------------------
    def resync(self, result: DeltaResult, *, rekey: bool = True
               ) -> ClusterResync:
        """Rebuild exactly the blocks a delta's changed edges dirty.

        ``rekey`` is accepted for protocol symmetry; packed blocks are
        always fetched whole from offset 0, so nothing can merely shift.
        """
        outcome = ClusterResync(kind=self.kind)
        self.graph = result.graph
        if self._engine is None or not result.changed:
            outcome.retained_entries = sum(len(c) for c in self._caches)
            return outcome

        engine, grid, win = self._engine, self._grid, self._win
        # An update is an epoch boundary, exactly as on the 1D cluster:
        # transparent-mode caches flush before the targeted invalidation.
        self._close_epochs()
        n = result.graph.n
        ranks = touched_blocks(grid, result.changed_keys, n)
        inval_dt = [0.0] * engine.nranks
        rebuilt_bytes_by_rank: dict[int, int] = {}
        touched: list[tuple[int, int]] = []
        for rank in ranks:
            old_packed = win.local_part(rank)
            new_block = build_block(result.graph, grid, rank)
            new_packed = pack_block(new_block)
            stale = stale_block_keys(rank, old_packed, new_packed)
            if not stale.shape[0]:
                continue  # the dirtying edges netted out to no byte change
            touched.append(grid.grid_coords(rank))
            for cache in self._caches:
                mgmt_before = cache.stats.mgmt_time
                dropped, dropped_bytes = cache.invalidate(stale)
                inval_dt[cache.rank] += cache.stats.mgmt_time - mgmt_before
                outcome.invalidated_adj_entries += dropped
                outcome.invalidated_bytes += dropped_bytes
            win.replace_part(rank, new_packed)
            self._blocks[rank] = new_block
            self._epoch += 1
            rebuilt_bytes_by_rank[rank] = int(new_packed.nbytes)
        outcome.touched = tuple(touched)
        outcome.rebuilt_bytes = sum(rebuilt_bytes_by_rank.values())
        outcome.retained_entries = sum(len(c) for c in self._caches)
        memory = engine.contexts[0].memory
        outcome.time = max(
            ((memory.local_read_time(rebuilt_bytes_by_rank[r])
              if r in rebuilt_bytes_by_rank else 0.0) + inval_dt[r])
            for r in range(engine.nranks))
        return outcome

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        self._close_epochs()
        self._drop_caches()
        self._engine = None
        self._grid = None
        self._blocks = []
        self._win = None
        self._cluster_key = None
        self._panel_memo = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "resident" if self.resident else "idle"
        shape = (f"{self._grid.rows}x{self._grid.cols}"
                 if self._grid is not None else "?")
        return f"GridCluster2D({state}, grid={shape}, builds={self.grid_builds})"
