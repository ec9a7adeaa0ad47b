"""Resident clusters: partitioned, cached views of one stored graph.

A *resident cluster* is a simulated cluster (engine + partitioned data +
CLaMPI caches) kept alive across queries.  :class:`~repro.session.Session`
used to hard-code exactly one — the 1D block/cyclic partition the paper's
LCC/TC kernels run on — which left the 2D grid path rebuilding its world
on every call.  This module extracts the contract both share:

* :meth:`ResidentCluster.acquire` — build lazily on first use, reuse
  while the cluster-shaping knobs are unchanged, reset per-query clocks
  and traces, optionally keep cache *contents* warm;
* :meth:`ResidentCluster.resync` — fold a committed
  :class:`~repro.dynamic.delta.DeltaResult` into the resident state by
  rebuilding only the touched slices and surgically invalidating (or
  rekeying) exactly the cache entries the update made stale;
* :meth:`ResidentCluster.close` — tear down (idempotent).

:class:`Cluster1D` is the extracted 1D implementation;
:class:`~repro.graphstore.grid2d.GridCluster2D` is the 2D analogue that
lets ``tc2d`` stop re-splitting edges per call.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.clampi.stats import CacheStats
from repro.core.config import CacheSpec, LCCConfig
from repro.core.lcc import attach_caches, make_partition
from repro.dynamic.delta import DeltaResult
from repro.dynamic.invalidate import resync_distributed
from repro.graph.csr import CSRGraph
from repro.graph.distributed import DistributedCSR
from repro.runtime.engine import Engine
from repro.runtime.trace import RankTrace

__all__ = ["Cluster1D", "ClusterResync", "ResidentCluster"]


@dataclass
class ClusterResync:
    """What folding one delta into one resident cluster did.

    ``touched`` names the rebuilt units — rank ids for the 1D partition,
    ``(row, col)`` grid coordinates for the 2D one.  ``time`` is the
    simulated cost: slice rebuild priced at the cluster's memory model
    plus the caches' own invalidation/rekey management time, max over
    ranks like any job.
    """

    kind: str
    touched: tuple = ()
    rebuilt_bytes: int = 0
    invalidated_offsets_entries: int = 0
    invalidated_adj_entries: int = 0
    invalidated_bytes: int = 0
    rekeyed_entries: int = 0
    rekeyed_bytes: int = 0
    retained_entries: int = 0
    time: float = 0.0

    @property
    def invalidated_entries(self) -> int:
        return self.invalidated_offsets_entries + self.invalidated_adj_entries


class ResidentCluster(abc.ABC):
    """The contract every resident cluster implementation satisfies."""

    #: Registry name ("1d", "2d", ...) — also the tag on resync outcomes.
    kind: str = "?"

    #: The graph the resident state currently reflects (None until built).
    graph: Optional[CSRGraph] = None

    @property
    @abc.abstractmethod
    def resident(self) -> bool:
        """Is there live cluster state to reuse (or to resync)?"""

    @staticmethod
    def _begin_query(engine: Engine, windows: tuple) -> None:
        """Reset per-rank clocks/traces; (re)open an epoch on ``windows``.

        Every query starts cold on the simulated clock and is one access
        epoch: the kernels close it after execution, updates close it at
        their boundary.
        """
        for ctx in engine.contexts:
            ctx.now = 0.0
            ctx.trace = RankTrace(rank=ctx.rank)
        for rank in range(engine.nranks):
            for win in windows:
                if not win.epoch_open(rank):
                    win.lock_all(rank)

    @abc.abstractmethod
    def resync(self, result: DeltaResult, *, rekey: bool = True
               ) -> ClusterResync:
        """Fold a committed delta into the resident state, surgically."""

    @abc.abstractmethod
    def close(self) -> None:
        """Tear down the resident state (idempotent)."""


class Cluster1D(ResidentCluster):
    """The paper's 1D-partitioned resident cluster (engine + CSR + caches).

    Extracted verbatim from the pre-GraphStore ``Session`` internals:
    the engine and partitioned CSR are built lazily on the first acquire
    and reused while the cluster-shaping knobs (``nranks``, ``partition``
    and the network/memory/compute models) stay unchanged;
    ``partition_builds`` counts how often the CSR was split, which sweeps
    assert stays at 1.
    """

    kind = "1d"

    def __init__(self) -> None:
        self.graph: Optional[CSRGraph] = None
        self.partition_builds = 0
        self.last_reused = False
        self.last_warm = False
        self._engine: Optional[Engine] = None
        self._dist: Optional[DistributedCSR] = None
        self._cluster_key: Any = None
        self._off_caches: list = []
        self._adj_caches: list = []
        self._cache_spec: Optional[CacheSpec] = None

    @property
    def resident(self) -> bool:
        return self._engine is not None

    @property
    def caches(self) -> list:
        return self._off_caches + self._adj_caches

    # -- acquisition ---------------------------------------------------------
    def acquire(self, graph: CSRGraph, config: LCCConfig,
                keep_cache: bool = False
                ) -> tuple[Engine, DistributedCSR, list, list]:
        """Build or reuse the engine + partitioned CSR for ``config``.

        Returns ``(engine, dist, offsets_caches, adj_caches)``.  Per-rank
        clocks and traces are always reset so every query starts cold
        (simulated times match a standalone run), while the CSR split —
        and, with ``keep_cache=True``, the CLaMPI cache contents — are
        reused while the cluster shape is unchanged.  Epochs are (re)opened.
        """
        key = (config.nranks, config.partition, config.network,
               config.memory, config.compute)
        rebuilt = self._engine is None or key != self._cluster_key
        if rebuilt:
            if self._dist is not None:
                self._dist.close_epochs()
            self._drop_caches()
            engine = Engine(config.nranks, network=config.network,
                            memory=config.memory, compute=config.compute)
            self._dist = DistributedCSR(
                graph, make_partition(config, graph.n), engine)
            self._engine = engine
            self._cluster_key = key
            self.graph = graph
            self.partition_builds += 1
        engine, dist = self._engine, self._dist
        self._begin_query(engine, (dist.w_offsets, dist.w_adj))
        self._configure_caches(config, keep_cache, rebuilt)
        self.last_reused = not rebuilt
        return engine, dist, self._off_caches, self._adj_caches

    def _configure_caches(self, config: LCCConfig, keep_cache: bool,
                          rebuilt: bool) -> None:
        spec = config.cache
        if spec is None:
            self._drop_caches()
            return
        warm = (keep_cache and not rebuilt and spec == self._cache_spec
                and bool(self._off_caches or self._adj_caches))
        if warm:
            # Contents stay resident; statistics are per-query.
            for cache in self.caches:
                cache.stats = CacheStats()
        else:
            self._drop_caches()
            self._off_caches, self._adj_caches = attach_caches(
                self._engine, self._dist, spec, self.graph.n)
        self._cache_spec = spec
        self.last_warm = warm

    def _drop_caches(self) -> None:
        if self._engine is not None and self._dist is not None:
            for ctx in self._engine.contexts:
                ctx.detach_cache(self._dist.w_offsets)
                ctx.detach_cache(self._dist.w_adj)
        self._off_caches = []
        self._adj_caches = []
        self._cache_spec = None

    # -- dynamic updates -----------------------------------------------------
    def resync(self, result: DeltaResult, *, rekey: bool = True
               ) -> ClusterResync:
        """Swap in the post-update graph: the partitioned CSR is rebuilt,
        and only the touched ranks' parts are diffed and priced.

        Cache entries whose bytes changed are invalidated; entries whose
        adjacency list merely *moved* are rekeyed to their new offsets
        (``rekey=False`` forces the pre-rekey drop-everything-shifted
        behavior, kept for the retention comparison benchmarks).
        """
        outcome = ClusterResync(kind=self.kind)
        self.graph = result.graph
        if self._dist is None or not result.changed:
            if self._dist is not None:
                # Nothing changed structurally; keep windows and memos.
                self._dist.graph = result.graph
            outcome.retained_entries = sum(len(c) for c in self.caches)
            return outcome

        dist, engine = self._dist, self._engine
        dist.close_epochs()
        plan = resync_distributed(dist, result.graph, result.endpoints)
        outcome.touched = plan.touched_ranks
        outcome.rebuilt_bytes = plan.rebuilt_bytes

        inval_dt = [0.0] * engine.nranks
        stale_adj = (plan.adjacency_keys if rekey else
                     np.concatenate([plan.adjacency_keys, plan.rekey_old]))
        for caches, keys, counter in (
                (self._off_caches, plan.offsets_keys,
                 "invalidated_offsets_entries"),
                (self._adj_caches, stale_adj,
                 "invalidated_adj_entries")):
            for cache in caches:
                mgmt_before = cache.stats.mgmt_time
                dropped, dropped_bytes = cache.invalidate(keys)
                # The cache prices its own invalidations (mgmt_time);
                # charge exactly that, whatever its cost model is.
                inval_dt[cache.rank] += cache.stats.mgmt_time - mgmt_before
                setattr(outcome, counter, getattr(outcome, counter) + dropped)
                outcome.invalidated_bytes += dropped_bytes
        if rekey and plan.rekey_old.shape[0]:
            for cache in self._adj_caches:
                mgmt_before = cache.stats.mgmt_time
                inval_before = cache.stats.invalidations
                bytes_before = cache.stats.invalidated_bytes
                moved, moved_bytes = cache.rekey(plan.rekey_old,
                                                 plan.rekey_new)
                inval_dt[cache.rank] += cache.stats.mgmt_time - mgmt_before
                outcome.rekeyed_entries += moved
                outcome.rekeyed_bytes += moved_bytes
                # A rekey whose new slot was taken (or probe window full)
                # degrades to a drop; the cache already counted it.
                outcome.invalidated_adj_entries += (
                    cache.stats.invalidations - inval_before)
                outcome.invalidated_bytes += (
                    cache.stats.invalidated_bytes - bytes_before)
        outcome.retained_entries = sum(len(c) for c in self.caches)

        # Price the rebuild with the model the resident cluster was
        # actually built under (a per-run override config may differ
        # from the session default).
        memory = engine.contexts[0].memory
        rebuilt = plan.rebuilt_bytes_by_rank
        outcome.time = max(
            ((memory.local_read_time(rebuilt[r]) if r in rebuilt else 0.0)
             + inval_dt[r]) for r in range(engine.nranks))
        return outcome

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        if self._dist is not None:
            self._dist.close_epochs()
        self._drop_caches()
        self._engine = None
        self._dist = None
        self._cluster_key = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "resident" if self.resident else "idle"
        return f"Cluster1D({state}, partition_builds={self.partition_builds})"
