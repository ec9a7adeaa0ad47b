"""Resident clusters: partitioned, cached views of one stored graph.

A *resident cluster* is a simulated cluster (engine + partitioned data +
CLaMPI caches) kept alive across queries.  Every cluster shape serves the
paper's runtime contract: each rank exposes RMA windows with one CLaMPI
cache per window, each query is one ``MPI_Win_lock_all`` epoch, and a
transparent-mode cache flushes when its epoch closes (Sections II-F,
III-B).  :class:`ResidentCluster` writes that lifecycle once: acquire
(build, reuse, warm caches), epochs and cache detach over the cluster's
windows, the resync skeleton and its pricing, and teardown.  A kind
supplies its shape key, its build, its cache construction and its
touched-unit diff: :class:`Cluster1D` here (the paper's 1D partition) and
:class:`~repro.graphstore.grid2d.GridCluster2D` (the 2D grid ``tc2d``
runs on).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.clampi.stats import CacheStats
from repro.clampi.wrapper import attach_adjacency_caches, attach_offset_caches
from repro.core.config import CacheSpec, LCCConfig
from repro.core.lcc import make_partition
from repro.dynamic.delta import DeltaResult
from repro.dynamic.invalidate import resync_distributed
from repro.graph.csr import CSRGraph
from repro.graph.distributed import DistributedCSR
from repro.runtime.engine import Engine
from repro.runtime.trace import RankTrace
from repro.runtime.window import Window

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
    """The resident-cluster lifecycle; a kind adds its build and its diff.

    Each kind binds :meth:`acquire` and :meth:`resync` in its own
    namespace, so wrapping one kind's entry points (``bench/trace.py``
    does) leaves the other kind's alone.
    """

    #: Registry name ("1d", "2d", ...) — also the tag on resync outcomes.
    kind: str = "?"

    #: The :class:`LCCConfig` fields whose change forces a rebuild.
    shape_fields: tuple[str, ...] = ()

    def __init__(self) -> None:
        #: The graph the resident state currently reflects (None until built).
        self.graph: Optional[CSRGraph] = None
        #: How often the cluster was built from scratch.
        self.builds = 0
        self.last_reused = False
        self.last_warm = False
        self._engine: Optional[Engine] = None
        self._windows: tuple[Window, ...] = ()
        self._caches: list = []
        self._cluster_key: Any = None
        self._cache_spec: Optional[CacheSpec] = None

    @property
    def resident(self) -> bool:
        """Is there live cluster state to reuse (or to resync)?"""
        return self._engine is not None

    @property
    def caches(self) -> list:
        return list(self._caches)

    # -- what a kind supplies -------------------------------------------------
    @abc.abstractmethod
    def _build(self, graph: CSRGraph, config: LCCConfig) -> tuple[Window, ...]:
        """Partition ``graph`` onto ``self._engine``; return its windows."""

    @abc.abstractmethod
    def _make_caches(self, spec: CacheSpec) -> list:
        """Attach this kind's caches for ``spec``; return them."""

    @abc.abstractmethod
    def _handles(self) -> tuple:
        """What :meth:`acquire` returns to the kernels."""

    @abc.abstractmethod
    def _diff(self, result: DeltaResult, rekey: bool, outcome: ClusterResync,
              inval_dt: list[float]) -> dict[int, int]:
        """Rebuild the units a changed delta touched; return the rebuilt
        bytes per rank.  Cache maintenance goes through :meth:`_charge`."""

    @abc.abstractmethod
    def _release(self) -> None:
        """Drop the built state (:meth:`close`)."""

    def _retain(self, graph: CSRGraph) -> None:
        """An unchanged delta: the resident state stays as it is."""

    # -- acquisition ----------------------------------------------------------
    def acquire(self, graph: CSRGraph, config: LCCConfig,
                keep_cache: bool = False) -> tuple:
        """Build or reuse the cluster for ``config``; return its handles.

        A changed shape key closes the old epochs, drops the caches and
        builds anew.  Per-rank clocks and traces are always reset so every
        query starts cold (simulated times match a standalone run) and the
        epoch is (re)opened.  The cache *contents* stay warm only under
        ``keep_cache``, an unchanged shape, an equal spec and live caches.
        """
        key = tuple(getattr(config, name) for name in self.shape_fields)
        rebuilt = self._engine is None or key != self._cluster_key
        if rebuilt:
            self._close_epochs()
            self._drop_caches()
            self._engine = Engine(config.nranks, network=config.network,
                                  memory=config.memory, compute=config.compute)
            self._windows = self._build(graph, config)
            self._cluster_key = key
            self.graph = graph
            self.builds += 1
        for ctx in self._engine.contexts:
            ctx.now = 0.0
            ctx.trace = RankTrace(rank=ctx.rank)
            for win in self._windows:
                if not win.epoch_open(ctx.rank):
                    win.lock_all(ctx.rank)
        self._configure_caches(config.cache, keep_cache, rebuilt)
        self.last_reused = not rebuilt
        return self._handles()

    def _configure_caches(self, spec: Optional[CacheSpec], keep_cache: bool,
                          rebuilt: bool) -> None:
        warm = (keep_cache and not rebuilt and spec is not None
                and spec == self._cache_spec and bool(self._caches))
        if warm:
            # Contents stay resident; statistics are per-query.
            for cache in self._caches:
                cache.stats = CacheStats()
        else:
            self._drop_caches()
            if spec is not None:
                self._caches = self._make_caches(spec)
                self._cache_spec = spec
        self.last_warm = warm

    def _drop_caches(self) -> None:
        if self._engine is not None:
            for ctx in self._engine.contexts:
                for win in self._windows:
                    ctx.detach_cache(win)
        self._caches = []
        self._cache_spec = None

    def _close_epochs(self) -> None:
        """Close every rank's epoch on the windows; caches see it close."""
        if self._engine is not None:
            self._engine.close_epochs(self._windows)

    # -- dynamic updates ------------------------------------------------------
    def resync(self, result: DeltaResult, *, rekey: bool = True
               ) -> ClusterResync:
        """Fold a committed delta into the resident state, surgically.

        An update is an epoch boundary: transparent-mode caches flush
        before the targeted invalidation.  The rebuild is priced with the
        memory model the cluster was built under (a per-run override
        config may differ from the session default).
        """
        outcome = ClusterResync(kind=self.kind)
        self.graph = result.graph
        if self._engine is None or not result.changed:
            if self._engine is not None:
                self._retain(result.graph)
            outcome.retained_entries = sum(len(c) for c in self._caches)
            return outcome
        engine = self._engine
        self._close_epochs()
        inval_dt = [0.0] * engine.nranks
        rebuilt = self._diff(result, rekey, outcome, inval_dt)
        outcome.rebuilt_bytes = sum(rebuilt.values())
        outcome.retained_entries = sum(len(c) for c in self._caches)
        memory = engine.contexts[0].memory
        outcome.time = max(
            ((memory.local_read_time(rebuilt[r]) if r in rebuilt else 0.0)
             + inval_dt[r]) for r in range(engine.nranks))
        return outcome

    @staticmethod
    def _charge(inval_dt: list[float], cache, op, *args):
        """Run ``op(*args)`` (an invalidate or rekey of ``cache``) and
        charge its rank the management time the cache priced for it."""
        before = cache.stats.mgmt_time
        out = op(*args)
        inval_dt[cache.rank] += cache.stats.mgmt_time - before
        return out

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Tear down the resident state (idempotent)."""
        self._close_epochs()
        self._drop_caches()
        self._engine = None
        self._windows = ()
        self._cluster_key = None
        self._release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "resident" if self.resident else "idle"
        return f"{type(self).__name__}({state}, builds={self.builds})"


class Cluster1D(ResidentCluster):
    """The paper's 1D-partitioned resident cluster (engine + CSR + caches).

    The shape is ``nranks``, ``partition`` and the network/memory/compute
    models; a build splits the graph into one
    :class:`~repro.graph.distributed.DistributedCSR`.
    """

    kind = "1d"
    shape_fields = ("nranks", "partition", "network", "memory", "compute")
    acquire = ResidentCluster.acquire
    resync = ResidentCluster.resync

    def __init__(self) -> None:
        super().__init__()
        self._dist: Optional[DistributedCSR] = None

    def _build(self, graph: CSRGraph, config: LCCConfig) -> tuple[Window, ...]:
        self._dist = DistributedCSR(graph, make_partition(config, graph.n),
                                    self._engine)
        return self._dist.w_offsets, self._dist.w_adj

    def _make_caches(self, spec: CacheSpec) -> list:
        """One ``C_offsets`` / ``C_adj`` pair per rank (none of a kind
        whose capacity is zero)."""
        contexts, dist = self._engine.contexts, self._dist
        off = (attach_offset_caches(
            contexts, dist.w_offsets, spec.offsets_bytes, mode=spec.mode,
            adaptive=spec.adaptive) if spec.offsets_bytes > 0 else [])
        adj = (attach_adjacency_caches(
            contexts, dist.w_adj, spec.adj_bytes, mode=spec.mode,
            score_policy=spec.make_policy(), n_vertices=self.graph.n,
            adaptive=spec.adaptive) if spec.adj_bytes > 0 else [])
        return off + adj

    def _split_caches(self) -> tuple[list, list]:
        """``(offsets_caches, adj_caches)``, each in rank order."""
        w_off = self._dist.w_offsets
        return ([c for c in self._caches if c.window is w_off],
                [c for c in self._caches if c.window is not w_off])

    def _handles(self) -> tuple[Engine, DistributedCSR, list, list]:
        """``(engine, dist, offsets_caches, adj_caches)``."""
        return (self._engine, self._dist, *self._split_caches())

    def _retain(self, graph: CSRGraph) -> None:
        self._dist.graph = graph

    def _release(self) -> None:
        self._dist = None

    def _diff(self, result: DeltaResult, rekey: bool, outcome: ClusterResync,
              inval_dt: list[float]) -> dict[int, int]:
        """Rebuild the partitioned CSR; diff only the touched ranks' parts.

        Cache entries whose bytes changed are invalidated; entries whose
        adjacency list merely *moved* are rekeyed to their new offsets
        (``rekey=False`` forces the pre-rekey drop-everything-shifted
        behavior, kept for the retention comparison benchmarks).
        """
        plan = resync_distributed(self._dist, result.graph, result.endpoints)
        outcome.touched = plan.touched_ranks
        off_caches, adj_caches = self._split_caches()
        stale_adj = (plan.adjacency_keys if rekey else
                     np.concatenate([plan.adjacency_keys, plan.rekey_old]))
        for caches, keys, counter in (
                (off_caches, plan.offsets_keys, "invalidated_offsets_entries"),
                (adj_caches, stale_adj, "invalidated_adj_entries")):
            for cache in caches:
                dropped, dropped_bytes = self._charge(
                    inval_dt, cache, cache.invalidate, keys)
                setattr(outcome, counter, getattr(outcome, counter) + dropped)
                outcome.invalidated_bytes += dropped_bytes
        if rekey and plan.rekey_old.shape[0]:
            for cache in adj_caches:
                inval_before = cache.stats.invalidations
                bytes_before = cache.stats.invalidated_bytes
                moved, moved_bytes = self._charge(
                    inval_dt, cache, cache.rekey, plan.rekey_old,
                    plan.rekey_new)
                outcome.rekeyed_entries += moved
                outcome.rekeyed_bytes += moved_bytes
                # A rekey whose new slot was taken (or probe window full)
                # degrades to a drop; the cache already counted it.
                outcome.invalidated_adj_entries += (
                    cache.stats.invalidations - inval_before)
                outcome.invalidated_bytes += (
                    cache.stats.invalidated_bytes - bytes_before)
        return plan.rebuilt_bytes_by_rank
