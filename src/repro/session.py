"""Resident-cluster sessions: one simulated cluster, many queries.

The paper frames LCC/TC as repeated analytics over a graph that stays
resident in a distributed cluster — the CLaMPI caches are valuable
precisely because accesses repeat (the Figure 4 reuse study).  A
:class:`Session` builds that cluster once and serves any number of
queries against it; the per-call entry points
(:func:`repro.core.lcc.run_distributed_lcc` and friends) are one query on
a throwaway session, so ``ResidentCluster.acquire``
(:mod:`repro.graphstore.resident`) — one lifecycle for the 1D partition
and the 2D grid — is the only place a simulated cluster is built::

    from repro import Session
    from repro.core import CacheSpec, LCCConfig
    from repro.graph import load_dataset

    g = load_dataset("livejournal")
    cfg = LCCConfig(nranks=16, threads=12,
                    cache=CacheSpec.paper_split(2 * g.nbytes, g.n))
    with Session(g, cfg) as session:
        first = session.run("lcc", keep_cache=True)   # cold caches
        again = session.run("lcc", keep_cache=True)   # warm: higher hit rate
        tc = session.run("tc")                        # same resident CSR
        cells = session.sweep({                       # one partition, 3 runs
            "ssi": {"method": "ssi"},
            "binary": {"method": "binary"},
            "hybrid": {"method": "hybrid"},
        })

Kernels are registered by name (``@register_kernel``); the built-ins are
``lcc``, ``tc``, ``tc2d``, ``tc2d_spgemm``, ``lcc2d``, ``tric``,
``disttc`` and ``mapreduce``.  Tests pin each fast path **bit-identical**
to its scalar-loop oracle (``fast_path=False``), ``lcc2d``'s scores to
the 1D ``lcc`` kernel and each baseline to its entry point.  The
SUMMA-family kernels (``tc2d_spgemm``, ``lcc2d``) additionally require
``nranks`` to be a perfect square.  New workloads — per-vertex triangle
queries, top-k LCC, anything expressible over the simulated cluster —
plug in the same way::

    @register_kernel("top5-lcc", description="five most clustered vertices")
    def _top5(session, config, **opts):
        res = session.run("lcc", config=config).raw
        ...

Every query starts with fresh virtual clocks and traces (a query's
simulated time never includes a previous query's), but the partitioned CSR
is shared, and with ``keep_cache=True`` the CLaMPI cache *contents* carry
over so the second query onward benefits from the paper's reuse effect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from repro.baselines.disttc import DistTCConfig, run_disttc
from repro.baselines.mapreduce import MapReduceConfig, run_mapreduce_tc
from repro.baselines.tric import TricConfig, run_tric
from repro.core.config import DistributedRunResult, LCCConfig
from repro.core.lcc import execute_lcc
from repro.dynamic.delta import DeltaResult, UpdateBatch, apply_delta
from repro.core.tc import execute_tc
from repro.core.tc2d import require_square_grid
from repro.graph.csr import CSRGraph
from repro.graph.distributed import DistributedCSR
from repro.graph.partition2d import GridPartition2D
from repro.graphstore.grid2d import GridCluster2D
from repro.graphstore.resident import Cluster1D, ClusterResync, ResidentCluster
from repro.obs.trace import span as obs_span
from repro.runtime.engine import Engine
from repro.utils.errors import ConfigError, KernelError

__all__ = [
    "KernelResult",
    "KernelSpec",
    "Session",
    "UpdateOutcome",
    "get_kernel",
    "kernel_names",
    "register_kernel",
    "run_kernel",
    "unregister_kernel",
]


# ---------------------------------------------------------------------------
# Kernel registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """One registered kernel: a name, a runner and its traits.

    ``resident`` kernels execute on one of the session's resident
    clusters — the 1D partition (``lcc``/``tc``) or the 2D grid
    (``tc2d``/``tc2d_spgemm``/``lcc2d``) — built once and reused across
    queries; the others own their run's cluster shape (TriC's
    edge-balanced split, ...) and build it per call, exactly like their
    legacy entry points.  ``undirected_only`` and ``square_grid_only``
    (the SUMMA-family kernels need ``nranks`` a perfect square) are
    enforced by :meth:`Session.run` before the kernel is called: a
    violating query raises a :class:`~repro.utils.errors.ConfigError`
    naming the kernel, for built-ins and plugins alike.
    """

    name: str
    fn: Callable[..., DistributedRunResult]
    description: str = ""
    resident: bool = False
    undirected_only: bool = False
    square_grid_only: bool = False


_KERNELS: dict[str, KernelSpec] = {}


def register_kernel(name: str, *, description: str = "",
                    resident: bool = False, undirected_only: bool = False,
                    square_grid_only: bool = False,
                    overwrite: bool = False) -> Callable:
    """Class-of-service decorator: make a function a named, runnable kernel.

    The decorated function receives ``(session, config, **opts)`` and must
    return a :class:`~repro.core.config.DistributedRunResult` (or any
    object exposing the same surface).  Re-registering an existing name
    raises unless ``overwrite=True``.
    """
    def decorator(fn: Callable) -> Callable:
        if name in _KERNELS and not overwrite:
            raise KernelError(
                f"kernel {name!r} is already registered; pass overwrite=True "
                "to replace it")
        _KERNELS[name] = KernelSpec(name=name, fn=fn, description=description,
                                    resident=resident,
                                    undirected_only=undirected_only,
                                    square_grid_only=square_grid_only)
        return fn
    return decorator


def unregister_kernel(name: str) -> None:
    """Remove a registered kernel (plugin teardown / tests)."""
    if name not in _KERNELS:
        raise KernelError(f"kernel {name!r} is not registered")
    del _KERNELS[name]


def get_kernel(name: str) -> KernelSpec:
    """Look up a kernel by name; raises :class:`KernelError` when unknown."""
    try:
        return _KERNELS[name]
    except KeyError:
        raise KernelError(
            f"unknown kernel {name!r}; registered kernels: "
            f"{', '.join(kernel_names())}") from None


def kernel_names() -> list[str]:
    """Sorted names of every registered kernel."""
    return sorted(_KERNELS)


# ---------------------------------------------------------------------------
# Uniform result type
# ---------------------------------------------------------------------------

@dataclass
class KernelResult:
    """Uniform wrapper every ``Session.run`` returns.

    ``raw`` is the kernel's native result (a
    :class:`~repro.core.config.DistributedRunResult` for the built-ins);
    every attribute of it — ``lcc``, ``time``, ``global_triangles``,
    ``adj_cache_stats``, baseline extras like ``peak_buffer_bytes`` — is
    reachable directly on this wrapper.
    """

    kernel: str
    config: LCCConfig
    raw: Any
    reused_cluster: bool = False
    warm_cache: bool = False

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_") or name == "raw":
            raise AttributeError(name)
        return getattr(self.raw, name)

    def summary(self) -> dict[str, Any]:
        """The underlying run summary, tagged with the kernel name."""
        s = self.raw.summary()
        s["kernel"] = self.kernel
        return s


def _summed(name: str) -> property:
    return property(lambda self: sum(getattr(r, name) for r in self.resyncs),
                    doc=f"``{name}`` summed over every cluster's resync.")


@dataclass
class UpdateOutcome:
    """What one :meth:`Session.apply_updates` / :meth:`Session.sync_to` did.

    ``delta`` carries the graph-level outcome (new graph, affected set,
    applied/skipped edge counts); ``resyncs`` holds one
    :class:`~repro.graphstore.resident.ClusterResync` per resident
    cluster of the session (the 1D partition and, when a 2D kernel ran,
    the grid).  The counters read off them: which ranks' slices / grid
    blocks were rebuilt, how many warm CLaMPI entries were invalidated vs
    rekeyed vs retained (summed over clusters), and the simulated cost
    (``time``) of the whole update — slice rebuild plus cache maintenance
    priced at the caches' eviction overhead, max over ranks and clusters
    like any job.
    """

    delta: DeltaResult
    resyncs: list[ClusterResync] = field(default_factory=list)

    rebuilt_bytes = _summed("rebuilt_bytes")
    invalidated_offsets_entries = _summed("invalidated_offsets_entries")
    invalidated_adj_entries = _summed("invalidated_adj_entries")
    invalidated_entries = _summed("invalidated_entries")
    invalidated_bytes = _summed("invalidated_bytes")
    rekeyed_entries = _summed("rekeyed_entries")
    rekeyed_bytes = _summed("rekeyed_bytes")
    retained_entries = _summed("retained_entries")

    @property
    def graph(self):
        return self.delta.graph

    @property
    def affected(self):
        return self.delta.affected

    @property
    def touched_ranks(self) -> tuple[int, ...]:
        return tuple(u for r in self.resyncs if r.kind != "2d"
                     for u in r.touched)

    @property
    def touched_blocks(self) -> tuple[tuple[int, int], ...]:
        return tuple(u for r in self.resyncs if r.kind == "2d"
                     for u in r.touched)

    @property
    def time(self) -> float:
        # Clusters are independent simulated resources; like ranks within
        # one job, the update completes when the slowest resync does.
        return max([0.0, *(r.time for r in self.resyncs)])


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------

class Session:
    """A simulated cluster held resident across queries.

    Parameters
    ----------
    graph:
        The graph to serve queries over.
    config:
        Default :class:`~repro.core.config.LCCConfig` for every query;
        per-query overrides go through ``run(..., nranks=..., cache=...)``.

    Each resident cluster — the 1D partition (``lcc``/``tc``) and the 2D
    grid (``tc2d``/``tc2d_spgemm``/``lcc2d``) — is built on the first
    query that needs it and reused while its shape (``nranks``, the 1D
    ``partition`` and the network/memory/compute models) stays
    unchanged; ``partition_builds`` / ``grid_builds`` count the builds,
    which sweeps assert stay at 1.
    """

    def __init__(self, graph: CSRGraph, config: LCCConfig | None = None):
        self.graph = graph
        self.config = config or LCCConfig()
        self.queries_run = 0
        self.updates_applied = 0
        self._c1d: Optional[Cluster1D] = None
        self._c2d: Optional[GridCluster2D] = None
        self._last_reused = False
        self._last_warm = False
        self._closed = False

    # -- lifecycle ----------------------------------------------------------
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Tear down every resident cluster (idempotent)."""
        for cluster in self.clusters():
            cluster.close()
        self._closed = True

    # -- resident-cluster inventory ------------------------------------------
    def clusters(self) -> list[ResidentCluster]:
        """Every resident cluster this session has materialized."""
        return [c for c in (self._c1d, self._c2d) if c is not None]

    @property
    def partition_builds(self) -> int:
        """How often the 1D CSR was split (sweeps assert this stays at 1)."""
        return self._c1d.builds if self._c1d is not None else 0

    @property
    def grid_builds(self) -> int:
        """How often the 2D grid blocks were built from scratch."""
        return self._c2d.builds if self._c2d is not None else 0

    # -- queries ------------------------------------------------------------
    def run(self, kernel: str, *, config: LCCConfig | None = None,
            keep_cache: bool = False, **opts: Any) -> KernelResult:
        """Execute one registered kernel against the session's cluster.

        ``opts`` naming :class:`LCCConfig` fields (``nranks``, ``cache``,
        ``method``, ...) override the session config for this query; the
        rest are forwarded to the kernel (e.g. TriC's ``buffer_capacity``).
        ``keep_cache=True`` preserves CLaMPI cache contents from the
        previous query, reproducing the paper's reuse effect; statistics
        are still per-query.  lcc/tc queries run through the batched
        replay (:mod:`repro.core.replay`), cached or not, unless
        ``fast_path=False`` forces the per-edge loop.
        """
        if self._closed:
            raise KernelError("session is closed")
        spec = get_kernel(kernel)
        cfg = config or self.config
        overrides = {k: opts.pop(k) for k in list(opts)
                     if k in LCCConfig.__dataclass_fields__}
        if overrides:
            cfg = cfg.replace(**overrides)
        if spec.undirected_only and self.graph.directed:
            raise ConfigError(
                f"kernel {kernel!r} expects an undirected graph")
        if spec.square_grid_only:
            require_square_grid(GridPartition2D(self.graph.n, cfg.nranks),
                                kernel=kernel, strict=True)
        self._last_reused = False
        self._last_warm = False
        raw = spec.fn(self, cfg, keep_cache=keep_cache, **opts)
        self.queries_run += 1
        return KernelResult(kernel=kernel, config=cfg, raw=raw,
                            reused_cluster=self._last_reused,
                            warm_cache=self._last_warm)

    def sweep(self, variants: Mapping[str, Mapping[str, Any]], *,
              kernel: str = "lcc", keep_cache: bool = False
              ) -> dict[str, KernelResult]:
        """Run many config variants, amortizing setup across all of them.

        ``variants`` maps a variant name to its option dict (the same
        options ``run`` accepts; a ``"kernel"`` key selects a kernel other
        than the default).  Variants sharing a cluster shape reuse one
        partitioned graph — ``partition_builds`` does not grow per variant.
        """
        results: dict[str, KernelResult] = {}
        for name, options in variants.items():
            opts = dict(options)
            k = opts.pop("kernel", kernel)
            kc = opts.pop("keep_cache", keep_cache)
            results[name] = self.run(k, keep_cache=kc, **opts)
        return results

    # -- updates -------------------------------------------------------------
    def apply_updates(self, batch: UpdateBatch, *, strict: bool = False,
                      rekey: bool = True) -> UpdateOutcome:
        """Apply an edge-update batch to the resident graph.

        The session's graph is replaced by the post-update CSR; every
        resident cluster (the 1D partition and, when ``tc2d`` has run,
        the 2D grid) has only its touched slices / blocks rebuilt, and
        the per-rank CLaMPI caches are maintained **targeted**: entries
        whose cached bytes the update made stale are evicted, entries
        whose adjacency list merely shifted are rekeyed to their new
        offsets (``rekey=False`` disables the remap), so a following
        ``run(..., keep_cache=True)`` stays warm for everything else.
        Any open epochs are closed first (an update is an epoch boundary,
        so transparent-mode caches flush as they would on a real window).

        ``strict=True`` raises on inserting an existing edge or deleting
        an absent one; the default skips them (idempotent semantics, what
        serving traffic wants).
        """
        if self._closed:
            raise KernelError("session is closed")
        res = apply_delta(self.graph, batch, strict=strict)
        return self.sync_to(res, rekey=rekey)

    def sync_to(self, res: DeltaResult, *, rekey: bool = True
                ) -> UpdateOutcome:
        """Fold an already-applied delta into this session.

        The propagation half of :meth:`apply_updates`, split out so a
        :class:`~repro.graphstore.store.GraphStore` commit — one version
        advance for the graph — can be pushed into *every* resident
        session of that graph without re-running the CSR merge per
        session.  ``res.graph`` becomes the session's graph and each
        resident cluster resyncs surgically.
        """
        if self._closed:
            raise KernelError("session is closed")
        self.graph = res.graph
        self.updates_applied += 1
        outcome = UpdateOutcome(delta=res)
        with obs_span("resync", cat="session",
                      graph=getattr(res.graph, "name", None) or "",
                      n_affected=int(res.affected.shape[0])) as sp:
            for cluster in self.clusters():
                outcome.resyncs.append(cluster.resync(res, rekey=rekey))
            sp.note(invalidated=outcome.invalidated_entries,
                    rekeyed=outcome.rekeyed_entries)
        return outcome

    # -- resident clusters ---------------------------------------------------
    def resident_cluster(self, config: LCCConfig | None = None,
                         keep_cache: bool = False
                         ) -> tuple[Engine, DistributedCSR, list, list]:
        """The 1D cluster for ``config``, via ``ResidentCluster.acquire``.

        Returns ``(engine, dist, offsets_caches, adj_caches)``: the hook
        custom resident kernels use.  Kernels that issue RMA should call
        ``dist.close_epochs()`` when done, as the built-ins do.
        """
        if self._c1d is None:
            self._c1d = Cluster1D()
        return self._acquire(self._c1d, config, keep_cache)

    def resident_grid(self, config: LCCConfig | None = None,
                      keep_cache: bool = False) -> GridCluster2D:
        """The 2D grid cluster for ``config``, via ``ResidentCluster.acquire``.

        Its ``execute*`` methods run the 2D kernels; each block lives
        once, as its packed window part.
        """
        if self._c2d is None:
            self._c2d = GridCluster2D()
        return self._acquire(self._c2d, config, keep_cache)

    def _acquire(self, cluster: ResidentCluster, config: LCCConfig | None,
                 keep_cache: bool) -> tuple:
        out = cluster.acquire(self.graph, config or self.config,
                              keep_cache=keep_cache)
        self._last_reused = cluster.last_reused
        self._last_warm = cluster.last_warm
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else (
            "resident" if self.clusters() else "idle")
        return (f"Session(graph={self.graph.name or '?'}, {state}, "
                f"queries={self.queries_run}, "
                f"partition_builds={self.partition_builds})")


def run_kernel(kernel: str, graph: CSRGraph,
               config: LCCConfig | None = None, **opts: Any) -> KernelResult:
    """One-shot convenience: run a single kernel on a throwaway session."""
    with Session(graph, config) as session:
        return session.run(kernel, **opts)


# ---------------------------------------------------------------------------
# Built-in kernels
# ---------------------------------------------------------------------------

@register_kernel("lcc", resident=True,
                 description="asynchronous per-vertex LCC (Algorithm 3)")
def _kernel_lcc(session: Session, config: LCCConfig, *,
                keep_cache: bool = False, **_: Any) -> DistributedRunResult:
    engine, dist, off, adj = session.resident_cluster(config, keep_cache)
    return execute_lcc(engine, dist, config, off, adj)


@register_kernel("tc", resident=True, undirected_only=True,
                 description="asynchronous global triangle count")
def _kernel_tc(session: Session, config: LCCConfig, *,
               keep_cache: bool = False, **_: Any) -> DistributedRunResult:
    engine, dist, off, adj = session.resident_cluster(config, keep_cache)
    return execute_tc(engine, dist, config, off, adj)


@register_kernel("tc2d", resident=True, undirected_only=True,
                 description="asynchronous 2D-grid triangle count")
def _kernel_tc2d(session: Session, config: LCCConfig, *,
                 keep_cache: bool = False, **_: Any) -> DistributedRunResult:
    """Edge-centric 2D triangle count on the resident grid.

    Runs on any grid shape (rectangular grids use the strip-fetch
    fallback).  With ``fast_path`` on (the default), square-grid queries
    replay the epoch's SUMMA panels, cached or not — bit-identical to
    the scalar loop, which ``fast_path=False`` keeps as the oracle.
    """
    return session.resident_grid(config, keep_cache).execute(config)


@register_kernel("tc2d_spgemm", resident=True, undirected_only=True,
                 square_grid_only=True,
                 description="2D triangle count as masked SpGEMM "
                             "(SUMMA panels)")
def _kernel_tc2d_spgemm(session: Session, config: LCCConfig, *,
                        keep_cache: bool = False, **_: Any
                        ) -> DistributedRunResult:
    """Algebraic triangle count: ``(A·A)∘A`` over block-cyclic SUMMA rounds.

    Requires a **square** process grid (``nranks`` a perfect square);
    rectangular grids raise a :class:`ConfigError` (see
    :func:`repro.core.tc2d.require_square_grid`).  Counts, per-rank
    clocks and traces are bit-identical to the edge-centric ``tc2d``
    oracle; warm queries replay the resident SUMMA panel tables instead
    of re-running the per-rank multiply loop.
    """
    return session.resident_grid(config, keep_cache).execute_spgemm(config)


@register_kernel("lcc2d", resident=True, undirected_only=True,
                 square_grid_only=True,
                 description="per-vertex LCC over the SUMMA grid "
                             "(row-strip bookkeeping)")
def _kernel_lcc2d(session: Session, config: LCCConfig, *,
                  keep_cache: bool = False, **_: Any) -> DistributedRunResult:
    """Per-vertex LCC on the 2D grid — the first 2D LCC formulation.

    Requires a **square** process grid, like ``tc2d_spgemm`` (same
    SUMMA rounds, same resident panels).  Scores and per-vertex triplet
    counts are bit-identical to the 1D ``lcc`` kernel; the simulated
    cost adds row-strip degree bookkeeping and a per-grid-row reduction
    on top of the shared block fetches.
    """
    return session.resident_grid(config, keep_cache).execute_lcc2d(config)


@register_kernel("tric",
                 description="TriC baseline (blocking query/response rounds)")
def _kernel_tric(session: Session, config: LCCConfig, *,
                 keep_cache: bool = False, buffer_capacity: int | None = None,
                 balanced: bool = True, **_: Any) -> DistributedRunResult:
    return run_tric(session.graph, TricConfig(
        nranks=config.nranks, buffer_capacity=buffer_capacity,
        balanced=balanced, network=config.network, memory=config.memory,
        compute=config.compute))


@register_kernel("disttc", undirected_only=True,
                 description="DistTC baseline (shadow-edge replication)")
def _kernel_disttc(session: Session, config: LCCConfig, *,
                   keep_cache: bool = False, **_: Any) -> DistributedRunResult:
    return run_disttc(session.graph, DistTCConfig(
        nranks=config.nranks, network=config.network, memory=config.memory,
        compute=config.compute))


@register_kernel("mapreduce", undirected_only=True,
                 description="MapReduce wedge-check baseline")
def _kernel_mapreduce(session: Session, config: LCCConfig, *,
                      keep_cache: bool = False, **_: Any
                      ) -> DistributedRunResult:
    return run_mapreduce_tc(session.graph, MapReduceConfig(
        nranks=config.nranks, network=config.network, memory=config.memory,
        compute=config.compute))
