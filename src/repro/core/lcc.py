"""Distributed, fully asynchronous LCC (the paper's Algorithm 3).

Per rank, for every locally-owned vertex ``v``:

1. read ``adj(v)`` from the local partition (a DRAM access);
2. for every neighbour ``j``: obtain ``adj(j)`` — locally if owned,
   otherwise via the two-get RMA protocol (offsets window, then adjacency
   window), both gets flowing through the CLaMPI caches when enabled;
3. ``t_v += |adj(v) ∩ adj(j)|`` using the configured intersection kernel
   under the OpenMP cost model;
4. ``LCC(v) = t_v / (deg_v (deg_v - 1))`` — the degree is implicit in the
   CSR offsets, so the score is "instantly attainable" (Section III-A).

No rank ever waits on another (passive-target RMA), so ranks are simulated
independently; the job time is the slowest rank's clock.

**Double buffering** (``overlap=True``): the communication for edge
``i + 1`` is overlapped with the computation of edge ``i``, charging
``max(comm, comp)`` instead of their sum per step (Section III-A's
double-buffering approach).
"""

from __future__ import annotations

import numpy as np

from repro.clampi.stats import CacheStats
from repro.core.config import DistributedRunResult, LCCConfig
from repro.core.intersect import count_common
from repro.core.threading import OpenMPModel
from repro.graph.csr import CSRGraph
from repro.graph.distributed import DistributedCSR
from repro.graph.partition import BlockPartition1D, CyclicPartition1D, Partition
from repro.runtime.context import SimContext
from repro.runtime.engine import Engine
from repro.utils.errors import ConfigError


def make_partition(config: LCCConfig, n: int) -> Partition:
    """Instantiate the configured partitioning scheme."""
    if config.partition == "block":
        return BlockPartition1D(n, config.nranks)
    if config.partition == "cyclic":
        return CyclicPartition1D(n, config.nranks)
    raise ConfigError(f"unknown partition {config.partition!r}")


def _lcc_rank_fn(dist: DistributedCSR, config: LCCConfig, omp: OpenMPModel,
                 tpv_out: np.ndarray, lcc_out: np.ndarray):
    """Build the per-rank worker (a plain function: fully asynchronous)."""
    method = config.method
    overlap = config.overlap
    compute_model = config.compute
    memory = config.memory

    def rank_fn(ctx: SimContext) -> int:
        rank = ctx.rank
        vs = dist.local_vertices(rank)
        offs_local = dist.w_offsets.local_part(rank)
        adj_local = dist.w_adj.local_part(rank)
        local_triplets = 0
        for li in range(vs.shape[0]):
            v = int(vs[li])
            a = adj_local[offs_local[li]:offs_local[li + 1]]
            deg = a.shape[0]
            # Local read of the own adjacency list.
            dt = memory.local_read_time(a.nbytes)
            ctx.advance(dt)
            ctx.trace.comp_time += dt
            t_v = 0
            if deg:
                if overlap:
                    t_v = _process_vertex_overlapped(ctx, dist, omp, method,
                                                    a, deg)
                else:
                    t_v = _process_vertex_sequential(ctx, dist, omp, method,
                                                     a, deg)
            ctx.compute(compute_model.vertex_overhead)
            tpv_out[v] = t_v
            denom = deg * (deg - 1)
            lcc_out[v] = t_v / denom if denom > 0 else 0.0
            local_triplets += t_v
        return local_triplets

    return rank_fn


def _process_vertex_sequential(ctx: SimContext, dist: DistributedCSR,
                               omp: OpenMPModel, method: str,
                               a: np.ndarray, deg: int) -> int:
    """Plain per-edge loop: communication then computation, serialized."""
    t_v = 0
    for j in a:
        b = dist.read_adjacency(ctx, int(j))
        ctx.compute(omp.kernel_time(method, deg, b.shape[0]))
        t_v += count_common(a, b, method)
    return t_v


def _process_vertex_overlapped(ctx: SimContext, dist: DistributedCSR,
                               omp: OpenMPModel, method: str,
                               a: np.ndarray, deg: int) -> int:
    """Double-buffered loop: edge i+1's communication hides edge i's compute.

    The first fetch cannot be hidden; afterwards each step advances the
    clock by ``max(kernel_i, comm_{i+1})``.  Trace counters still record
    the *busy* time per category (that is how the paper can report
    communication taking 97% of runtime even with overlap enabled).
    """
    b, comm_dt = dist.read_adjacency_timed(ctx, int(a[0]))
    ctx.advance(comm_dt)
    t_v = 0
    for i in range(deg):
        kernel_dt = omp.kernel_time(method, deg, b.shape[0])
        t_v += count_common(a, b, method)
        if i + 1 < deg:
            b_next, comm_next = dist.read_adjacency_timed(ctx, int(a[i + 1]))
            ctx.advance(max(kernel_dt, comm_next))
            ctx.trace.comp_time += kernel_dt
            b = b_next
        else:
            ctx.compute(kernel_dt)
    return t_v


def run_distributed_lcc(graph: CSRGraph, config: LCCConfig | None = None
                        ) -> DistributedRunResult:
    """Run Algorithm 3 over a throwaway simulated cluster.

    The ``"lcc"`` kernel on a one-query :class:`~repro.session.Session`:
    the batched replay (:mod:`repro.core.replay`) unless
    ``fast_path=False`` forces the per-edge loop, the oracle the replay
    is pinned bit-identical against.
    """
    from repro.session import run_kernel

    return run_kernel("lcc", graph, config).raw


def execute_lcc(engine: Engine, dist: DistributedCSR, config: LCCConfig,
                off_caches: list = (), adj_caches: list = ()
                ) -> DistributedRunResult:
    """Run the LCC kernel on an already-built cluster (epochs open on entry).

    Dispatches between two bit-identical implementations: the batched
    replay (:mod:`repro.core.replay`) whenever ``config.fast_path`` is on
    — cached and cache-less runs alike — and the per-edge loop
    (:func:`execute_lcc_loop`) otherwise.
    """
    if config.fast_path:
        from repro.core.replay import execute_lcc_batched

        return execute_lcc_batched(engine, dist, config, off_caches,
                                   adj_caches)
    return execute_lcc_loop(engine, dist, config, off_caches, adj_caches)


def execute_lcc_loop(engine: Engine, dist: DistributedCSR, config: LCCConfig,
                     off_caches: list = (), adj_caches: list = ()
                     ) -> DistributedRunResult:
    """The per-edge loop implementation — the replay's reference oracle.

    Runs on any built 1D cluster (a :class:`repro.session.Session`'s
    resident one, or a throwaway session's).  Epochs must be open on
    entry; they are closed on return.
    """
    graph = dist.graph
    omp = OpenMPModel(threads=config.threads, compute=config.compute,
                      wait_policy=config.wait_policy)
    tpv = np.zeros(graph.n, dtype=np.int64)
    lcc = np.zeros(graph.n, dtype=np.float64)
    outcome = engine.run(_lcc_rank_fn(dist, config, omp, tpv, lcc))
    dist.close_epochs()

    total = int(tpv.sum())
    if graph.directed:
        global_triangles = total
    else:
        global_triangles = total // 6

    return DistributedRunResult(
        lcc=lcc,
        triangles_per_vertex=tpv,
        global_triangles=global_triangles,
        outcome=outcome,
        offsets_cache_stats=CacheStats.merged(off_caches),
        adj_cache_stats=CacheStats.merged(adj_caches),
    )
