"""Distributed, fully asynchronous global triangle counting.

Same communication structure as the LCC kernel (Algorithm 3), but with the
paper's double-counting elimination (Section II-C): for an undirected
graph, rank ``r`` processes each locally-owned edge ``(v, j)`` only when
``v < j`` and counts common neighbours ``k > j``, so every triangle
``i < j < k`` is counted exactly once, at its smallest-id vertex's owner.

The final global sum is a single allreduce; its cost (``log2 p`` latency
stages) is charged to every rank's clock.
"""

from __future__ import annotations

import math

import numpy as np

from repro.clampi.stats import CacheStats
from repro.core.config import DistributedRunResult, LCCConfig
from repro.core.intersect import count_common_above
from repro.core.threading import OpenMPModel
from repro.graph.csr import CSRGraph
from repro.graph.distributed import DistributedCSR
from repro.runtime.context import SimContext
from repro.utils.errors import ConfigError


def _tc_rank_fn(dist: DistributedCSR, config: LCCConfig, omp: OpenMPModel,
                counts_out: np.ndarray):
    method = config.method
    overlap = config.overlap
    memory = config.memory
    network = config.network
    nranks = config.nranks

    def rank_fn(ctx: SimContext) -> int:
        rank = ctx.rank
        vs = dist.local_vertices(rank)
        offs_local = dist.w_offsets.local_part(rank)
        adj_local = dist.w_adj.local_part(rank)
        local_count = 0
        for li in range(vs.shape[0]):
            v = int(vs[li])
            a = adj_local[offs_local[li]:offs_local[li + 1]]
            dt = memory.local_read_time(a.nbytes)
            ctx.advance(dt)
            ctx.trace.comp_time += dt
            # Only the upper-triangle endpoints: j > v.
            uppers = a[np.searchsorted(a, v + 1):]
            deg = a.shape[0]
            if overlap and uppers.shape[0]:
                local_count += _count_overlapped(ctx, dist, omp, method,
                                                 a, uppers, deg)
            else:
                for j in uppers:
                    b = dist.read_adjacency(ctx, int(j))
                    ctx.compute(omp.kernel_time(method, deg, b.shape[0]))
                    local_count += count_common_above(a, b, int(j), method)
        # Global reduction of the per-rank counts.
        stages = math.ceil(math.log2(nranks)) if nranks > 1 else 0
        ctx.advance(stages * (network.alpha + 8 * network.beta))
        counts_out[rank] = local_count
        return local_count

    return rank_fn


def _count_overlapped(ctx, dist, omp, method, a, uppers, deg) -> int:
    b, comm_dt = dist.read_adjacency_timed(ctx, int(uppers[0]))
    ctx.advance(comm_dt)
    total = 0
    for i in range(uppers.shape[0]):
        j = int(uppers[i])
        kernel_dt = omp.kernel_time(method, deg, b.shape[0])
        total += count_common_above(a, b, j, method)
        if i + 1 < uppers.shape[0]:
            b_next, comm_next = dist.read_adjacency_timed(ctx, int(uppers[i + 1]))
            ctx.advance(max(kernel_dt, comm_next))
            ctx.trace.comp_time += kernel_dt
            b = b_next
        else:
            ctx.compute(kernel_dt)
    return total


def require_undirected(graph: CSRGraph) -> None:
    """Reject directed graphs with the triangle-counting error message."""
    if graph.directed:
        raise ConfigError(
            "global triangle counting expects an undirected graph; "
            "use run_distributed_lcc for directed transitive-triad analysis"
        )


def run_distributed_tc(graph: CSRGraph, config: LCCConfig | None = None
                       ) -> DistributedRunResult:
    """Count all triangles of an undirected graph on a throwaway cluster.

    The ``"tc"`` kernel on a one-query :class:`~repro.session.Session`.
    """
    require_undirected(graph)
    from repro.session import run_kernel

    return run_kernel("tc", graph, config).raw


def execute_tc(engine, dist: DistributedCSR, config: LCCConfig,
               off_caches: list = (), adj_caches: list = ()
               ) -> DistributedRunResult:
    """Run the TC kernel on an already-built cluster (epochs open on entry).

    Like :func:`repro.core.lcc.execute_lcc`, dispatches to the batched
    replay (:mod:`repro.core.replay`) when ``config.fast_path`` is on, and
    to the per-edge loop otherwise.
    """
    if config.fast_path:
        from repro.core.replay import execute_tc_batched

        return execute_tc_batched(engine, dist, config, off_caches,
                                  adj_caches)
    return execute_tc_loop(engine, dist, config, off_caches, adj_caches)


def execute_tc_loop(engine, dist: DistributedCSR, config: LCCConfig,
                    off_caches: list = (), adj_caches: list = ()
                    ) -> DistributedRunResult:
    """The per-edge TC loop — the batched replay's reference oracle.

    Counterpart of :func:`repro.core.lcc.execute_lcc_loop` for global
    triangle counting; epochs must be open on entry and are closed on
    return.
    """
    omp = OpenMPModel(threads=config.threads, compute=config.compute,
                      wait_policy=config.wait_policy)
    counts = np.zeros(config.nranks, dtype=np.int64)
    outcome = engine.run(_tc_rank_fn(dist, config, omp, counts))
    dist.close_epochs()
    return DistributedRunResult(
        lcc=None,
        triangles_per_vertex=None,
        global_triangles=int(counts.sum()),
        outcome=outcome,
        offsets_cache_stats=CacheStats.merged(off_caches),
        adj_cache_stats=CacheStats.merged(adj_caches),
    )
