"""Vectorized fast path for non-cached distributed LCC runs.

The per-edge Python loop in :mod:`repro.core.lcc` is only required when op
recording is on; cached runs are replayed in vectorized segments by
:mod:`repro.core.replay` (the CLaMPI state machine batched between
state-changing events).  Without caches the situation is even simpler — a
rank's simulated clock is a *closed-form* function of its edge list:

* per-edge communication: two gets (offsets pair + adjacency list) for
  remote neighbours, one DRAM read for local ones;
* per-edge computation: the OpenMP kernel cost for the (|adj(v)|,
  |adj(j)|) pair;
* double buffering combines them as ``c_0 + sum(max(k_i, c_{i+1})) +
  k_last`` per vertex instead of the plain sum.

This module evaluates those sums with NumPy over whole ranks, typically
30-100x faster in wall-clock time than the loop, while producing
**identical** results: the same LCC array (from the sparse-matrix counting
path) and the same trace totals and clocks (pinned to the loop
implementation by tests to double precision).

Used automatically by :func:`repro.core.lcc.run_distributed_lcc` when
``config.cache is None and not config.record_ops``.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import DistributedRunResult, LCCConfig
from repro.core.local import lcc_from_triplets, triangles_per_vertex_batched
from repro.core.threading import OpenMPModel, kernel_times_vectorized
from repro.graph.csr import CSRGraph
from repro.graph.distributed import DistributedCSR
from repro.graph.partition import Partition
from repro.runtime.engine import Engine, RunOutcome
from repro.runtime.trace import RankTrace


def simulate_rank_fast(graph: CSRGraph, dist: DistributedCSR,
                       config: LCCConfig, omp: OpenMPModel, rank: int
                       ) -> RankTrace:
    """Closed-form accounting of one rank's LCC pass; returns its trace.

    The returned trace's ``comm_time``/``comp_time``/counters and the
    implied clock (stored in ``trace.sync_time``-free total, returned via
    the caller) replicate :func:`repro.core.lcc._lcc_rank_fn` exactly.
    """
    part: Partition = dist.partition
    memory = config.memory
    network = config.network
    compute = config.compute
    itemsize = dist.w_adj.itemsize
    offs_itemsize = dist.w_offsets.itemsize

    vs = dist.local_vertices(rank)
    offs_local = dist.w_offsets.local_part(rank).astype(np.int64)
    adj_local = dist.w_adj.local_part(rank)
    trace = RankTrace(rank=rank)
    n_local_vertices = vs.shape[0]
    if n_local_vertices == 0:
        return trace

    degrees_all = graph.degrees()
    la = np.repeat(degrees_all[vs], np.diff(offs_local))  # |adj(v)| per edge
    dst = adj_local.astype(np.int64)
    lb = degrees_all[dst]                                  # |adj(j)| per edge
    remote = part.owners(dst) != rank

    # -- per-edge communication ------------------------------------------------
    adj_bytes = lb * itemsize
    comm = np.empty(dst.shape[0], dtype=np.float64)
    comm[remote] = (network.get_times(np.full(remote.sum(),
                                              2 * offs_itemsize))
                    + network.get_times(adj_bytes[remote]))
    comm[~remote] = memory.local_read_times(adj_bytes[~remote])

    # -- per-edge computation -----------------------------------------------------
    kern = kernel_times_vectorized(omp, config.method,
                                   la.astype(np.float64),
                                   lb.astype(np.float64))

    # -- combine per vertex ---------------------------------------------------------
    degs = np.diff(offs_local)
    starts = offs_local[:-1]
    ends = offs_local[1:]
    nonempty = degs > 0
    if config.overlap:
        # c_first + sum over i<deg-1 of max(k_i, c_{i+1}) + k_last.
        if dst.shape[0] > 1:
            merged = np.maximum(kern[:-1], comm[1:])
            # Do not pipeline across vertex boundaries: drop i = end-1.
            boundary = ends[nonempty] - 1
            keep = np.ones(merged.shape[0], dtype=bool)
            keep[boundary[boundary < merged.shape[0]]] = False
            pipeline_total = float(merged[keep].sum())
        else:
            pipeline_total = 0.0
        edge_total = (pipeline_total
                      + float(comm[starts[nonempty]].sum())
                      + float(kern[ends[nonempty] - 1].sum()))
    else:
        edge_total = float(comm.sum() + kern.sum())

    own_read = memory.local_read_times(degs * itemsize).sum()
    clock = (edge_total + float(own_read)
             + n_local_vertices * compute.vertex_overhead)

    # -- trace bookkeeping (mirrors the loop implementation) ------------------------
    n_remote = int(remote.sum())
    trace.n_remote_gets = 2 * n_remote
    trace.bytes_remote = int((adj_bytes[remote]
                              + 2 * offs_itemsize).sum()) if n_remote else 0
    trace.n_local_reads = int((~remote).sum())
    trace.bytes_local = int(adj_bytes[~remote].sum())
    trace.comm_time = float(comm[remote].sum())
    trace.comp_time = (float(kern.sum()) + float(comm[~remote].sum())
                       + float(own_read)
                       + n_local_vertices * compute.vertex_overhead)
    # Stash the clock where the caller can read it.
    trace._fast_clock = clock  # type: ignore[attr-defined]
    return trace


def run_distributed_lcc_fast(graph: CSRGraph, config: LCCConfig,
                             dist: DistributedCSR | None = None
                             ) -> DistributedRunResult:
    """Non-cached distributed LCC via the closed-form path.

    Pass a prebuilt ``dist`` (whose partition must match ``config``) to
    skip the CSR split — :class:`repro.session.Session` reuses its resident
    partitioned graph this way.
    """
    from repro.core.lcc import make_partition

    if dist is None:
        engine = Engine(config.nranks, network=config.network,
                        memory=config.memory, compute=config.compute)
        dist = DistributedCSR(graph, make_partition(config, graph.n), engine)
    omp = OpenMPModel(threads=config.threads, compute=config.compute,
                      wait_policy=config.wait_policy)

    traces = []
    clocks = []
    for rank in range(config.nranks):
        trace = simulate_rank_fast(graph, dist, config, omp, rank)
        traces.append(trace)
        clocks.append(float(getattr(trace, "_fast_clock", 0.0)))

    tpv = triangles_per_vertex_batched(graph)
    lcc = lcc_from_triplets(graph, tpv)
    total = int(tpv.sum())
    outcome = RunOutcome(time=max(clocks), clocks=clocks, traces=traces,
                         results=[int(tpv[dist.local_vertices(r)].sum())
                                  for r in range(config.nranks)])
    return DistributedRunResult(
        lcc=lcc,
        triangles_per_vertex=tpv,
        global_triangles=total if graph.directed else total // 6,
        outcome=outcome,
        offsets_cache_stats=None,
        adj_cache_stats=None,
    )
