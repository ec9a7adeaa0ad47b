"""MapReduce-style triangle counting (Kolda et al., related work V-C).

The classic wedge-check formulation: every vertex *maps* its neighbour
pairs (wedges) to the rank owning the wedge's closing edge, a *shuffle*
(simulated alltoallv) redistributes them, and owners *reduce* by testing
whether the closing edge exists.  Each triangle is seen by its three
wedge centres, so the global count is the closed-wedge total divided by 3.

The point of carrying this baseline is its **volume**: the shuffle moves
one record per wedge — ``sum_v C(deg(v), 2)`` records, *quadratic* in hub
degree — which is exactly why the paper groups MapReduce with the
synchronization-bound prior work its asynchronous design replaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import DistributedRunResult
from repro.graph.csr import CSRGraph
from repro.graph.distributed import DistributedCSR
from repro.graph.partition import BlockPartition1D
from repro.runtime.compute import ComputeModel
from repro.runtime.context import SimContext
from repro.runtime.engine import Engine
from repro.runtime.network import MemoryModel, NetworkModel
from repro.utils.errors import ConfigError, SimulationError


@dataclass(frozen=True)
class MapReduceConfig:
    """Configuration of a MapReduce-style TC run."""

    nranks: int = 8
    network: NetworkModel = field(default_factory=NetworkModel.aries)
    memory: MemoryModel = field(default_factory=MemoryModel)
    compute: ComputeModel = field(default_factory=ComputeModel)

    def __post_init__(self) -> None:
        if self.nranks < 1:
            raise ConfigError(f"nranks must be >= 1, got {self.nranks}")


def run_mapreduce_tc(graph: CSRGraph, config: MapReduceConfig | None = None
                     ) -> DistributedRunResult:
    """Wedge-check MapReduce triangle count on the simulated cluster."""
    if graph.directed:
        raise ConfigError("MapReduce TC expects an undirected graph")
    config = config or MapReduceConfig()
    engine = Engine(config.nranks, network=config.network,
                    memory=config.memory, compute=config.compute)
    part = BlockPartition1D(graph.n, config.nranks)
    dist = DistributedCSR(graph, part, engine)
    shuffle_volume = np.zeros(config.nranks, dtype=np.int64)

    def rank_fn(ctx: SimContext):
        rank = ctx.rank
        cm = config.compute
        vs = dist.local_vertices(rank)
        offs_local = dist.w_offsets.local_part(rank)
        adj_local = dist.w_adj.local_part(rank)

        # ---- map: emit every wedge (j, k), j < k, to owner(j) -------------
        wedge_j: list[list[np.ndarray]] = [[] for _ in range(ctx.nranks)]
        wedge_k: list[list[np.ndarray]] = [[] for _ in range(ctx.nranks)]
        for li in range(vs.shape[0]):
            a = adj_local[offs_local[li]:offs_local[li + 1]]
            d = a.shape[0]
            if d < 2:
                continue
            iu, iv = np.triu_indices(d, k=1)
            js = a[iu].astype(np.int64)
            ks = a[iv].astype(np.int64)
            ctx.compute(cm.edge_overhead + js.shape[0] * cm.c_ssi)
            owners = part.owners(js)
            for dest in np.unique(owners):
                mask = owners == dest
                wedge_j[dest].append(js[mask])
                wedge_k[dest].append(ks[mask])

        payloads = []
        nbytes = []
        for dest in range(ctx.nranks):
            if wedge_j[dest]:
                js = np.concatenate(wedge_j[dest])
                ks = np.concatenate(wedge_k[dest])
            else:
                js = np.empty(0, dtype=np.int64)
                ks = js
            payloads.append((js, ks))
            nbytes.append(js.nbytes + ks.nbytes)
        shuffle_volume[rank] = sum(nbytes)

        # ---- shuffle (the synchronization + volume bottleneck) -------------
        received = yield ctx.alltoallv(payloads, nbytes)

        # ---- reduce: closed-wedge checks against local adjacency ------------
        # The MapReduce contract groups records by key first: charge the
        # reducer-side sort over everything received (n log n comparisons).
        total_recv = sum(js.shape[0] for js, _ in received)
        if total_recv:
            ctx.compute(total_recv * max(1.0, np.log2(total_recv)) * cm.c_ssi)
        closed = 0
        for js, ks in received:
            if js.shape[0] == 0:
                continue
            order = np.argsort(js, kind="stable")
            js_sorted, ks_sorted = js[order], ks[order]
            ctx.compute(cm.edge_overhead + js.shape[0] * cm.c_ssi)
            boundaries = np.concatenate(
                [[0], np.nonzero(np.diff(js_sorted))[0] + 1,
                 [js_sorted.shape[0]]])
            for bi in range(boundaries.shape[0] - 1):
                lo, hi = int(boundaries[bi]), int(boundaries[bi + 1])
                j = int(js_sorted[lo])
                adj_j = dist.local_adj(rank, j)
                ctx.compute(cm.binary_search_time(hi - lo, adj_j.shape[0]))
                idx = np.searchsorted(adj_j, ks_sorted[lo:hi])
                idx[idx == adj_j.shape[0]] = 0
                closed += int(np.count_nonzero(
                    adj_j[idx] == ks_sorted[lo:hi]))

        total = yield ctx.allreduce(float(closed))
        return int(total)

    outcome = engine.run(rank_fn)
    closed_total = int(outcome.results[0])
    if closed_total % 3:
        raise SimulationError(f"closed-wedge total {closed_total} not "
                              "divisible by 3 (every triangle has three "
                              "wedge centres)")
    result = DistributedRunResult(
        lcc=None,
        triangles_per_vertex=None,
        global_triangles=closed_total // 3,
        outcome=outcome,
    )
    result.shuffle_bytes = int(shuffle_volume.sum())  # type: ignore[attr-defined]
    return result
