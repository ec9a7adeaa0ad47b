"""Algebraic 2D kernels: masked SpGEMM over SUMMA panels.

The edge-centric 2D kernel (:mod:`repro.core.tc2d`) walks a Python loop
per rank and per SUMMA round, unpacking packed CSR blocks and running a
scipy multiply for every ``(rank, round)`` pair — exact, but it pays
``p * sqrt(p)`` interpreter round trips per query.  This module is the
linear-algebra backend ROADMAP item 4 calls for: the same masked-SpGEMM
identity

    6T = sum_{I,J} sum_K  || (A[I,K] @ A[K,J]) ∘ A[I,J] ||_1

evaluated **per round instead of per rank, and on the mask**.  On the
undirected graphs the 2D kernels accept, entry ``(i, j)`` of round ``K``
is ``|adj(i) ∩ adj(j) ∩ V_K|``: one sorted-row intersection per stored
edge over the column panel ``A[:, V_K]``
(:func:`~repro.core.intersect.edge_support`), ``Σ_edges deg_K(i) +
deg_K(j)`` merge steps in strips of bounded memory — the strip product
``A[:, V_K] @ A[V_K, :]`` and its fill-in (every open wedge through the
panel) are never formed.  Every rank's per-round product nnz and masked
contribution then fall out of ``np.bincount`` passes over the edges'
owner ranks, the per-vertex row sums out of two over their endpoints.  The
per-rank simulated clocks and traces are rebuilt with the three stages of
:mod:`repro.core.replay`, shared with the 1D kernels: a rank's remote
block fetches (one :class:`~repro.clampi.cache.BatchStream`) go through
:func:`~repro.core.replay.price_gets`, the get fields of its trace come
from :func:`~repro.core.replay.get_totals`, and its clock is one
:func:`~repro.core.replay.fold_slots` over the 2D slot table, in the
scalar loop's program order::

    [head] [left][right][compute] ... [left][right][compute] [tail...]
     0      round k: 1 + 3k, + 1, + 2                         1 + 3c ...

A slot a round does not use — the fetch of a rank's own block, the
multiply of a round with an empty operand — holds ``0.0``; by the
zero-padding rule stated there (durations are ``>= 0``, never ``-0.0`` or
NaN, so ``x + 0.0 == x``) the fold is **bit-identical** to
:func:`repro.core.tc2d.execute_tc2d`, including each float add.  ``head``
and ``tail`` are ``0.0`` / empty for the triangle count; ``lcc2d`` puts
its own-block read, reduction stages and final pass there.

A 2D block lives once, as its packed window part
(:func:`repro.core.tc2d.build_block`): the kernels read the window, and
the sweep takes each block's nnz from the owner bincounts it already
computes.

Two entry points build on the shared :class:`SummaStats` tables:

* :func:`execute_tc2d_spgemm` — the ``tc2d_spgemm`` kernel, and equally
  the replay every fast square-grid ``tc2d`` query dispatches to, cached
  or not (the two are the same program; only result cosmetics differ);
* :func:`execute_lcc2d` — the ``lcc2d`` kernel: per-vertex LCC on the
  same grid.  ``t_v`` is the row sum of ``(A·A)∘A`` accumulated across
  the SUMMA rounds; degrees come from row-strip bookkeeping over the
  resident blocks, and scores go through the same
  :func:`~repro.core.local.lcc_from_triplets` formula as the 1D kernel,
  so the per-vertex values are bit-identical to ``session.run("lcc")``.

Both kernels need a **square** process grid (SUMMA's inner index ranges
over one shared vertex blocking); :func:`repro.core.tc2d.require_square_grid`
raises the guard error in strict mode.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix

from repro.clampi.cache import BatchStream
from repro.clampi.stats import CacheStats
from repro.core.config import DistributedRunResult, LCCConfig
from repro.core.intersect import edge_support
from repro.core.local import lcc_from_triplets
from repro.core.replay import fold_left, fold_slots, get_totals, price_gets
from repro.core.tc2d import require_square_grid
from repro.graph.csr import CSRGraph
from repro.graph.partition2d import GridPartition2D
from repro.obs.trace import span as obs_span
from repro.runtime.engine import Engine, RunOutcome
from repro.runtime.trace import RankTrace
from repro.runtime.window import Window
from repro.utils.errors import ConfigError, SimulationError

__all__ = [
    "SummaStats",
    "build_round_streams",
    "execute_lcc2d",
    "execute_tc2d_spgemm",
    "summa_stats",
]


class SummaStats:
    """Per-epoch tables one SUMMA pass over the resident blocks yields.

    Defined for symmetric ``A`` only (:func:`summa_stats` rejects directed
    graphs).  Everything here is a pure function of block state, so a
    resident :class:`~repro.graphstore.grid2d.GridCluster2D` computes it
    once per state epoch and replays it for every warm query:

    * ``block_nnz[rank]`` — nnz of each rank's block;
    * ``prod_nnz[k, rank]`` — nnz of round ``k``'s masked partial
      product ``(A[I,k] @ A[k,J]) ∘ A[I,J]`` on rank ``(I, J)`` (the
      ``product.nnz`` term of the edge-centric flops charge);
    * ``masked_sum[k, rank]`` — that partial product's entry sum (the
      round's wedge-closure count on the rank);
    * ``tpv[v]`` — per-vertex triplet counts, the row sums of
      ``(A·A)∘A`` accumulated over all rounds (what ``lcc2d`` scores
      from), read-only like ``graph.scores``: results reference it;
    * ``lcc`` — the scores of ``tpv``, filled (read-only) by the first
      ``lcc2d`` query of the epoch.
    """

    __slots__ = ("block_nnz", "prod_nnz", "masked_sum", "tpv", "lcc",
                 "rounds")

    def __init__(self, block_nnz: np.ndarray, prod_nnz: np.ndarray,
                 masked_sum: np.ndarray, tpv: np.ndarray):
        self.block_nnz = block_nnz
        self.prod_nnz = prod_nnz
        self.masked_sum = masked_sum
        tpv.flags.writeable = False
        self.tpv = tpv
        self.lcc: np.ndarray | None = None
        self.rounds = prod_nnz.shape[0]


def summa_stats(graph: CSRGraph, grid: GridPartition2D) -> SummaStats:
    """One SUMMA sweep: per-round, per-rank masked-product tables.

    Round ``k``'s masked product is computed on the mask: the entry of a
    stored edge ``(i, j)`` is ``|adj(i) ∩ adj(j) ∩ V_k|``, one
    :func:`~repro.core.intersect.edge_support` call over the column panel
    ``A[:, V_k]`` — ``Σ_edges deg_k(i) + deg_k(j)`` merge steps, no
    fill-in.  ``A`` is symmetric, so the sweep visits the strictly-upper
    edges and credits each count to both stored directions; restricted to
    block ``(I, J)`` that is exactly the partial product the edge-centric
    loop materializes per rank, so the tables are bit-equal to what ``p``
    per-rank multiplies would produce.  ``A`` has no self-loops, so
    every stored entry is an upper edge or its mirror: the same owner
    bincounts give each block's nnz.
    """
    require_square_grid(grid, kernel="summa_stats", strict=True)
    if graph.directed:
        raise ConfigError("summa_stats expects an undirected graph")
    c, p, n = grid.cols, grid.nranks, graph.n
    prod_nnz = np.zeros((c, p), dtype=np.int64)
    masked_sum = np.zeros((c, p), dtype=np.int64)
    a = csr_matrix(
        (np.ones(graph.adjacency.shape[0], dtype=np.int8), graph.adjacency,
         graph.offsets), shape=(n, n))
    edges = graph.edges()
    upper = edges[edges[:, 0] < edges[:, 1]]
    i, j = np.ascontiguousarray(upper.T)
    # Owner of every upper edge (i, j), then of its stored mirror (j, i).
    owners = (grid.owners_of_edges(upper),
              grid.owners_of_edges(upper[:, ::-1]))

    def per_rank(select, weights=None):
        return sum(np.bincount(o[select], weights=weights, minlength=p)
                   for o in owners).astype(np.int64)

    block_nnz = per_rank(slice(None))

    support = np.zeros(i.shape[0], dtype=np.int64)
    with obs_span("summa", cat="kernel", rounds=c, nranks=p,
                  graph=graph.name or "") as sp:
        for k in range(c):
            lo, hi = grid.col_range(k)
            with obs_span("summa_round", cat="kernel", k=k) as rsp:
                cnt = edge_support(a[:, lo:hi], i, j)
                closed = cnt > 0
                prod_nnz[k] = per_rank(closed)
                masked_sum[k] = per_rank(closed, cnt[closed])
                support += cnt
                rsp.note(nnz=2 * int(np.count_nonzero(closed)))
        tpv = (np.bincount(i, weights=support, minlength=n)
               + np.bincount(j, weights=support, minlength=n)
               ).astype(np.int64)
        sp.note(triplets=int(tpv.sum()))
    return SummaStats(block_nnz, prod_nnz, masked_sum, tpv)


def build_round_streams(grid: GridPartition2D, win: Window
                        ) -> list[BatchStream]:
    """One rank's remote block fetches per SUMMA round, in program order.

    Rank ``(I, J)`` fetches ``A[I, k]`` then ``A[k, J]`` for each round
    ``k`` — whole packed blocks keyed ``(owner, 0, part_len(owner))``,
    exactly the gets the edge-centric loop's ``_fetch_block`` issues
    (own-block reads are free and never enter the stream).
    """
    streams = []
    for rank in range(grid.nranks):
        row, col = grid.grid_coords(rank)
        targets: list[int] = []
        counts: list[int] = []
        for k in range(grid.cols):
            for owner in (row * grid.cols + k, k * grid.cols + col):
                if owner != rank:
                    targets.append(owner)
                    counts.append(win.part_len(owner))
        t = np.asarray(targets, dtype=np.int64)
        streams.append(BatchStream(
            t, np.zeros(t.shape[0], dtype=np.int64),
            np.asarray(counts, dtype=np.int64)))
    return streams


def _replay_rank2d(engine: Engine, grid: GridPartition2D, win: Window,
                   config: LCCConfig, stats: SummaStats, stream: BatchStream,
                   rank: int, head: float = 0.0, tail: tuple = ()
                   ) -> tuple[float, float, dict]:
    """One rank's replayed SUMMA pass: ``(clock, comp_time, get totals)``.

    ``head``/``tail`` are the charges a kernel makes before and after its
    rounds (``lcc2d``'s own-block read, reduction stages and final pass).
    """
    c = grid.cols
    cm = config.compute
    row, col = grid.grid_coords(rank)
    ks = np.arange(c, dtype=np.int64)
    left = row * c + ks
    right = ks * c + col
    dur, hit = price_gets(engine.contexts[rank], win, config.network,
                          stream.counts, lambda: stream)

    block_nnz = stats.block_nnz
    busy = ((block_nnz[left] > 0) & (block_nnz[right] > 0)
            & (block_nnz[rank] > 0))
    flops = block_nnz[left] + block_nnz[right] + stats.prod_nnz[:, rank]
    comp_dt = np.where(busy, cm.edge_overhead + flops * cm.c_ssi, 0.0)

    # Round k's slots are 1 + 3k (left get), + 1 (right get), + 2 (compute);
    # the stream holds the remote fetches row-major: k order, left first.
    base = 1 + 3 * ks
    remote = np.stack([left != rank, right != rank], axis=1)
    clock = fold_slots(
        np.array([0, 1 + 3 * c + len(tail)]), (0, head),
        (np.stack([base, base + 1], axis=1)[remote], dur),
        (base + 2, comp_dt), (slice(1 + 3 * c, None), tail))
    totals = get_totals(dur, hit, stream.counts * win.itemsize,
                        np.array([0, dur.shape[0]]))
    return (float(clock[0]), fold_left(comp_dt),
            {name: values[0] for name, values in totals.items()})


def _block_caches(engine: Engine, win: Window) -> list:
    caches = [engine.contexts[r].cache_for(win) for r in range(engine.nranks)]
    return [c for c in caches if c is not None]


def execute_tc2d_spgemm(engine: Engine, grid: GridPartition2D, win: Window,
                        config: LCCConfig, graph: CSRGraph,
                        stats: SummaStats, streams: list[BatchStream], *,
                        with_cache_stats: bool = True
                        ) -> DistributedRunResult:
    """Masked-SpGEMM triangle count, replayed from the SUMMA tables.

    Bit-identical to :func:`repro.core.tc2d.execute_tc2d` on the same
    cluster state — triangle counts, per-rank clocks, trace totals and
    (with block caches attached) every CLaMPI statistic — because the
    priced program is the same; only the evaluation is vectorized.
    Epochs must be open on entry and are left open on return, exactly
    like the scalar path.  ``with_cache_stats=False`` reproduces the
    scalar result *exactly* (which never surfaces block-cache stats) —
    the mode the fast ``tc2d`` replay runs in.
    """
    require_square_grid(grid, kernel="tc2d_spgemm", strict=True)
    clocks: list[float] = []
    traces: list[RankTrace] = []
    results = stats.masked_sum.sum(axis=0).tolist()
    with obs_span("tc2d_spgemm", cat="kernel", rounds=grid.cols,
                  nranks=grid.nranks) as sp:
        for rank in range(grid.nranks):
            clock, comp, totals = _replay_rank2d(
                engine, grid, win, config, stats, streams[rank], rank)
            clocks.append(clock)
            traces.append(RankTrace.from_totals(rank, comp_time=comp,
                                                **totals))
        total = int(sum(results))
        if total % 6:
            raise SimulationError(
                f"2D triplet total {total} not divisible by 6")
        sp.note(triangles=total // 6)
    outcome = RunOutcome(time=max(clocks), clocks=clocks, traces=traces,
                         results=results)
    caches = _block_caches(engine, win) if with_cache_stats else []
    return DistributedRunResult(
        lcc=None,
        triangles_per_vertex=None,
        global_triangles=total // 6,
        outcome=outcome,
        adj_cache_stats=CacheStats.merged(caches),
    )


def execute_lcc2d(engine: Engine, grid: GridPartition2D, win: Window,
                  config: LCCConfig, graph: CSRGraph,
                  stats: SummaStats, streams: list[BatchStream]
                  ) -> DistributedRunResult:
    """Per-vertex LCC over the SUMMA grid.

    The same round structure (and the same remote block fetches) as
    :func:`execute_tc2d_spgemm`, plus the LCC-specific tail each rank
    runs after its rounds:

    * one local read of its own packed block — the row-strip degree
      bookkeeping (degrees are row sums of the resident blocks);
    * ``ceil(log2(c))`` reduction stages combining the row strip's
      per-vertex partials across the grid row (priced
      ``get_time(8 * local_rows)`` each, clock-only like the 1D tc
      reduce);
    * on the diagonal rank of each grid row, ``vertex_overhead`` per
      local row for the final score division.

    Scores are **bit-identical to the 1D ``lcc`` kernel**: ``tpv`` is
    the row sum of ``(A·A)∘A`` (equal to ``(A·Aᵀ)∘A`` on the undirected
    graphs the grid requires) and the division goes through the same
    :func:`~repro.core.local.lcc_from_triplets`.
    """
    require_square_grid(grid, kernel="lcc2d", strict=True)
    if graph.directed:
        raise ConfigError("lcc2d expects an undirected graph "
                          "((A·A)∘A only counts wedges symmetrically)")
    cm = config.compute
    memory = config.memory
    network = config.network
    c = grid.cols
    stages = int(math.ceil(math.log2(c))) if c > 1 else 0
    clocks: list[float] = []
    traces: list[RankTrace] = []
    with obs_span("lcc2d", cat="kernel", rounds=c,
                  nranks=grid.nranks) as sp:
        for rank in range(grid.nranks):
            row, col = grid.grid_coords(rank)
            r_lo, r_hi = grid.row_range(row)
            n_rows = r_hi - r_lo
            own_nbytes = win.part_nbytes(rank)
            own_dt = float(memory.local_read_time(own_nbytes))
            reduce_dt = float(network.get_time(8 * n_rows))
            final_dt = (cm.vertex_overhead * n_rows) if row == col else 0.0
            clock, comp, totals = _replay_rank2d(
                engine, grid, win, config, stats, streams[rank], rank,
                head=own_dt, tail=(reduce_dt,) * stages + (final_dt,))
            clocks.append(clock)
            # The rounds' compute is one pre-folded charge between the
            # own-block read and the final pass.
            traces.append(RankTrace.from_totals(
                rank, n_local_reads=1, bytes_local=own_nbytes,
                comp_time=own_dt + comp + final_dt, **totals))
        total = int(stats.tpv.sum())
        sp.note(triplets=total)
    if stats.lcc is None:
        stats.lcc = lcc_from_triplets(graph, stats.tpv)
        stats.lcc.flags.writeable = False
    outcome = RunOutcome(time=max(clocks), clocks=clocks, traces=traces,
                         results=stats.masked_sum.sum(axis=0).tolist())
    return DistributedRunResult(
        lcc=stats.lcc,
        triangles_per_vertex=stats.tpv,
        global_triangles=total // 6,
        outcome=outcome,
        adj_cache_stats=CacheStats.merged(_block_caches(engine, win)),
    )
