"""Algebraic 2D kernels: masked SpGEMM over SUMMA panels.

The edge-centric 2D kernel (:mod:`repro.core.tc2d`) walks a Python loop
per rank and per SUMMA round, unpacking packed CSR blocks and running a
scipy multiply for every ``(rank, round)`` pair — exact, but it pays
``p * sqrt(p)`` interpreter round trips per query.  This module is the
linear-algebra backend ROADMAP item 4 calls for: the same masked-SpGEMM
identity

    6T = sum_{I,J} sum_K  || (A[I,K] @ A[K,J]) ∘ A[I,J] ||_1

evaluated **per round instead of per rank**.  Round ``K`` of SUMMA
multiplies the column panel ``A[:, V_K]`` by the row panel ``A[V_K, :]``
(one strip SpGEMM for the whole grid) and masks by ``A``; every rank's
per-round product nnz, masked contribution and per-vertex row sums then
fall out of two ``np.bincount`` passes over the block coordinates.  The
per-rank simulated clocks and traces are rebuilt exactly as
:mod:`repro.core.replay` rebuilds the 1D kernels': the remote block
fetches are emitted as a :class:`~repro.clampi.cache.BatchStream` per
rank (pushed through :meth:`ClampiCache.access_batch` when block caches
are attached, closed-form network costs otherwise) and every clock /
trace total is a strict left-to-right ``np.cumsum`` fold over delta
arrays laid out in the scalar loop's program order — **bit-identical**
to :func:`repro.core.tc2d.execute_tc2d`, including each float add.

Three entry points build on the shared :class:`SummaStats` tables:

* :func:`execute_tc2d_spgemm` — the ``tc2d_spgemm`` kernel, and equally
  the batched replay the cached ``tc2d`` fast path dispatches to (the
  two are the same program; only result cosmetics differ);
* :func:`execute_lcc2d` — the ``lcc2d`` kernel: per-vertex LCC on the
  same grid.  ``t_v`` is the row sum of ``(A·A)∘A`` accumulated across
  the SUMMA rounds; degrees come from row-strip bookkeeping over the
  resident blocks, and scores go through the same
  :func:`~repro.core.local.lcc_from_triplets` formula as the 1D kernel,
  so the per-vertex values are bit-identical to ``session.run("lcc")``;
* :func:`run_tc2d_spgemm` — a throwaway per-call convenience mirroring
  :func:`~repro.core.tc2d.run_distributed_tc_2d`.

Both kernels need a **square** process grid (SUMMA's inner index ranges
over one shared vertex blocking); :func:`repro.core.tc2d.require_square_grid`
raises the guard error in strict mode.
"""

from __future__ import annotations

import math

import numpy as np

from repro.clampi.cache import BatchStream
from repro.clampi.stats import CacheStats
from repro.core.config import DistributedRunResult, LCCConfig
from repro.core.local import lcc_from_triplets, to_sparse
from repro.core.replay import fold_left
from repro.core.tc2d import (
    BLOCKS_WINDOW,
    build_grid_blocks,
    pack_block,
    require_square_grid,
)
from repro.graph.csr import CSRGraph
from repro.graph.partition2d import GridPartition2D
from repro.obs.trace import span as obs_span
from repro.runtime.engine import Engine, RunOutcome
from repro.runtime.trace import RankTrace
from repro.runtime.window import Window
from repro.utils.errors import ConfigError

__all__ = [
    "SummaStats",
    "build_round_streams",
    "execute_lcc2d",
    "execute_tc2d_spgemm",
    "run_tc2d_spgemm",
    "summa_stats",
]


class SummaStats:
    """Per-epoch tables one SUMMA pass over the resident blocks yields.

    Everything here is a pure function of block state, so a resident
    :class:`~repro.graphstore.grid2d.GridCluster2D` computes it once per
    state epoch and replays it for every warm query:

    * ``block_nnz[rank]`` — nnz of each resident block;
    * ``prod_nnz[k, rank]`` — nnz of round ``k``'s masked partial
      product ``(A[I,k] @ A[k,J]) ∘ A[I,J]`` on rank ``(I, J)`` (the
      ``product.nnz`` term of the edge-centric flops charge);
    * ``masked_sum[k, rank]`` — that partial product's entry sum (the
      round's wedge-closure count on the rank);
    * ``tpv[v]`` — per-vertex triplet counts, the row sums of
      ``(A·A)∘A`` accumulated over all rounds (what ``lcc2d`` scores
      from).
    """

    __slots__ = ("block_nnz", "prod_nnz", "masked_sum", "tpv", "rounds")

    def __init__(self, block_nnz: np.ndarray, prod_nnz: np.ndarray,
                 masked_sum: np.ndarray, tpv: np.ndarray):
        self.block_nnz = block_nnz
        self.prod_nnz = prod_nnz
        self.masked_sum = masked_sum
        self.tpv = tpv
        self.rounds = prod_nnz.shape[0]


def summa_stats(graph: CSRGraph, grid: GridPartition2D,
                blocks: list) -> SummaStats:
    """One SUMMA sweep: per-round, per-rank masked-product tables.

    Round ``k`` multiplies the column panel ``A[:, V_k]`` by the row
    panel ``A[V_k, :]`` in one strip SpGEMM and masks elementwise by
    ``A``; restricted to block ``(I, J)`` that is exactly the partial
    product the edge-centric loop materializes per rank, so the tables
    are bit-equal to what ``p`` per-rank multiplies would produce.
    """
    require_square_grid(grid, kernel="summa_stats", strict=True)
    c, p, n = grid.cols, grid.nranks, graph.n
    block_nnz = np.array([b.nnz for b in blocks], dtype=np.int64)
    prod_nnz = np.zeros((c, p), dtype=np.int64)
    masked_sum = np.zeros((c, p), dtype=np.int64)
    tpv = np.zeros(n, dtype=np.int64)
    a = to_sparse(graph)
    with obs_span("summa", cat="kernel", rounds=c, nranks=p,
                  graph=graph.name or "") as sp:
        for k in range(c):
            lo, hi = grid.col_range(k)
            with obs_span("summa_round", cat="kernel", k=k) as rsp:
                if lo == hi:
                    continue
                masked = (a[:, lo:hi] @ a[lo:hi, :]).multiply(a).tocoo()
                if masked.nnz:
                    edges = np.column_stack([
                        masked.row.astype(np.int64),
                        masked.col.astype(np.int64)])
                    owners = grid.owners_of_edges(edges)
                    prod_nnz[k] = np.bincount(owners, minlength=p)
                    masked_sum[k] = np.bincount(
                        owners, weights=masked.data.astype(np.float64),
                        minlength=p).astype(np.int64)
                    tpv += np.bincount(
                        masked.row.astype(np.int64),
                        weights=masked.data.astype(np.float64),
                        minlength=n).astype(np.int64)
                rsp.note(nnz=int(masked.nnz) if lo != hi else 0)
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


class _RankReplay2D:
    """One rank's replayed SUMMA pass: durations, folds, trace totals."""

    def __init__(self, engine: Engine, grid: GridPartition2D, win: Window,
                 config: LCCConfig, stats: SummaStats, stream: BatchStream,
                 rank: int):
        c = grid.cols
        cm = config.compute
        ctx = engine.contexts[rank]
        row, col = grid.grid_coords(rank)
        ks = np.arange(c, dtype=np.int64)
        left = row * c + ks
        right = ks * c + col
        left_remote = left != rank
        right_remote = right != rank

        cache = ctx.cache_for(win)
        if cache is not None:
            dur, hit = cache.access_batch(stream=stream)
        else:
            dur = config.network.get_times(stream.counts * win.itemsize)
            hit = np.zeros(stream.m, dtype=bool)

        block_nnz = stats.block_nnz
        comp_mask = ((block_nnz[left] > 0) & (block_nnz[right] > 0)
                     & (block_nnz[rank] > 0))
        flops = block_nnz[left] + block_nnz[right] + stats.prod_nnz[:, rank]
        comp_dt = cm.edge_overhead + flops * cm.c_ssi

        # Program-order slot layout, per round: [left?][right?][compute?]
        # — the exact ctx.advance sequence of the scalar loop.
        lr = left_remote.astype(np.int64)
        rr = right_remote.astype(np.int64)
        sizes = lr + rr + comp_mask.astype(np.int64)
        start = np.zeros(c + 1, dtype=np.int64)
        np.cumsum(sizes, out=start[1:])
        deltas = np.zeros(int(start[-1]), dtype=np.float64)
        get_pos = np.stack([start[:-1], start[:-1] + lr], axis=1)
        get_mask = np.stack([left_remote, right_remote], axis=1)
        deltas[get_pos[get_mask]] = dur  # row-major: k order, left first
        deltas[(start[:-1] + lr + rr)[comp_mask]] = comp_dt[comp_mask]

        self.round_deltas = deltas
        self.clock = fold_left(deltas)
        self.comp_time = fold_left(comp_dt[comp_mask])
        self.comm_time = fold_left(dur[~hit])
        self.cache_time = fold_left(dur[hit])
        nbytes = stream.counts * win.itemsize
        self.n_miss = int(np.count_nonzero(~hit))
        self.n_hit = int(stream.m - self.n_miss)
        self.bytes_remote = int(nbytes[~hit].sum())
        self.bytes_cached = int(nbytes[hit].sum())
        self.count = int(stats.masked_sum[:, rank].sum())

    def trace(self, rank: int, **extra: float) -> RankTrace:
        return RankTrace.from_totals(
            rank,
            n_remote_gets=self.n_miss,
            n_cache_hits=self.n_hit,
            bytes_remote=self.bytes_remote,
            bytes_cached=self.bytes_cached,
            comm_time=self.comm_time,
            comp_time=self.comp_time,
            cache_time=self.cache_time,
            **extra,
        )


def _block_caches(engine: Engine, win: Window) -> list:
    caches = [engine.contexts[r].cache_for(win) for r in range(engine.nranks)]
    return [c for c in caches if c is not None]


def execute_tc2d_spgemm(engine: Engine, grid: GridPartition2D, blocks: list,
                        win: Window, config: LCCConfig, graph: CSRGraph,
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
    the mode the cached ``tc2d`` batched replay runs in.
    """
    require_square_grid(grid, kernel="tc2d_spgemm", strict=True)
    clocks: list[float] = []
    traces: list[RankTrace] = []
    results: list[int] = []
    with obs_span("tc2d_spgemm", cat="kernel", rounds=grid.cols,
                  nranks=grid.nranks) as sp:
        for rank in range(grid.nranks):
            rr = _RankReplay2D(engine, grid, win, config, stats,
                               streams[rank], rank)
            clocks.append(rr.clock)
            traces.append(rr.trace(rank))
            results.append(rr.count)
        total = int(sum(results))
        assert total % 6 == 0, f"2D triplet total {total} not divisible by 6"
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


def execute_lcc2d(engine: Engine, grid: GridPartition2D, blocks: list,
                  win: Window, config: LCCConfig, graph: CSRGraph,
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
    results: list[int] = []
    with obs_span("lcc2d", cat="kernel", rounds=c,
                  nranks=grid.nranks) as sp:
        for rank in range(grid.nranks):
            row, col = grid.grid_coords(rank)
            r_lo, r_hi = grid.row_range(row)
            n_rows = r_hi - r_lo
            rr = _RankReplay2D(engine, grid, win, config, stats,
                               streams[rank], rank)
            own_nbytes = win.part_nbytes(rank)
            own_dt = float(memory.local_read_time(own_nbytes))
            reduce_dt = float(network.get_time(8 * n_rows))
            final_dt = (cm.vertex_overhead * n_rows) if row == col else 0.0
            tail = np.concatenate([
                np.full(stages, reduce_dt, dtype=np.float64),
                np.asarray([final_dt], dtype=np.float64)])
            clocks.append(fold_left(np.concatenate(
                [np.asarray([own_dt]), rr.round_deltas, tail])))
            comp_tail = np.asarray([final_dt], dtype=np.float64)
            comp = fold_left(np.concatenate(
                [np.asarray([own_dt]),
                 np.asarray([rr.comp_time]), comp_tail]))
            traces.append(RankTrace.from_totals(
                rank,
                n_remote_gets=rr.n_miss,
                n_cache_hits=rr.n_hit,
                n_local_reads=1,
                bytes_remote=rr.bytes_remote,
                bytes_cached=rr.bytes_cached,
                bytes_local=own_nbytes,
                comm_time=rr.comm_time,
                comp_time=comp,
                cache_time=rr.cache_time,
            ))
            results.append(rr.count)
        total = int(stats.tpv.sum())
        sp.note(triplets=total)
    tpv = stats.tpv.copy()
    lcc = lcc_from_triplets(graph, tpv)
    outcome = RunOutcome(time=max(clocks), clocks=clocks, traces=traces,
                         results=results)
    return DistributedRunResult(
        lcc=lcc,
        triangles_per_vertex=tpv,
        global_triangles=total // 6,
        outcome=outcome,
        adj_cache_stats=CacheStats.merged(_block_caches(engine, win)),
    )


def run_tc2d_spgemm(graph: CSRGraph, config: LCCConfig | None = None
                    ) -> DistributedRunResult:
    """Per-call convenience: masked-SpGEMM TC on a throwaway grid.

    Mirrors :func:`repro.core.tc2d.run_distributed_tc_2d` — rebuilds
    engine, grid, blocks and window each call — for tests and one-shot
    scripts; served queries should go through the resident
    ``tc2d_spgemm`` kernel instead.
    """
    if graph.directed:
        raise ConfigError("2D triangle counting expects an undirected graph")
    config = config or LCCConfig()
    engine = Engine(config.nranks, network=config.network,
                    memory=config.memory, compute=config.compute)
    grid = GridPartition2D(graph.n, config.nranks)
    require_square_grid(grid, kernel="tc2d_spgemm", strict=True)
    blocks = build_grid_blocks(graph, grid)
    win = engine.windows.add(Window(BLOCKS_WINDOW,
                                    [pack_block(b) for b in blocks]))
    for rank in range(config.nranks):
        win.lock_all(rank)
    stats = summa_stats(graph, grid, blocks)
    streams = build_round_streams(grid, win)
    return execute_tc2d_spgemm(engine, grid, blocks, win, config, graph,
                               stats, streams)
