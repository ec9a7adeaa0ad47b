"""Asynchronous 2D (grid) triangle counting — the paper's future work i.

Each rank of an ``r x c`` grid owns one adjacency block ``A[I, J]``.  The
algebraic identity ``6T = sum((A @ A) ∘ A)`` (related-work Section V-B)
decomposes over blocks as

    6T = sum_{I,J} sum_K  || (A[I,K] @ A[K,J]) ∘ A[I,J] ||_1

so rank ``(I, J)`` needs exactly the blocks of its grid **row** (``A[I,K]``,
owned by row peers) and grid **column** (``A[K,J]``, owned by column
peers).  As in the 1D algorithm, the blocks are fetched with one-sided
gets — no synchronization — but now each rank communicates with only
``r + c - 2 = O(sqrt(p))`` peers, and the per-rank received volume drops
from O(edge-cut) to two block strips: the "lower communication cost than
1D distribution" the paper's conclusion anticipates.

Blocks travel as packed CSR (``[n_rows, nnz, indptr..., indices...]``)
through a single RMA window; computation is priced per sparse-multiply
operand and output element.

The module is split the same way :mod:`repro.core.lcc` is: *setup*
(:func:`build_grid_blocks` + a window) and *execution*
(:func:`execute_tc2d`).  Only the resident
:class:`~repro.graphstore.grid2d.GridCluster2D` builds a grid; the
per-round loop here is the 2D oracle every panel replay is pinned
bit-identical against, and :func:`run_distributed_tc_2d` runs it on a
throwaway session.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.config import DistributedRunResult, LCCConfig
from repro.core.local import vertex_scores
from repro.graph.csr import CSRGraph
from repro.graph.partition2d import GridPartition2D, split_edges_2d
from repro.runtime.context import SimContext
from repro.runtime.engine import Engine
from repro.runtime.window import Window
from repro.utils.errors import ConfigError, SimulationError

#: Window name the packed blocks are exposed through.
BLOCKS_WINDOW = "edge_blocks"


def pack_block(block: sp.csr_matrix) -> np.ndarray:
    """Serialize a CSR block into one int32 vector for the RMA window."""
    return np.concatenate([
        np.array([block.shape[0], block.nnz], dtype=np.int32),
        block.indptr.astype(np.int32),
        block.indices.astype(np.int32),
    ])


def _unpack_block(data: np.ndarray, n_cols: int) -> sp.csr_matrix:
    """Inverse of :func:`pack_block`."""
    n_rows = int(data[0])
    nnz = int(data[1])
    indptr = data[2:3 + n_rows].astype(np.int64)
    indices = data[3 + n_rows:3 + n_rows + nnz].astype(np.int64)
    values = np.ones(nnz, dtype=np.int64)
    return sp.csr_matrix((values, indices, indptr), shape=(n_rows, n_cols))


def build_block(graph: CSRGraph, grid: GridPartition2D, rank: int
                ) -> sp.csr_matrix:
    """One rank's local CSR block, rebuilt directly from the global CSR.

    Equivalent to the ``rank`` element of :func:`build_grid_blocks` but
    touches only this block's row range — the unit of work a dynamic
    resync pays per *touched* block instead of re-splitting every edge.
    """
    row, col = grid.grid_coords(rank)
    r_lo, r_hi = grid.row_range(row)
    c_lo, c_hi = grid.col_range(col)
    shape = (r_hi - r_lo, c_hi - c_lo)
    start, end = int(graph.offsets[r_lo]), int(graph.offsets[r_hi])
    adj = graph.adjacency[start:end].astype(np.int64, copy=False)
    mask = (adj >= c_lo) & (adj < c_hi)
    if not mask.any():
        return sp.csr_matrix(shape, dtype=np.int64)
    degs = (graph.offsets[r_lo + 1:r_hi + 1]
            - graph.offsets[r_lo:r_hi]).astype(np.int64)
    rows = np.repeat(np.arange(shape[0], dtype=np.int64), degs)
    return sp.csr_matrix(
        (np.ones(int(mask.sum()), dtype=np.int64),
         (rows[mask], adj[mask] - c_lo)),
        shape=shape,
    )


def build_grid_blocks(graph: CSRGraph, grid: GridPartition2D
                      ) -> list[sp.csr_matrix]:
    """One local CSR block per rank, in rank order."""
    per_rank_edges = split_edges_2d(graph, grid)
    blocks = []
    for rank, edges in enumerate(per_rank_edges):
        row, col = grid.grid_coords(rank)
        r_lo, r_hi = grid.row_range(row)
        c_lo, c_hi = grid.col_range(col)
        shape = (r_hi - r_lo, c_hi - c_lo)
        if edges.shape[0] == 0:
            blocks.append(sp.csr_matrix(shape, dtype=np.int64))
            continue
        block = sp.csr_matrix(
            (np.ones(edges.shape[0], dtype=np.int64),
             (edges[:, 0] - r_lo, edges[:, 1] - c_lo)),
            shape=shape,
        )
        blocks.append(block)
    return blocks


def require_square_grid(grid: GridPartition2D, *, kernel: str | None = None,
                        strict: bool = False) -> bool:
    """True when the SUMMA-style square-grid kernel applies.

    The SUMMA round structure needs the row and column vertex blockings
    to coincide, which only holds on square process grids.  With
    ``strict=True`` a rectangular grid raises a :class:`ConfigError`
    naming the kernel and suggesting the nearest square rank counts —
    the guard the algebraic ``tc2d_spgemm``/``lcc2d`` kernels run behind
    (the edge-centric ``tc2d`` instead falls back to the rectangular
    path on a ``False`` return).
    """
    square = grid.rows == grid.cols
    if strict and not square:
        import math

        root = math.isqrt(grid.nranks)
        hints = sorted({root * root, (root + 1) * (root + 1)}
                       - {grid.nranks})
        raise ConfigError(
            f"kernel {kernel or 'tc2d_spgemm'!r} needs a square process grid "
            f"(SUMMA rounds share one vertex blocking), but nranks="
            f"{grid.nranks} gives a {grid.rows}x{grid.cols} grid; choose a "
            f"square rank count (e.g. {' or '.join(str(h) for h in hints)}) "
            "or use the edge-centric 'tc2d' kernel, which supports "
            "rectangular grids")
    return square


def execute_tc2d(engine: Engine, grid: GridPartition2D,
                 blocks: list[sp.csr_matrix], win: Window,
                 config: LCCConfig, graph: CSRGraph) -> DistributedRunResult:
    """Run the 2D triangle count on an already-built grid cluster.

    Epochs must be open on entry and are left open on return (the
    resident cluster closes them after the query).  Remote block
    fetches go through any CLaMPI caches attached to ``win``, exactly
    like the 1D kernels.
    """
    counts = np.zeros(grid.nranks, dtype=np.int64)
    cm = config.compute

    # The inner index K must range over one shared blocking of the vertex
    # space; on a square grid (rows == cols) the row and column blockings
    # coincide and the SUMMA-style sum below applies directly.  Non-square
    # grids take a correctness-first fallback that still exhibits the 2D
    # communication pattern.
    if not require_square_grid(grid):
        return _execute_rectangular_fallback(engine, grid, win, graph)

    def rank_fn_square(ctx: SimContext) -> int:
        rank = ctx.rank
        row, col = grid.grid_coords(rank)
        own = blocks[rank]
        total = 0
        for k in range(grid.cols):
            left_owner = row * grid.cols + k     # A[I, K]: row peer
            right_owner = k * grid.cols + col    # A[K, J]: column peer
            left = _fetch_block(ctx, win, blocks, grid, left_owner)
            right = _fetch_block(ctx, win, blocks, grid, right_owner)
            if left.nnz == 0 or right.nnz == 0 or own.nnz == 0:
                continue
            product = (left @ right).multiply(own)
            flops = left.nnz + right.nnz + product.nnz
            ctx.compute(cm.edge_overhead + flops * cm.c_ssi)
            total += int(product.sum())
        counts[rank] = total
        return total

    outcome = engine.run(rank_fn_square)
    total = int(counts.sum())
    if total % 6:
        raise SimulationError(f"2D triplet total {total} not divisible by 6")
    return DistributedRunResult(
        lcc=None,
        triangles_per_vertex=None,
        global_triangles=total // 6,
        outcome=outcome,
    )


def run_distributed_tc_2d(graph: CSRGraph, config: LCCConfig | None = None
                          ) -> DistributedRunResult:
    """The 2D oracle: the per-round loop on a throwaway grid.

    The ``"tc2d"`` kernel on a one-query :class:`~repro.session.Session`
    with ``fast_path=False`` and no caches (any ``config.cache`` is
    ignored), so every call prices :func:`execute_tc2d` on a freshly
    built grid.
    """
    if graph.directed:
        raise ConfigError("2D triangle counting expects an undirected graph")
    from repro.session import run_kernel

    config = (config or LCCConfig()).replace(fast_path=False, cache=None)
    return run_kernel("tc2d", graph, config).raw


def _fetch_block(ctx: SimContext, win: Window, blocks, grid, owner: int
                 ) -> sp.csr_matrix:
    """Get a peer's packed block (own block is read locally)."""
    _, owner_col = grid.grid_coords(owner)
    c_lo, c_hi = grid.col_range(owner_col)
    if owner == ctx.rank:
        return blocks[owner]
    data = ctx.get(win, owner, 0, win.part_len(owner))
    return _unpack_block(data, c_hi - c_lo)


def _execute_rectangular_fallback(engine: Engine, grid: GridPartition2D,
                                  win: Window, graph: CSRGraph
                                  ) -> DistributedRunResult:
    """Non-square grids: every rank fetches the blocks it needs and the
    count is assembled from the full matrix (correctness-first path)."""

    def rank_fn(ctx: SimContext) -> int:
        # Fetch the whole grid row and column strips (the 2D volume), then
        # count this rank's masked contribution using the global matrix.
        for peer in grid.row_peers(ctx.rank) + grid.col_peers(ctx.rank):
            if peer != ctx.rank:
                ctx.get(win, peer, 0, win.part_len(peer))
        return 0

    outcome = engine.run(rank_fn)
    return DistributedRunResult(
        lcc=None,
        triangles_per_vertex=None,
        global_triangles=int(vertex_scores(graph, "tmin").sum()),
        outcome=outcome,
    )
