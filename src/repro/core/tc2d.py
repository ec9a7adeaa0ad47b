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

A block lives once, as its packed CSR window part (``[n_rows, nnz,
indptr..., indices...]``, int32) sliced straight from the graph's CSR
row strip (:func:`build_block`); the loop unpacks the own block from
the window like a fetched one, and reading it stays free.  Computation
is priced per sparse-multiply operand and output element.

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
from repro.graph.partition2d import GridPartition2D
from repro.runtime.context import SimContext
from repro.runtime.engine import Engine
from repro.runtime.window import Window
from repro.utils.errors import ConfigError, SimulationError

#: Window name the packed blocks are exposed through.
BLOCKS_WINDOW = "edge_blocks"


def _unpack_block(data: np.ndarray, n_cols: int) -> sp.csr_matrix:
    """A packed block (:func:`build_block`'s layout) as a SciPy CSR."""
    n_rows = int(data[0])
    nnz = int(data[1])
    indptr = data[2:3 + n_rows].astype(np.int64)
    indices = data[3 + n_rows:3 + n_rows + nnz].astype(np.int64)
    values = np.ones(nnz, dtype=np.int64)
    return sp.csr_matrix((values, indices, indptr), shape=(n_rows, n_cols))


def build_block(graph: CSRGraph, grid: GridPartition2D, rank: int
                ) -> np.ndarray:
    """One rank's packed block ``[n_rows, nnz, indptr..., indices...]``.

    Sliced straight from the CSR row strip: a column mask over the
    strip's adjacency, one ``cumsum`` for the row pointers.  CSR rows are
    sorted and duplicate-free, so the slice is already canonical.  A
    dynamic resync pays this per *touched* block.
    """
    row, col = grid.grid_coords(rank)
    r_lo, r_hi = grid.row_range(row)
    c_lo, c_hi = grid.col_range(col)
    offsets = graph.offsets[r_lo:r_hi + 1]
    adj = graph.adjacency[offsets[0]:offsets[-1]]
    mask = (adj >= c_lo) & (adj < c_hi)
    kept = np.zeros(adj.shape[0] + 1, dtype=np.int64)
    np.cumsum(mask, out=kept[1:])
    n_rows, nnz = r_hi - r_lo, int(kept[-1])
    packed = np.empty(3 + n_rows + nnz, dtype=np.int32)
    packed[:2] = n_rows, nnz
    packed[2:3 + n_rows] = kept[offsets - offsets[0]]
    packed[3 + n_rows:] = adj[mask] - c_lo
    return packed


def build_grid_blocks(graph: CSRGraph, grid: GridPartition2D
                      ) -> list[np.ndarray]:
    """One packed block per rank, in rank order."""
    return [build_block(graph, grid, rank) for rank in range(grid.nranks)]


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


def execute_tc2d(engine: Engine, grid: GridPartition2D, win: Window,
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
        own = _fetch_block(ctx, win, grid, rank)
        total = 0
        for k in range(grid.cols):
            left_owner = row * grid.cols + k     # A[I, K]: row peer
            right_owner = k * grid.cols + col    # A[K, J]: column peer
            left = _fetch_block(ctx, win, grid, left_owner)
            right = _fetch_block(ctx, win, grid, right_owner)
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


def _fetch_block(ctx: SimContext, win: Window, grid: GridPartition2D,
                 owner: int) -> sp.csr_matrix:
    """Get a peer's packed block; the own block is read locally (free)."""
    _, owner_col = grid.grid_coords(owner)
    c_lo, c_hi = grid.col_range(owner_col)
    data = (win.local_part(owner) if owner == ctx.rank
            else ctx.get(win, owner, 0, win.part_len(owner)))
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
