"""Single-node reference implementations (ground truth).

Two independent paths:

* a **kernel path** that walks edges and calls the same intersection
  kernels the distributed algorithm uses (useful to test the kernels and
  as the shared-memory performance subject of Table III / Figure 6);
* a **matrix path** using the algebraic formulation the paper's related
  -work section describes (``C = A A ∘ A``): with scipy.sparse this is
  vectorized end-to-end and serves as an independent cross-check.

For a vertex ``i`` with out-adjacency A, the per-vertex triplet count is
``t_i = sum_j |adj(i) ∩ adj(j)|`` over ``j in adj(i)``.  Undirected: each
triangle through ``i`` contributes 2 to ``t_i``, so triangles-through-i is
``t_i / 2``, the global count is ``sum_i t_i / 6``, and
``LCC(i) = t_i / (deg_i (deg_i - 1))`` — which matches both Eq. 1
(directed) and Eq. 2 (undirected) of the paper.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.intersect import count_common
from repro.graph.csr import CSRGraph, gather_ranges
from repro.utils.errors import SimulationError


def to_sparse(graph: CSRGraph) -> sp.csr_matrix:
    """CSR graph -> scipy CSR 0/1 adjacency matrix."""
    n = graph.n
    data = np.ones(graph.adjacency.shape[0], dtype=np.int64)
    return sp.csr_matrix(
        (data, graph.adjacency.astype(np.int64), graph.offsets.astype(np.int64)),
        shape=(n, n),
    )


def triangles_per_vertex_matrix(graph: CSRGraph) -> np.ndarray:
    """``t_i = sum_j A_ij (A A^T)_ij`` — the algebraic formulation.

    ``(A A^T)_ij = |adj(i) ∩ adj(j)|`` for sorted 0/1 rows, so this equals
    the kernel path exactly, for directed and undirected graphs alike.
    """
    if graph.n == 0:
        return np.zeros(0, dtype=np.int64)
    a = to_sparse(graph)
    prod = (a @ a.T).multiply(a)
    return np.asarray(prod.sum(axis=1)).ravel().astype(np.int64)


def triangles_per_vertex_subset(graph: CSRGraph, vertices: np.ndarray
                                ) -> np.ndarray:
    """``t_v = sum_j |adj(v) ∩ adj(j)|`` for the listed vertices only.

    One vectorized pass per vertex: the neighbours' adjacency lists are
    gathered into one array and counted against the vertex's own sorted
    list with a single ``searchsorted`` — O(sum_over_edges deg(j) *
    log deg(v)), ~2 NumPy calls per listed vertex.
    """
    offsets, adjacency = graph.offsets, graph.adjacency
    degrees = np.diff(offsets)
    vertices = np.asarray(vertices, dtype=np.int64)
    out = np.zeros(vertices.shape[0], dtype=np.int64)
    for i, v in enumerate(vertices.tolist()):
        a = adjacency[offsets[v]:offsets[v + 1]]
        if a.shape[0] == 0:
            continue
        candidates, _ = gather_ranges(adjacency, offsets[a], degrees[a])
        if candidates.shape[0] == 0:
            continue
        idx = np.searchsorted(a, candidates)
        idx[idx == a.shape[0]] = 0  # clip; mismatch check below handles it
        out[i] = int(np.count_nonzero(a[idx] == candidates))
    return out


def triangles_per_vertex_batched(graph: CSRGraph) -> np.ndarray:
    """Per-vertex triplet counts of every vertex.

    Same result as the matrix path but without materializing ``A A^T``
    (whose fill-in explodes on hub-heavy graphs):
    :func:`triangles_per_vertex_subset` over all ``n`` vertices.
    """
    return triangles_per_vertex_subset(graph,
                                       np.arange(graph.n, dtype=np.int64))


def triangles_min_vertex(graph: CSRGraph) -> np.ndarray:
    """Triangles counted at their smallest-id vertex (undirected graphs).

    ``t[i] = |{(j, k) : i < j < k, all three edges present}|`` — exactly
    the per-vertex contribution of the distributed TC kernel's
    double-counting elimination (each triangle counted once, at the owner
    of its minimum vertex).  With ``U`` the strictly-upper adjacency,
    ``t = ((U U) ∘ U) · 1``: ``(U U)_ik`` counts paths ``i < j < k`` and
    the Hadamard product keeps the closed ones.
    """
    if graph.n == 0:
        return np.zeros(0, dtype=np.int64)
    u = sp.triu(to_sparse(graph), k=1, format="csr")
    prod = (u @ u).multiply(u)
    return np.asarray(prod.sum(axis=1)).ravel().astype(np.int64)


def triangles_per_vertex_local(graph: CSRGraph, method: str = "hybrid"
                               ) -> np.ndarray:
    """Kernel path: per-vertex triplet counts via explicit intersections."""
    n = graph.n
    t = np.zeros(n, dtype=np.int64)
    for v in range(n):
        a = graph.adj(v)
        total = 0
        for j in a:
            total += count_common(a, graph.adj(int(j)), method)
        t[v] = total
    return t


def lcc_from_triplets(graph: CSRGraph, triplets: np.ndarray) -> np.ndarray:
    """``LCC(i) = t_i / (deg_i (deg_i - 1))`` with 0 for degree < 2."""
    deg = graph.degrees().astype(np.float64)
    denom = deg * (deg - 1.0)
    lcc = np.zeros(graph.n, dtype=np.float64)
    mask = denom > 0
    lcc[mask] = triplets[mask] / denom[mask]
    return lcc


def vertex_scores(graph: CSRGraph, kind: str) -> np.ndarray:
    """``graph``'s ``'tpv'`` | ``'tmin'`` | ``'lcc'`` vector, counted once.

    Scores are a function of the graph alone, so they live in
    ``graph.scores`` — shared by every cluster shape, session and sweep on
    this graph object, gone with it — and are **read-only**: results
    reference them.  A ``tpv`` that :func:`inherit_scores` left pending is
    finished here by recounting the affected vertices only.  The counters
    above stay raw (the full-recompute oracle).
    """
    record = graph.scores
    out = record.get(kind)
    if out is None:
        if kind == "lcc":
            out = lcc_from_triplets(graph, vertex_scores(graph, "tpv"))
        elif kind == "tmin":
            out = triangles_min_vertex(graph)
        elif "pending" in record:
            base, affected = record.pop("pending")
            out = base.copy()
            out[affected] = triangles_per_vertex_subset(graph, affected)
        else:
            out = triangles_per_vertex_batched(graph)
        out.flags.writeable = False
        record[kind] = out
    return out


def inherit_scores(parent: CSRGraph, child: CSRGraph, affected: np.ndarray
                   ) -> None:
    """Hand ``parent``'s ``tpv`` to the graph version an update produced.

    ``child`` differs from ``parent`` only on ``affected``
    (:func:`~repro.dynamic.delta.apply_delta`'s contract), so it gets the
    pending pair *(parent's vector, affected)* — the array, never the
    parent graph.  An unread pair is carried forward over the union of the
    affected sets, a never-scored parent leaves nothing (a full count),
    and a batch that changed nothing shares the whole record.
    """
    record = parent.scores
    if affected.size == 0:
        child.scores = record
    elif "tpv" in record:
        child.scores["pending"] = (record["tpv"], affected)
    elif "pending" in record:
        base, earlier = record["pending"]
        child.scores["pending"] = (base, np.union1d(earlier, affected))


def lcc_local(graph: CSRGraph, method: str = "matrix") -> np.ndarray:
    """Local clustering coefficient of every vertex.

    ``method='matrix'`` uses the sparse-algebra path (fast); any kernel
    name ('ssi' | 'binary' | 'hybrid') uses the intersection path.
    """
    if method == "matrix":
        t = triangles_per_vertex_matrix(graph)
    else:
        t = triangles_per_vertex_local(graph, method)
    return lcc_from_triplets(graph, t)


def triangle_count_local(graph: CSRGraph, method: str = "matrix") -> int:
    """Global triangle count.

    Undirected: closed triangles, each counted once.  Directed: the number
    of *transitive triads* (i -> j, i -> k, j -> k), the quantity the
    paper's directed LCC numerator aggregates.
    """
    if method == "matrix":
        t = triangles_per_vertex_matrix(graph)
    else:
        t = triangles_per_vertex_local(graph, method)
    total = int(t.sum())
    if graph.directed:
        return total
    if total % 6:
        raise SimulationError(
            f"undirected triplet total {total} not divisible by 6")
    return total // 6
