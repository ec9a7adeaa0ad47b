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

The per-graph score record (:func:`vertex_scores`) counts an undirected
graph with a third path, :func:`oriented_triangle_scores`: one
degree-ordered wedge pass that finds each triangle once, closes its
wedges in a hashed set of the upward edges
(:class:`~repro.core.intersect.KeySet`, built and dropped with the pass),
and fills the triplet counts and the min-vertex counts together.  A
directed graph is counted by the per-vertex loop.  Every graph version
an update produced is counted in full on its first read, like any other
graph: on the graphs the updates reach, one pass costs no more than
recounting the update's affected vertices.  The raw full counters
(:func:`triangles_per_vertex_batched`, :func:`triangles_min_vertex`) are
never memoised: they stay the oracles the dynamic and store checks
compare the record against.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.intersect import KeySet, count_common
from repro.graph.csr import CSRGraph, gather_ranges
from repro.utils.errors import ConfigError, SimulationError

# Wedges per strip of :func:`oriented_triangle_scores`.  The strip's
# temporaries take ~80 B a wedge, ~10.5 MB at this budget, on top of the
# upward-edge columns and their key set: one pass on rmat(13, 8, seed=1)
# peaks at 14.1 MB under tracemalloc (NumPy 2.4), 1 MB of it the table.
WEDGE_BUDGET = 1 << 17

SCORE_KINDS = ("tpv", "tmin", "lcc")


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


def check_packable(n: int) -> None:
    """Raise :class:`ConfigError` unless ``row * n + col`` keys of an
    ``n``-vertex graph fit in int64 (``n * n`` does)."""
    if int(n) ** 2 > np.iinfo(np.int64).max:
        raise ConfigError(f"{n} vertices: packed row * n + col keys "
                          "overflow int64")


def upward_rows(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """``(src, dst)`` of every edge from a lower- to a higher-ranked
    vertex, in rank order (by degree, then id) within each source's row."""
    n = graph.n
    degrees = np.diff(graph.offsets)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(degrees, kind="stable")] = np.arange(n)
    src = np.repeat(np.arange(n, dtype=np.int64), degrees)
    dst = graph.adjacency.astype(np.int64)
    up = rank[dst] > rank[src]
    src, dst = src[up], dst[up]
    # CSR already groups the rows by source; this orders each by rank.
    return src, dst[np.argsort(src * n + rank[dst])]


def oriented_triangle_scores(graph: CSRGraph, budget: int = WEDGE_BUDGET
                             ) -> tuple[np.ndarray, np.ndarray]:
    """``(tpv, tmin)`` of an undirected graph, each triangle found once.

    The Chiba–Nishizeki orientation: vertices are ranked by (degree, id)
    and each keeps only its higher-ranked neighbours, its *upward* row
    (at most ``sqrt(2m)`` long), sorted here by rank.  Every pair
    ``a, b`` of a vertex's upward neighbours, ``a`` ranked below ``b``, is
    a wedge whose third edge, if present, is upward from ``a``: one
    :class:`KeySet` of the ``m`` upward edges as packed ``row * n + col``
    keys closes them all (:func:`check_packable` rejects an ``n`` whose
    keys overflow int64).  Each triangle is so enumerated once, from its
    lowest-ranked corner; it adds 2 to each corner's triplet count
    (:func:`triangles_per_vertex_batched`) and 1 to its smallest id's
    (:func:`triangles_min_vertex`).  Wedges are expanded and counted in
    strips of upward edges cut where their wedges pass ``budget``, which
    bounds the peak by the key set plus the budget and one widest row.
    """
    n = graph.n
    check_packable(n)
    tpv = np.zeros(n, dtype=np.int64)
    tmin = np.zeros(n, dtype=np.int64)
    up_src, up_dst = upward_rows(graph)
    # An upward edge opens one wedge with each later entry of its row.
    m = up_src.shape[0]
    later = (np.cumsum(np.bincount(up_src, minlength=n))[up_src]
             - np.arange(1, m + 1))
    ends = np.cumsum(later)
    if m == 0 or ends[-1] == 0:
        return tpv, tmin
    # Numbered edge by edge, wedge w of edge e pairs it with entry
    # w + skip[e] of the row.
    skip = np.arange(1, m + 1) - ends + later
    closing = KeySet(up_src * n + up_dst)
    cuts = np.searchsorted(ends, np.arange(budget, ends[-1], budget),
                           side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [m])))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        count = later[lo:hi]
        first = np.repeat(np.arange(lo, hi), count)
        second = (np.arange(ends[lo] - later[lo], ends[hi - 1])
                  + np.repeat(skip[lo:hi], count))
        closed = np.flatnonzero(
            closing.contains(up_dst[first] * n + up_dst[second]))
        first, second = first[closed], second[closed]
        v, a, b = up_src[first], up_dst[first], up_dst[second]
        tpv += 2 * np.bincount(np.concatenate((v, a, b)), minlength=n)
        tmin += np.bincount(np.minimum(np.minimum(v, a), b), minlength=n)
    return tpv, tmin


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
    reference them.  An undirected graph's first read, of any kind and
    whether or not an update produced the graph, is one
    :func:`oriented_triangle_scores` pass, which fills ``tpv`` and ``tmin``
    together (the pass's key set goes with the pass: only the vectors are
    kept).  A directed graph counts ``tpv`` with the per-vertex loop.  The
    raw counters above stay un-memoised: they are the full-recompute
    oracles.  An unknown ``kind`` raises :class:`ConfigError` before the
    record is touched.
    """
    if kind not in SCORE_KINDS:
        raise ConfigError(f"unknown score kind {kind!r}; "
                          f"expected one of {', '.join(SCORE_KINDS)}")
    record = graph.scores
    out = record.get(kind)
    if out is not None:
        return out
    if kind == "lcc":
        out = lcc_from_triplets(graph, vertex_scores(graph, "tpv"))
    elif graph.directed:
        out = (triangles_min_vertex(graph) if kind == "tmin"
               else triangles_per_vertex_batched(graph))
    else:
        for name, full in zip(("tpv", "tmin"),
                              oriented_triangle_scores(graph)):
            full.flags.writeable = False
            record[name] = full  # both absent: only this pass fills them
        return record[kind]
    out.flags.writeable = False
    record[kind] = out
    return out


def inherit_scores(parent: CSRGraph, child: CSRGraph, affected: np.ndarray
                   ) -> None:
    """Hand ``parent``'s score record to the graph version an update produced.

    A batch that changed nothing (``affected`` empty) shares the whole
    record.  Any other ``child`` starts with an empty record: its first
    read is a full count.
    """
    if affected.size == 0:
        child.scores = parent.scores


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
