"""CSR graph representation (paper Figure 2).

``offsets[i]`` is the index in ``adjacency`` where vertex ``i``'s list
starts; ``offsets[n]`` equals ``len(adjacency)``.  Adjacency lists are kept
**sorted** — both intersection kernels require it, and "most graph datasets
are already of this form" (paper Section II-C).

Conventions:

* vertex ids are ``int32`` (adjacency) — the CSR byte sizes then match the
  paper's Table II accounting; offsets are ``int64``;
* an *undirected* graph stores both directions of every edge, so
  ``num_directed_edges = 2 * num_undirected_edges``;
* no self-loops, no multi-edges (enforced on construction).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.utils.errors import GraphFormatError
from repro.utils.rng import make_rng

OFFSET_DTYPE = np.int64
VERTEX_DTYPE = np.int32


def gather_ranges(values: np.ndarray, starts: np.ndarray, lens: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``values[s:s+l]`` for every (start, length) pair.

    The vectorized ragged gather used wherever a set of CSR rows must be
    pulled into one array (partition slicing, neighborhood gathers,
    invalidation content checks).  Returns ``(gathered, bounds)`` with
    ``bounds`` of length ``len(starts) + 1`` such that
    ``gathered[bounds[i]:bounds[i+1]]`` is the i-th range.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    bounds = np.zeros(starts.shape[0] + 1, dtype=np.int64)
    np.cumsum(lens, out=bounds[1:])
    total = int(bounds[-1])
    if total == 0:
        return values[:0], bounds
    idx = (np.arange(total, dtype=np.int64)
           - np.repeat(bounds[:-1], lens) + np.repeat(starts, lens))
    return values[idx], bounds


def _check_vertex_range(n: int) -> None:
    """Reject vertex counts whose ids cannot be stored in VERTEX_DTYPE.

    Without this guard, ids >= 2**31 silently wrap when the adjacency is
    cast to int32 (a wrap to a *positive* id corrupts the graph without
    tripping any CSR invariant).
    """
    limit = int(np.iinfo(VERTEX_DTYPE).max)
    if n - 1 > limit:
        raise GraphFormatError(
            f"vertex id {n - 1} does not fit the int32 adjacency dtype "
            f"(max representable id is {limit})")


class CSRGraph:
    """Immutable CSR graph."""

    __slots__ = ("offsets", "adjacency", "directed", "name", "scores")

    def __init__(self, offsets: np.ndarray, adjacency: np.ndarray,
                 directed: bool = False, name: str = "", validate: bool = True):
        self.offsets = np.ascontiguousarray(offsets, dtype=OFFSET_DTYPE)
        self.adjacency = np.ascontiguousarray(adjacency, dtype=VERTEX_DTYPE)
        self.directed = bool(directed)
        self.name = name
        #: Per-vertex scores of this graph version (kind -> read-only array,
        #: or a ``pending`` patch), filled by ``repro.core.local``'s
        #: ``vertex_scores``.  Derived: not in ``nbytes``/digest/``repr``.
        self.scores: dict = {}
        if validate:
            self.check_invariants()

    # -- construction -------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: np.ndarray | Iterable[tuple[int, int]],
        n: int | None = None,
        *,
        directed: bool = False,
        name: str = "",
    ) -> "CSRGraph":
        """Build from an (m, 2) edge array.

        Undirected graphs are symmetrized; self-loops and duplicate edges
        are dropped (the paper considers simple graphs only).
        """
        e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if e.size == 0:
            nv = int(n or 0)
            _check_vertex_range(nv)
            return cls(np.zeros(nv + 1, dtype=OFFSET_DTYPE),
                       np.empty(0, dtype=VERTEX_DTYPE), directed, name)
        if e.ndim != 2 or e.shape[1] != 2:
            raise GraphFormatError(f"edges must be (m, 2), got {e.shape}")
        if e.dtype.kind not in "iu":
            raise GraphFormatError(
                f"edges must be an integer array, got dtype {e.dtype}")
        if e.min() < 0:
            raise GraphFormatError("negative vertex id in edge list")
        nv = int(n if n is not None else e.max() + 1)
        if e.max() >= nv:
            raise GraphFormatError(
                f"vertex id {e.max()} out of range for n={nv}"
            )
        _check_vertex_range(nv)
        src = e[:, 0].astype(np.int64)
        dst = e[:, 1].astype(np.int64)
        keep = src != dst  # drop self-loops
        src, dst = src[keep], dst[keep]
        if not directed:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        # Sort by (src, dst) then dedup.
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        if src.size:
            uniq = np.concatenate([[True], (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])])
            src, dst = src[uniq], dst[uniq]
        counts = np.bincount(src, minlength=nv)
        offsets = np.zeros(nv + 1, dtype=OFFSET_DTYPE)
        np.cumsum(counts, out=offsets[1:])
        return cls(offsets, dst.astype(VERTEX_DTYPE), directed, name)

    # -- geometry --------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.offsets.shape[0] - 1

    @property
    def num_adjacency_entries(self) -> int:
        """Stored directed edges (2x the undirected edge count)."""
        return int(self.adjacency.shape[0])

    @property
    def m(self) -> int:
        """Number of edges as the paper counts them (undirected: unordered)."""
        stored = self.num_adjacency_entries
        return stored // 2 if not self.directed else stored

    def adj(self, v: int) -> np.ndarray:
        """Sorted adjacency list of ``v`` (zero-copy view)."""
        return self.adjacency[self.offsets[v]:self.offsets[v + 1]]

    def degree(self, v: int) -> int:
        """Out-degree of ``v`` (== degree for undirected graphs)."""
        return int(self.offsets[v + 1] - self.offsets[v])

    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return np.diff(self.offsets)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex (== out-degree when undirected)."""
        if not self.directed:
            return self.degrees()
        return np.bincount(self.adjacency, minlength=self.n).astype(np.int64)

    def has_edge(self, u: int, v: int) -> bool:
        """O(log deg) membership test."""
        lst = self.adj(u)
        i = np.searchsorted(lst, v)
        return bool(i < lst.shape[0] and lst[i] == v)

    @property
    def nbytes(self) -> int:
        """CSR footprint (paper Table II's "CSR Size")."""
        return int(self.offsets.nbytes + self.adjacency.nbytes)

    def edges(self) -> np.ndarray:
        """(stored_edges, 2) array of directed edges (both dirs if undirected)."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())
        return np.column_stack([src, self.adjacency.astype(np.int64)])

    # -- validation -------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise GraphFormatError on malformed CSR."""
        if self.offsets.ndim != 1 or self.offsets.shape[0] < 1:
            raise GraphFormatError("offsets must be 1-D with length n+1 >= 1")
        if self.offsets[0] != 0:
            raise GraphFormatError("offsets[0] must be 0")
        if np.any(np.diff(self.offsets) < 0):
            raise GraphFormatError("offsets must be non-decreasing")
        if self.offsets[-1] != self.adjacency.shape[0]:
            raise GraphFormatError(
                f"offsets[-1]={self.offsets[-1]} != len(adjacency)="
                f"{self.adjacency.shape[0]}"
            )
        if self.adjacency.size:
            if self.adjacency.min() < 0 or self.adjacency.max() >= self.n:
                raise GraphFormatError("adjacency ids out of range")
        # Sortedness + no dup within each list + no self loops (vectorized).
        if self.adjacency.size:
            row_of = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())
            if np.any(self.adjacency.astype(np.int64) == row_of):
                v = int(row_of[self.adjacency.astype(np.int64) == row_of][0])
                raise GraphFormatError(f"self-loop at vertex {v}")
            if self.adjacency.size > 1:
                same_row = row_of[1:] == row_of[:-1]
                non_increasing = np.diff(self.adjacency.astype(np.int64)) <= 0
                bad = same_row & non_increasing
                if np.any(bad):
                    v = int(row_of[1:][bad][0])
                    raise GraphFormatError(
                        f"adjacency of vertex {v} not strictly sorted"
                    )
        if not self.directed:
            # Spot-check symmetry (full check is O(m log n); sample for speed).
            deg = self.degrees()
            if int(deg.sum()) % 2 != 0:
                raise GraphFormatError("undirected graph has odd adjacency total")

    def check_symmetric(self) -> None:
        """Full O(m) symmetry check (tests only)."""
        e = self.edges()
        fwd = set(map(tuple, e))
        for u, v in e:
            if (v, u) not in fwd:
                raise GraphFormatError(f"missing reverse edge for ({u}, {v})")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "D" if self.directed else "U"
        return (f"CSRGraph(name={self.name!r}, n={self.n}, m={self.m}, "
                f"{kind}, {self.nbytes} B)")


def remove_low_degree_vertices(graph: CSRGraph, min_degree: int = 2) -> CSRGraph:
    """Drop vertices with degree < ``min_degree`` and compact ids.

    The paper removes degree-<2 vertices before distribution ("as they
    cannot be part of any triangle", Section II-B).  A single pass, as in
    the paper — not an iterative k-core.
    """
    deg = graph.degrees()
    if graph.directed:
        deg = deg + graph.in_degrees()
    keep = deg >= min_degree
    if keep.all():
        return graph
    new_id = np.cumsum(keep) - 1
    edges = graph.edges()
    mask = keep[edges[:, 0]] & keep[edges[:, 1]]
    edges = edges[mask]
    remapped = np.column_stack([new_id[edges[:, 0]], new_id[edges[:, 1]]])
    n_new = int(keep.sum())
    if not graph.directed:
        # edges() emitted both directions; keep one to avoid double counting.
        remapped = remapped[remapped[:, 0] < remapped[:, 1]]
    return CSRGraph.from_edges(remapped, n_new, directed=graph.directed,
                               name=graph.name)


def relabel_random(graph: CSRGraph, seed: int | np.random.Generator | None = None
                   ) -> CSRGraph:
    """Apply a random permutation to vertex ids.

    Used when the input is degree-ordered so that 1D partitioning does not
    assign all high-degree vertices to the same rank (paper Section II-B).
    """
    rng = make_rng(seed)
    perm = rng.permutation(graph.n)
    edges = graph.edges()
    remapped = np.column_stack([perm[edges[:, 0]], perm[edges[:, 1]]])
    if not graph.directed:
        remapped = remapped[remapped[:, 0] < remapped[:, 1]]
    return CSRGraph.from_edges(remapped, graph.n, directed=graph.directed,
                               name=graph.name)
