"""Incremental LCC/TC recomputation over update batches.

A full LCC/TC pass is linear in the whole graph; an update batch only
perturbs the triangle counts of its affected set (see
:func:`~repro.dynamic.delta.apply_delta`).  :class:`IncrementalState`
keeps the last full per-vertex results resident and, per batch,
recomputes **only the affected vertices** on the post-update graph,
folding them into the previous answer.

Because every per-vertex count is an exact int64 (and LCC is a pure
function of counts and degrees), the fold is **bit-identical** to a full
recompute — pinned by :meth:`IncrementalState.verify` (the full-recompute
parity oracle, which stays the reference path) and by the property suite.

The per-vertex count is :func:`repro.core.local.triangles_per_vertex_subset`
(the one scoring body, which the full count also runs over all ``n``
vertices; re-exported here); :func:`triangles_min_vertex_subset` mirrors
:func:`repro.core.local.triangles_min_vertex` restricted to a vertex list.
"""

from __future__ import annotations

import numpy as np

from repro.core.local import (
    triangles_min_vertex,
    triangles_per_vertex_batched,
    triangles_per_vertex_subset,
    vertex_scores,
)
from repro.dynamic.delta import DeltaResult, UpdateBatch, apply_delta
from repro.graph.csr import CSRGraph, gather_ranges

__all__ = [
    "IncrementalState",
    "triangles_min_vertex_subset",
    "triangles_per_vertex_subset",
]


def triangles_min_vertex_subset(graph: CSRGraph, vertices: np.ndarray
                                ) -> np.ndarray:
    """Min-vertex triangle counts for the listed vertices (undirected).

    ``t[v] = |{(j, k) : v < j < k, edges (v,j), (v,k), (j,k) present}|``,
    exactly :func:`~repro.core.local.triangles_min_vertex` restricted to
    a subset: for each upper neighbor j of v, count adj(j) entries that
    are > j and also upper neighbors of v.
    """
    offsets, adjacency = graph.offsets, graph.adjacency
    degrees = np.diff(offsets)
    out = np.zeros(vertices.shape[0], dtype=np.int64)
    for i, v in enumerate(np.asarray(vertices, dtype=np.int64)):
        a = adjacency[offsets[v]:offsets[v + 1]].astype(np.int64)
        up = a[a > v]
        if up.shape[0] < 2:
            continue
        lens = degrees[up]
        gathered, _ = gather_ranges(adjacency, offsets[up], lens)
        if gathered.shape[0] == 0:
            continue
        candidates = gathered.astype(np.int64)
        cand_src = np.repeat(up, lens)          # the j of each candidate k
        idx = np.searchsorted(up, candidates)
        idx[idx == up.shape[0]] = 0
        member = up[idx] == candidates          # k is an upper neighbor of v
        out[i] = int(np.count_nonzero(member & (candidates > cand_src)))
    return out


class IncrementalState:
    """Resident per-vertex triangle state, maintained across update batches.

    Holds the graph plus the full ``tpv`` (per-vertex triplet counts, the
    LCC numerator — the graph's own read-only score record, see
    :func:`~repro.core.local.vertex_scores`) and — for undirected graphs —
    ``tmin`` (min-vertex triangle counts, the TC per-rank contribution).
    :meth:`apply` folds an :class:`~repro.dynamic.delta.UpdateBatch` in by
    recomputing only the affected vertices.  All registered kernels'
    primary outputs derive from this state: ``lcc``, ``global_triangles``
    (and through it every TC baseline's answer).
    """

    def __init__(self, graph: CSRGraph):
        self.graph = graph
        self.tpv = vertex_scores(graph, "tpv")
        self.tmin = None if graph.directed else vertex_scores(graph, "tmin")
        self.updates_applied = 0
        self.vertices_recomputed = 0

    @classmethod
    def from_graph(cls, graph: CSRGraph) -> "IncrementalState":
        """Build from ``graph``'s score record (a full count if unscored)."""
        return cls(graph)

    # -- derived results -----------------------------------------------------
    @property
    def lcc(self) -> np.ndarray:
        """Per-vertex LCC from the resident counts (exact fold of tpv)."""
        return vertex_scores(self.graph, "lcc")

    @property
    def global_triangles(self) -> int:
        """The count every TC kernel reports (transitive triads if directed)."""
        total = int(self.tpv.sum())
        return total if self.graph.directed else total // 6

    # -- updates -------------------------------------------------------------
    def apply(self, batch: UpdateBatch, *, strict: bool = False) -> DeltaResult:
        """Fold one update batch into the resident state."""
        res = apply_delta(self.graph, batch, strict=strict)
        self.graph = res.graph
        # apply_delta left (old tpv, affected) on the new graph; this read
        # is the fold: triangles_per_vertex_subset over the affected set.
        self.tpv = vertex_scores(res.graph, "tpv")
        aff = res.affected
        if aff.size and self.tmin is not None:
            self.tmin = self.tmin.copy()
            self.tmin[aff] = triangles_min_vertex_subset(res.graph, aff)
        self.updates_applied += 1
        self.vertices_recomputed += int(aff.shape[0])
        return res

    # -- the parity oracle ---------------------------------------------------
    def verify(self) -> bool:
        """Full recompute on the current graph equals the folded state?"""
        if not np.array_equal(triangles_per_vertex_batched(self.graph),
                              self.tpv):
            return False
        if self.tmin is not None and not np.array_equal(
                triangles_min_vertex(self.graph), self.tmin):
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"IncrementalState(graph={self.graph.name or '?'}, "
                f"n={self.graph.n}, updates={self.updates_applied}, "
                f"recomputed={self.vertices_recomputed})")
