"""Batched edge updates over the immutable :class:`~repro.graph.csr.CSRGraph`.

The paper's kernels assume a static graph; this module is the write path
that turns the reproduction into a dynamic-graph system.  A graph is never
mutated in place — an :class:`UpdateBatch` of edge inserts/deletes is
*applied*, producing a fresh ``CSRGraph`` plus the bookkeeping every
consumer of the change needs:

* **normalization** mirrors ``CSRGraph.from_edges`` exactly: simple
  graphs only, so self-loops are dropped, duplicate edges coalesced, and
  undirected batches symmetrized (both stored directions);
* **application** (:func:`apply_delta`) is a vectorized three-way CSR
  merge — delete mask, sorted-key merge of the inserts, one ``bincount``
  for the new offsets — O((m + k) log k), no per-edge Python loop;
* the **affected-vertex set** is the contract the incremental layer
  builds on: every vertex whose LCC/TC value *can* have changed is in it
  (changed-edge endpoints plus, per changed edge, the old/new *common*
  neighborhoods — the exact subset of "endpoints ∪ their neighbors" that
  triangles actually touch; recomputing an unchanged vertex is exact,
  missing a changed one would be a wrong answer).

Edges present in both the insert and delete lists of one batch are
rejected as ambiguous.  ``strict=True`` additionally rejects inserting an
edge that already exists or deleting one that does not; the serving path
uses ``strict=False`` (idempotent upsert/ignore-missing semantics).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.intersect import intersect_values
from repro.core.local import inherit_scores
from repro.graph.csr import (
    CSRGraph,
    OFFSET_DTYPE,
    VERTEX_DTYPE,
    _check_vertex_range,
    gather_ranges,
)
from repro.utils.errors import GraphFormatError
from repro.utils.rng import make_rng

__all__ = [
    "DeltaBuffer",
    "DeltaResult",
    "UpdateBatch",
    "apply_delta",
    "random_update_arrays",
    "random_update_batch",
]


def _canonical_keys(edges, n: int, directed: bool, what: str) -> np.ndarray:
    """Edge array -> sorted unique ``u * n + v`` keys in stored form.

    Stored form means both directions for undirected graphs, matching how
    the CSR keeps them; normalization (self-loop drop, dedup) matches
    ``CSRGraph.from_edges``.
    """
    if edges is None:
        return np.empty(0, dtype=np.int64)
    e = np.asarray(edges)
    if e.size == 0:
        return np.empty(0, dtype=np.int64)
    if e.ndim != 2 or e.shape[1] != 2:
        raise GraphFormatError(f"{what} must be (k, 2), got shape {e.shape}")
    if e.dtype.kind not in "iu":
        raise GraphFormatError(
            f"{what} must be an integer array, got dtype {e.dtype}")
    e = e.astype(np.int64, copy=False)
    if e.min() < 0:
        raise GraphFormatError(f"negative vertex id in {what}")
    if e.max() >= n:
        raise GraphFormatError(
            f"vertex id {int(e.max())} in {what} out of range for n={n}")
    src, dst = e[:, 0], e[:, 1]
    keep = src != dst  # drop self-loops, as from_edges does
    src, dst = src[keep], dst[keep]
    if not directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    return np.unique(src * np.int64(n) + dst)


def _decode_keys(keys: np.ndarray, n: int, directed: bool) -> np.ndarray:
    """Stored-form keys -> (k, 2) edge array, one row per paper edge."""
    src, dst = keys // n, keys % n
    if not directed:
        keep = src < dst  # stored both ways; report each edge once
        src, dst = src[keep], dst[keep]
    return np.column_stack([src, dst])


@dataclass(frozen=True)
class UpdateBatch:
    """A validated, normalized batch of edge inserts and deletes.

    ``insert_keys`` / ``delete_keys`` are sorted unique ``u * n + v``
    int64 keys in stored (directed) form.  Build via :meth:`build` or a
    :class:`DeltaBuffer`; instances are immutable and reusable.
    """

    n: int
    directed: bool
    insert_keys: np.ndarray = field(repr=False)
    delete_keys: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, inserts=None, deletes=None, *, n: int,
              directed: bool = False) -> "UpdateBatch":
        """Normalize raw (k, 2) edge arrays into a batch for an n-vertex graph."""
        if n < 0:
            raise GraphFormatError(f"negative vertex count {n}")
        _check_vertex_range(n)  # one source of truth with from_edges
        ins = _canonical_keys(inserts, n, directed, "inserts")
        dels = _canonical_keys(deletes, n, directed, "deletes")
        if ins.size and dels.size:
            both = np.intersect1d(ins, dels)
            if both.size:
                u, v = int(both[0]) // n, int(both[0]) % n
                raise GraphFormatError(
                    f"edge ({u}, {v}) appears in both inserts and deletes "
                    "(ambiguous batch)")
        return cls(n=int(n), directed=bool(directed),
                   insert_keys=ins, delete_keys=dels)

    # -- geometry -----------------------------------------------------------
    @property
    def num_insert_edges(self) -> int:
        """Inserted edges as the paper counts them (undirected: unordered)."""
        return self.insert_keys.shape[0] // (1 if self.directed else 2)

    @property
    def num_delete_edges(self) -> int:
        return self.delete_keys.shape[0] // (1 if self.directed else 2)

    def __len__(self) -> int:
        return self.num_insert_edges + self.num_delete_edges

    def insert_edges(self) -> np.ndarray:
        """(k, 2) inserted edges, one row per edge (u < v when undirected)."""
        return _decode_keys(self.insert_keys, self.n, self.directed)

    def delete_edges(self) -> np.ndarray:
        return _decode_keys(self.delete_keys, self.n, self.directed)

    def endpoints(self) -> np.ndarray:
        """Sorted unique vertex ids named by any edge of the batch."""
        keys = np.concatenate([self.insert_keys, self.delete_keys])
        if keys.size == 0:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate([keys // self.n, keys % self.n]))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "D" if self.directed else "U"
        return (f"UpdateBatch(n={self.n}, {kind}, +{self.num_insert_edges} "
                f"-{self.num_delete_edges} edges)")


class DeltaBuffer:
    """Accumulates edge operations, then freezes them into an UpdateBatch.

    The mutable staging area in front of the immutable batch: serving
    code (or a stream consumer) records inserts/deletes one by one or in
    array chunks, then calls :meth:`freeze` when it wants to apply.
    Conflicting operations on the same edge resolve to the *latest* one
    recorded (insert-then-delete nets out to a delete), matching
    last-writer-wins stream semantics.
    """

    def __init__(self, n: int, directed: bool = False):
        if n < 0:
            raise GraphFormatError(f"negative vertex count {n}")
        self.n = int(n)
        self.directed = bool(directed)
        # Ops are canonicalized (validated, normalized to stored-form
        # keys) once at record time; freeze only has to merge them.
        self._ops: list[tuple[bool, np.ndarray]] = []  # (is_insert, keys)

    def __len__(self) -> int:
        """Normalized edges pending (per-op duplicates already coalesced)."""
        div = 1 if self.directed else 2
        return sum(k.shape[0] // div for _, k in self._ops)

    def insert(self, u: int, v: int) -> None:
        self.insert_edges(np.array([[u, v]], dtype=np.int64))

    def delete(self, u: int, v: int) -> None:
        self.delete_edges(np.array([[u, v]], dtype=np.int64))

    def insert_edges(self, edges) -> None:
        # Validate eagerly so a bad op is reported where it was recorded.
        self._ops.append(
            (True, _canonical_keys(edges, self.n, self.directed, "inserts")))

    def delete_edges(self, edges) -> None:
        self._ops.append(
            (False, _canonical_keys(edges, self.n, self.directed, "deletes")))

    def clear(self) -> None:
        self._ops.clear()

    def freeze(self) -> UpdateBatch:
        """Resolve op order (last writer wins) into an immutable batch."""
        if not self._ops:
            return UpdateBatch(n=self.n, directed=self.directed,
                               insert_keys=np.empty(0, dtype=np.int64),
                               delete_keys=np.empty(0, dtype=np.int64))
        keys = np.concatenate([k for _, k in self._ops])
        flags = np.concatenate([
            np.full(k.shape[0], is_insert, dtype=bool)
            for is_insert, k in self._ops])
        # First occurrence in the reversed stream == the last op recorded
        # for that key; np.unique returns keys sorted, as UpdateBatch wants.
        uniq, first_rev = np.unique(keys[::-1], return_index=True)
        wins = flags[::-1][first_rev]
        return UpdateBatch(n=self.n, directed=self.directed,
                           insert_keys=uniq[wins],
                           delete_keys=uniq[~wins])


@dataclass
class DeltaResult:
    """What one :func:`apply_delta` produced."""

    graph: CSRGraph               # the post-update graph (new object)
    affected: np.ndarray          # sorted vertex ids whose results may change
    endpoints: np.ndarray         # sorted endpoints of effectively changed edges
    changed_keys: np.ndarray      # stored-form u*n+v keys of changed edges
    n_inserted: int               # edges actually added (paper count)
    n_deleted: int                # edges actually removed
    n_skipped_inserts: int = 0    # already present (strict=False only)
    n_skipped_deletes: int = 0    # absent (strict=False only)

    @property
    def changed(self) -> bool:
        return self.n_inserted > 0 or self.n_deleted > 0


def _stored_keys(graph: CSRGraph) -> np.ndarray:
    """The graph's stored directed edges as globally sorted int64 keys."""
    row_of = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees())
    return row_of * np.int64(graph.n) + graph.adjacency.astype(np.int64)


def _member_positions(sorted_keys: np.ndarray, queries: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """``(present_mask, positions)`` of ``queries`` in ``sorted_keys``."""
    present = np.zeros(queries.shape[0], dtype=bool)
    pos = np.zeros(queries.shape[0], dtype=np.int64)
    if queries.size and sorted_keys.size:
        p = np.searchsorted(sorted_keys, queries)
        inb = p < sorted_keys.shape[0]
        present[inb] = sorted_keys[p[inb]] == queries[inb]
        pos = p
    return present, pos


def _out_neighbors(graph: CSRGraph, vs: np.ndarray) -> np.ndarray:
    """Concatenated adjacency lists of ``vs`` (with duplicates)."""
    if vs.size == 0:
        return np.empty(0, dtype=np.int64)
    starts = graph.offsets[vs]
    gathered, _ = gather_ranges(graph.adjacency, starts,
                                graph.offsets[vs + 1] - starts)
    return gathered.astype(np.int64)


def _in_neighbors(graph: CSRGraph, vs: np.ndarray) -> np.ndarray:
    """Vertices with an edge *to* any of ``vs`` (directed graphs only)."""
    if vs.size == 0 or graph.adjacency.size == 0:
        return np.empty(0, dtype=np.int64)
    hit = np.isin(graph.adjacency.astype(np.int64), vs)
    row_of = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees())
    return row_of[hit]


def _common_neighbors_pairs(graph: CSRGraph, us: np.ndarray, vs: np.ndarray
                            ) -> np.ndarray:
    """Concatenated ``adj(u) ∩ adj(v)`` over the given endpoint pairs."""
    pieces = [intersect_values(graph.adj(int(u)), graph.adj(int(v)))
              .astype(np.int64)
              for u, v in zip(us, vs)]
    if not pieces:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(pieces)


def _affected_vertices(old: CSRGraph, new: CSRGraph, eff_ins: np.ndarray,
                       eff_del: np.ndarray, endpoints: np.ndarray
                       ) -> np.ndarray:
    """Every vertex whose triangle counts can differ between old and new.

    Undirected: a triangle present in exactly one of the graphs contains
    a changed edge (u, v), so its third vertex lies in ``adj(u) ∩ adj(v)``
    — of the old graph for deleted edges (the destroyed triangles existed
    there) and of the new graph for inserted ones.  The exact set is
    therefore the changed endpoints plus those per-edge *common*
    neighborhoods — a sharp subset of "endpoints ∪ their neighbors",
    which is what keeps the incremental recompute sublinear on hub-heavy
    graphs.  Directed graphs fall back to the conservative superset
    (endpoints ∪ out- and in-neighborhoods, old and new).
    """
    if endpoints.size == 0:
        return np.empty(0, dtype=np.int64)
    n = old.n
    if old.directed:
        pieces = [endpoints,
                  _out_neighbors(old, endpoints), _out_neighbors(new, endpoints),
                  _in_neighbors(old, endpoints), _in_neighbors(new, endpoints)]
        return np.unique(np.concatenate(pieces))
    pieces = [endpoints]
    for keys, graph in ((eff_del, old), (eff_ins, new)):
        if keys.size:
            u, v = keys // n, keys % n
            one_dir = u < v  # stored both ways; intersect each edge once
            pieces.append(_common_neighbors_pairs(graph, u[one_dir],
                                                  v[one_dir]))
    return np.unique(np.concatenate(pieces))


def apply_delta(graph: CSRGraph, batch: UpdateBatch, *,
                strict: bool = True) -> DeltaResult:
    """Apply an update batch; returns the new graph + the affected set.

    Equivalent to rebuilding with ``CSRGraph.from_edges`` over the edited
    edge list (pinned bit-identically by the property suite) but runs as
    a vectorized merge against the existing CSR.  ``strict=False`` skips
    already-present inserts and absent deletes instead of raising.
    """
    if batch.n != graph.n:
        raise GraphFormatError(
            f"batch over {batch.n} vertices does not match graph with {graph.n}")
    if batch.directed != graph.directed:
        raise GraphFormatError(
            f"batch directedness ({batch.directed}) does not match graph "
            f"({graph.directed})")
    n = graph.n
    old_keys = _stored_keys(graph)

    del_present, del_pos = _member_positions(old_keys, batch.delete_keys)
    if strict and not del_present.all():
        missing = batch.delete_keys[~del_present][0]
        raise GraphFormatError(
            f"delete of absent edge ({int(missing) // n}, {int(missing) % n})")
    ins_present, _ = _member_positions(old_keys, batch.insert_keys)
    if strict and ins_present.any():
        dup = batch.insert_keys[ins_present][0]
        raise GraphFormatError(
            f"insert of existing edge ({int(dup) // n}, {int(dup) % n})")

    eff_del = batch.delete_keys[del_present]
    eff_ins = batch.insert_keys[~ins_present]

    keep = np.ones(old_keys.shape[0], dtype=bool)
    keep[del_pos[del_present]] = False
    kept = old_keys[keep]
    n_ins = eff_ins.shape[0]
    merged = np.empty(kept.shape[0] + n_ins, dtype=np.int64)
    if n_ins:
        # Classic two-sorted-array merge via searchsorted: each insert's
        # final position is its rank among the kept keys plus the number
        # of inserts before it.
        ins_at = np.searchsorted(kept, eff_ins) + np.arange(n_ins)
        is_ins = np.zeros(merged.shape[0], dtype=bool)
        is_ins[ins_at] = True
        merged[is_ins] = eff_ins
        merged[~is_ins] = kept
    else:
        merged[:] = kept

    src, dst = merged // n, merged % n
    offsets = np.zeros(n + 1, dtype=OFFSET_DTYPE)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    new_graph = CSRGraph(offsets, dst.astype(VERTEX_DTYPE),
                         directed=graph.directed, name=graph.name)

    changed = np.concatenate([eff_ins, eff_del])
    endpoints = (np.unique(np.concatenate([changed // n, changed % n]))
                 if changed.size else np.empty(0, dtype=np.int64))
    div = 1 if graph.directed else 2
    affected = _affected_vertices(graph, new_graph, eff_ins, eff_del,
                                  endpoints)
    inherit_scores(graph, new_graph, affected)
    return DeltaResult(
        graph=new_graph,
        affected=affected,
        endpoints=endpoints,
        changed_keys=np.sort(changed),
        n_inserted=n_ins // div,
        n_deleted=eff_del.shape[0] // div,
        n_skipped_inserts=int(ins_present.sum()) // div,
        n_skipped_deletes=int((~del_present).sum()) // div,
    )


# ---------------------------------------------------------------------------
# Deterministic random batches (benchmarks, workloads, examples)
# ---------------------------------------------------------------------------

def random_update_arrays(graph: CSRGraph, n_edges: int = 16,
                         delete_fraction: float = 0.25,
                         seed: int | np.random.Generator | None = None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Raw ``(inserts, deletes)`` arrays for a synthetic update batch.

    Inserts are uniform random pairs (self-loops and existing edges land
    in the batch and are normalized/skipped downstream — as real feeds
    do); deletes sample existing edges.  Deletes colliding with an insert
    are dropped so the batch stays unambiguous.  Fully deterministic for
    a given seed.
    """
    if n_edges < 0:
        raise GraphFormatError(f"n_edges must be >= 0, got {n_edges}")
    if not 0.0 <= delete_fraction <= 1.0:
        raise GraphFormatError(
            f"delete_fraction must be in [0, 1], got {delete_fraction}")
    rng = make_rng(seed)
    n_del = int(round(n_edges * delete_fraction))
    n_ins = n_edges - n_del
    inserts = (rng.integers(0, graph.n, size=(n_ins, 2))
               if n_ins and graph.n else np.empty((0, 2), dtype=np.int64))
    deletes = np.empty((0, 2), dtype=np.int64)
    if n_del:
        edges = graph.edges()
        if not graph.directed:
            edges = edges[edges[:, 0] < edges[:, 1]]
        if edges.shape[0]:
            idx = rng.choice(edges.shape[0],
                             size=min(n_del, edges.shape[0]), replace=False)
            deletes = edges[np.sort(idx)]
    if inserts.size and deletes.size:
        # Canonical undirected key = (min, max) pair; directed = as-is.
        def canon(e):
            if graph.directed:
                a, b = e[:, 0], e[:, 1]
            else:
                a = np.minimum(e[:, 0], e[:, 1])
                b = np.maximum(e[:, 0], e[:, 1])
            return a * np.int64(graph.n) + b
        deletes = deletes[~np.isin(canon(deletes), canon(inserts))]
    return inserts, deletes


def random_update_batch(graph: CSRGraph, n_edges: int = 16,
                        delete_fraction: float = 0.25,
                        seed: int | np.random.Generator | None = None
                        ) -> UpdateBatch:
    """A ready-to-apply deterministic random batch for ``graph``."""
    inserts, deletes = random_update_arrays(graph, n_edges, delete_fraction,
                                            seed)
    return UpdateBatch.build(inserts, deletes, n=graph.n,
                             directed=graph.directed)
