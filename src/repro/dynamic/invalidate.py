"""Targeted CLaMPI invalidation (and rekeying) after an edge-update batch.

The cache keys remote gets by ``(target, offset, count)``; after a batch
is applied and a rank's CSR slice rebuilt, three kinds of entries can go
stale:

* **offsets entries** — key ``(target, local_index, 2)``, data the
  ``(start, end)`` pair: stale whenever the vertex's pair changed (its
  own degree changed, or an earlier vertex's did and shifted it);
* **adjacency entries** — key ``(target, start, count)``: stale whenever
  the new window no longer holds the same bytes at that position — the
  vertex's list changed, or the list was shifted by an earlier change;
* everything else — entries for untouched ranks, and entries before the
  first change within a touched rank — stays **valid and warm**.

The retention criterion is *positional*: an adjacency entry survives iff
the new window content at its exact ``[start, start + count)`` range is
identical to what was cached, so a later read of that key — whichever
vertex it now belongs to — is served correctly.  This makes the
invalidation exact, not heuristic: tests cross-check post-update cached
runs against cold full recomputes bit-for-bit.

Adjacency entries whose list merely *moved* — an earlier vertex on the
rank changed degree, shifting the unchanged list to a new start — are not
dropped but **rekeyed**: the plan maps ``(target, old_start, count) ->
(target, new_start, count)`` and :meth:`~repro.clampi.cache.ClampiCache
.rekey` re-registers the entry under its new key, retaining that warmth
too.  Offsets entries cannot be rekeyed (the shifted pair *is* the
cached data, so its bytes did change).

Keys travel as ``(k, 3)`` int64 columns, never as tuples: each rank's
masks become key columns directly, the plan concatenates every kind once
per resync, and each cache matches a whole kind in one join.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph, gather_ranges
from repro.graph.distributed import DistributedCSR
from repro.graph.partition import split_csr_rank

__all__ = ["ResyncPlan", "resync_distributed", "stale_part_keys"]


def _no_keys() -> np.ndarray:
    return np.zeros((0, 3), dtype=np.int64)


def _key_rows(target: int, starts: np.ndarray, counts: np.ndarray
              ) -> np.ndarray:
    """``(k, 3)`` key columns ``(target, starts[i], counts[i])``."""
    keys = np.empty((starts.shape[0], 3), dtype=np.int64)
    keys[:, 0] = target
    keys[:, 1] = starts
    keys[:, 2] = counts
    return keys


def stale_part_keys(target: int, old_offsets: np.ndarray,
                    old_adjacency: np.ndarray, new_offsets: np.ndarray,
                    new_adjacency: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cache keys invalidated or remapped by swapping one rank's CSR slice.

    Returns ``(offsets_keys, adjacency_keys, rekey_old, rekey_new)`` for
    window reads targeting ``target``, each a ``(k, 3)`` int64 array of
    ``(target, offset, count)`` rows in ascending local-vertex order.
    Keys are computed against the *old* layout (that is what sits in the
    caches); an entry is kept in place only if the new layout serves
    byte-identical data for its key, and remapped (row i of ``rekey_old``
    to row i of ``rekey_new``) when its unchanged list merely moved to a
    new start.
    """
    old_s, old_e = old_offsets[:-1], old_offsets[1:]
    new_s, new_e = new_offsets[:-1], new_offsets[1:]
    old_len = old_e - old_s
    new_len = new_e - new_s
    pair_ok = (old_s == new_s) & (old_e == new_e)

    row_ok = pair_ok.copy()
    cand = np.flatnonzero(pair_ok & (old_len > 0))
    if cand.size:
        # Same (start, end) in both layouts: compare content in place.
        lens = old_len[cand]
        old_rows, bounds = gather_ranges(old_adjacency, old_s[cand], lens)
        new_rows, _ = gather_ranges(new_adjacency, old_s[cand], lens)
        changed = np.add.reduceat(old_rows != new_rows, bounds[:-1]) > 0
        row_ok[cand[changed]] = False

    # Shifted rows with unchanged length: content-compare old vs new
    # position; equal bytes mean the entry is rekeyable, not stale.
    movable = np.zeros(row_ok.shape[0], dtype=bool)
    mcand = np.flatnonzero(~pair_ok & (old_len == new_len) & (old_len > 0))
    if mcand.size:
        lens = old_len[mcand]
        old_rows, bounds = gather_ranges(old_adjacency, old_s[mcand], lens)
        new_rows, _ = gather_ranges(new_adjacency, new_s[mcand], lens)
        same = np.add.reduceat(old_rows != new_rows, bounds[:-1]) == 0
        movable[mcand[same]] = True

    off_li = np.flatnonzero(~pair_ok)
    adj_li = np.flatnonzero(~row_ok & ~movable)
    mov_li = np.flatnonzero(movable)
    return (_key_rows(target, off_li, np.full(off_li.shape[0], 2)),
            _key_rows(target, old_s[adj_li], old_len[adj_li]),
            _key_rows(target, old_s[mov_li], old_len[mov_li]),
            _key_rows(target, new_s[mov_li], old_len[mov_li]))


@dataclass
class ResyncPlan:
    """What resyncing a resident cluster to a new graph did / must do.

    The stale keys of every touched rank, concatenated per kind in rank
    order, as ``(k, 3)`` int64 columns: ``offsets_keys`` and
    ``adjacency_keys`` to invalidate, and ``rekey_old`` / ``rekey_new``,
    row for row, to rekey.
    """

    touched_ranks: tuple[int, ...]
    offsets_keys: np.ndarray = field(default_factory=_no_keys)
    adjacency_keys: np.ndarray = field(default_factory=_no_keys)
    rekey_old: np.ndarray = field(default_factory=_no_keys)
    rekey_new: np.ndarray = field(default_factory=_no_keys)
    rebuilt_bytes_by_rank: dict[int, int] = field(default_factory=dict)

    @property
    def rebuilt_bytes(self) -> int:
        return sum(self.rebuilt_bytes_by_rank.values())


def resync_distributed(dist: DistributedCSR, new_graph: CSRGraph,
                       endpoints: np.ndarray) -> ResyncPlan:
    """Swap the touched ranks' slices of a resident cluster in place.

    Only ranks owning an endpoint of a changed edge are rebuilt (a
    vertex's CSR row changes only if its own edge set did); every other
    rank's windows — and any cache entries pointing at them — are left
    untouched.  Returns the plan with the per-target stale keys and
    rekeyable moves; the caller pushes those through every rank's caches
    and then calls
    :meth:`~repro.graph.distributed.DistributedCSR.rebind_graph`.
    """
    if endpoints.size == 0:
        return ResyncPlan(touched_ranks=())
    part = dist.partition
    touched = np.unique(part.owners(np.asarray(endpoints, dtype=np.int64)))
    ranks = tuple(int(r) for r in touched)
    kinds: list[tuple[np.ndarray, ...]] = []
    rebuilt: dict[int, int] = {}
    for rank in ranks:
        old_off = dist.w_offsets.local_part(rank)
        old_adj = dist.w_adj.local_part(rank)
        new_off, new_adj = split_csr_rank(new_graph, part, rank)
        kinds.append(stale_part_keys(rank, old_off, old_adj,
                                     new_off, new_adj))
        dist.replace_rank_slice(rank, new_off, new_adj)
        rebuilt[rank] = int(new_off.nbytes + new_adj.nbytes)
    off_keys, adj_keys, rekey_old, rekey_new = (
        np.concatenate(keys) for keys in zip(*kinds))
    return ResyncPlan(ranks, off_keys, adj_keys, rekey_old, rekey_new,
                      rebuilt)
