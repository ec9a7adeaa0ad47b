"""Reference CLaMPI structures: the pre-flat-store implementations, as oracles.

``tests/clampi/test_reference_differential.py`` drives these side by side
with :mod:`repro.clampi.hashtable` / :mod:`repro.clampi.allocator` and
requires identical observable state after every operation.  They are kept
deliberately naive:

* :class:`ReferenceHashIndex` probes through a generator and backshifts by
  taking every member of the following cluster out and re-inserting it;
* :class:`ReferenceAllocator` keeps free extents in a dict and finds the
  best fit by scanning all of them for the minimum ``(size, start)``;
* :func:`reference_invalidate` / :func:`reference_rekey` are the per-key
  loops ``ClampiCache.invalidate`` / ``rekey`` replaced with one join and
  one batched detach: a hash lookup and a detach per key row, on a live
  ``ClampiCache``.  Their results, and the cache they leave, are what the
  batched methods must reproduce bit for bit.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator

import numpy as np


class ReferenceHashIndex:
    """Bounded linear probing, generator probes, re-insert backshift."""

    def __init__(self, nslots: int, probe_limit: int = 8):
        self.nslots = int(nslots)
        self.probe_limit = min(int(probe_limit), self.nslots)
        self._slots: list[tuple[Hashable, Any] | None] = [None] * self.nslots
        self._count = 0
        self.conflicts = 0

    def __len__(self) -> int:
        return self._count

    def _probe(self, key: Hashable) -> Iterator[int]:
        start = hash(key) % self.nslots
        for i in range(self.probe_limit):
            yield (start + i) % self.nslots

    def lookup(self, key: Hashable) -> Any | None:
        for idx in self._probe(key):
            slot = self._slots[idx]
            if slot is None:
                return None
            if slot[0] == key:
                return slot[1]
        return None

    def insert(self, key: Hashable, value: Any) -> bool:
        free_idx = None
        for idx in self._probe(key):
            slot = self._slots[idx]
            if slot is None:
                if free_idx is None:
                    free_idx = idx
                break  # probing stops at the first empty slot
            if slot[0] == key:
                self._slots[idx] = (key, value)
                return True
        if free_idx is None:
            self.conflicts += 1
            return False
        self._slots[free_idx] = (key, value)
        self._count += 1
        return True

    def place(self, key: Hashable, value: Any) -> bool:
        """:meth:`insert` that leaves a full window uncounted."""
        conflicts = self.conflicts
        placed = self.insert(key, value)
        self.conflicts = conflicts
        return placed

    def remove(self, key: Hashable) -> Any:
        target_idx = None
        for idx in self._probe(key):
            slot = self._slots[idx]
            if slot is None:
                break
            if slot[0] == key:
                target_idx = idx
                break
        if target_idx is None:
            raise KeyError(key)
        value = self._slots[target_idx][1]
        self._slots[target_idx] = None
        self._count -= 1
        # Backshift: rehash the contiguous cluster following the hole.
        idx = (target_idx + 1) % self.nslots
        scanned = 0
        while self._slots[idx] is not None and scanned < self.nslots:
            k, v = self._slots[idx]
            self._slots[idx] = None
            self._count -= 1
            assert self.insert(k, v), "backshift re-insert cannot fail"
            idx = (idx + 1) % self.nslots
            scanned += 1
        return value

    def probe_window(self, key: Hashable) -> list[tuple[Hashable, Any]]:
        return [self._slots[idx] for idx in self._probe(key)
                if self._slots[idx] is not None]


class ReferenceAllocator:
    """Best fit by linear scan over a dict of free extents."""

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self._free: dict[int, int] = {0: self.capacity}  # start -> size
        self._used: dict[int, int] = {}

    def alloc(self, size: int) -> int | None:
        fits = [(sz, s) for s, sz in self._free.items() if sz >= size]
        if not fits:
            return None
        region_size, start = min(fits)
        del self._free[start]
        if region_size > size:
            self._free[start + size] = region_size - size
        self._used[start] = size
        return start

    def free(self, offset: int) -> int:
        size = self._used.pop(offset)
        start, end = offset, offset + size
        for s, sz in list(self._free.items()):
            if s + sz == offset:
                start = s
                del self._free[s]
            elif s == offset + size:
                end = s + sz
                del self._free[s]
        self._free[start] = end - start
        return size

    @property
    def free_bytes(self) -> int:
        return sum(self._free.values())

    def largest_free_block(self) -> int:
        return max(self._free.values(), default=0)

    def external_fragmentation(self) -> float:
        if not self._free:
            return 0.0
        return 1.0 - self.largest_free_block() / self.free_bytes

    def adjacent_free(self, offset: int) -> int:
        size = self._used[offset]
        return sum(sz for s, sz in self._free.items()
                   if s + sz == offset or s == offset + size)


def _rows(keys) -> list[tuple]:
    """Key rows (a list of triples or ``(k, 3)`` columns) as int tuples."""
    return [tuple(row) for row in
            np.asarray(keys, dtype=np.int64).reshape(-1, 3).tolist()]


def reference_invalidate(cache, keys) -> tuple[int, int]:
    """``cache.invalidate(keys)``, one lookup and one removal per key row."""
    dropped = dropped_bytes = 0
    for key in _rows(keys):
        row = cache.index.lookup(key)
        if row is None:
            continue
        dropped += 1
        dropped_bytes += cache._table.meta[row][2]
        cache._remove_entry(row)
        cache.stats.mgmt_time += cache.config.eviction_overhead
    cache.stats.invalidations += dropped
    cache.stats.invalidated_bytes += dropped_bytes
    return dropped, dropped_bytes


def reference_rekey(cache, old, new) -> tuple[int, int]:
    """``cache.rekey(old, new)``: detach every moving entry, then reattach.

    Two phases, so a new key may be another row's old key (rows sliding
    past each other); an entry whose new key is taken, or whose probe
    window is full, is dropped and counted as an invalidation.  A detached
    entry is carried as its snapshot record: block, size, score and hit
    metadata.
    """
    detached = []
    for old_key, new_key in zip(_rows(old), _rows(new)):
        row = cache.index.lookup(old_key)
        if row is None or old_key == new_key:
            continue
        detached.append((cache._table.record(row), new_key))
        cache._detach((old_key,))
    moved = moved_bytes = 0
    for entry, new_key in detached:
        cache.stats.mgmt_time += cache.config.eviction_overhead
        if (cache.index.lookup(new_key) is None
                and cache._attach(new_key, entry.buffer_offset, entry.nbytes,
                                  entry.app_score, entry.n_accesses,
                                  entry.last_access) is not None):
            moved += 1
            moved_bytes += entry.nbytes
        else:
            cache.allocator.free(entry.buffer_offset)
            cache.stats.invalidations += 1
            cache.stats.invalidated_bytes += entry.nbytes
    cache.stats.rekeys += moved
    cache.stats.rekeyed_bytes += moved_bytes
    return moved, moved_bytes
