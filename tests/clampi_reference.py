"""Reference CLaMPI structures: the pre-flat-store implementations, as oracles.

``tests/clampi/test_reference_differential.py`` drives these side by side
with :mod:`repro.clampi.hashtable` / :mod:`repro.clampi.allocator` and
requires identical observable state after every operation.  They are kept
deliberately naive:

* :class:`ReferenceHashIndex` probes through a generator and backshifts by
  taking every member of the following cluster out and re-inserting it;
* :class:`ReferenceAllocator` keeps free extents in a dict and finds the
  best fit by scanning all of them for the minimum ``(size, start)``.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator


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
