"""Best-fit variable-size allocator over a bounded cache buffer.

CLaMPI reserves a contiguous memory buffer for cached entries and tracks
the *free* regions in an ordered set (an AVL tree in the C library).
Because entries have variable sizes (adjacency lists are as long as the
vertex degree), the buffer suffers **external fragmentation**: free space
may exist but be split into pieces too small for a new entry.  The paper's
positional eviction score exists precisely to fight this; the allocator
therefore exposes :meth:`BufferAllocator.adjacent_free`, the amount of free
space bordering a used block (how much would coalesce if the block were
evicted).

Here the ordered set is :class:`FreeList`, one sorted list driven by
``bisect``.  Best fit depends only on the *order* of the ``(size, start)``
extents, not on the shape of the structure holding them, so the list makes
exactly the choices a tree makes; and since frees coalesce at once it stays
short (tens of extents under eviction pressure), where one C ``memmove``
beats rebalancing node objects.

The allocator itself holds no bytes: its offsets place the cached
payloads in the cache's one byte buffer
(:class:`~repro.clampi.cache.SlotTable`), so fragmentation behaves exactly
as it would in C.  That buffer grows only as far as :attr:`high_water`.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Any

from repro.utils.errors import AllocationError


class FreeList(list):
    """A sorted list used as an ordered set (mutate it through these only).

    The allocator stores ``(size, start)`` extents, so ``ceiling((size, -1))``
    is the *smallest* free region able to hold ``size`` bytes (best fit) and
    the last element is the largest one (the fragmentation metric).
    """

    __slots__ = ()

    def add(self, key: Any) -> None:
        """Insert ``key`` in order; duplicate keys raise ``KeyError``."""
        i = bisect_left(self, key)
        if i < len(self) and self[i] == key:
            raise KeyError(f"duplicate key {key!r}")
        self.insert(i, key)

    def remove(self, key: Any) -> None:
        """Remove ``key``; missing keys raise ``KeyError``."""
        i = bisect_left(self, key)
        if i == len(self) or self[i] != key:
            raise KeyError(f"key not found: {key!r}")
        del self[i]

    def ceiling(self, key: Any) -> Any | None:
        """Smallest stored key ``>= key``, or None."""
        i = bisect_left(self, key)
        return self[i] if i < len(self) else None

    def check_invariants(self) -> None:
        """Raise AssertionError unless strictly sorted (hence duplicate-free)."""
        assert all(a < b for a, b in zip(self, self[1:])), "free list out of order"


class BufferAllocator:
    """Offset-based best-fit allocator with free-region coalescing."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise AllocationError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.free_bytes = self.capacity
        # Free regions: (size, start) ordered for best fit; dicts for coalescing.
        self._free_by_size = FreeList()
        self._free_start_to_size: dict[int, int] = {}
        self._free_end_to_start: dict[int, int] = {}
        # Used blocks: start -> size.
        self._used: dict[int, int] = {}
        #: The highest end offset any block has reached.
        self.high_water = 0
        self._add_free(0, self.capacity)

    # -- free-region bookkeeping ---------------------------------------------
    def _add_free(self, start: int, size: int) -> None:
        self._free_by_size.add((size, start))
        self._free_start_to_size[start] = size
        self._free_end_to_start[start + size] = start

    def _remove_free(self, start: int, size: int) -> None:
        self._free_by_size.remove((size, start))
        del self._free_start_to_size[start]
        del self._free_end_to_start[start + size]

    # -- public API ----------------------------------------------------------
    def alloc(self, size: int) -> int | None:
        """Allocate ``size`` bytes; returns the offset or None if impossible.

        Best fit: the smallest free region that can hold ``size``.  Returning
        None (rather than raising) mirrors CLaMPI, which simply does not cache
        an entry it cannot place and lets the caller decide whether to evict.
        """
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        best = self._free_by_size.ceiling((size, -1))
        if best is None:
            return None
        region_size, start = best
        self._remove_free(start, region_size)
        if region_size > size:
            self._add_free(start + size, region_size - size)
        self._used[start] = size
        self.free_bytes -= size
        if start + size > self.high_water:
            self.high_water = start + size
        return start

    def single_free_extent(self) -> tuple[int, int] | None:
        """``(start, size)`` of the free list when it is exactly one extent.

        Best fit over one extent is a bump pointer: every :meth:`alloc`
        that fits takes its front (see :meth:`take_front`).
        """
        if len(self._free_by_size) != 1:
            return None
        size, start = self._free_by_size[0]
        return start, size

    def take_front(self, sizes: list[int]) -> int:
        """Allocate consecutive blocks off the front of the only free extent.

        Leaves exactly the state ``alloc(size)`` for each size in turn
        leaves; returns the first block's offset.
        """
        extent = self.single_free_extent()
        total = sum(sizes)
        if extent is None or total > extent[1] or min(sizes, default=1) <= 0:
            raise AllocationError(
                f"take_front needs one free extent holding {len(sizes)} "
                f"positive sizes ({total} B), free list is {extent}")
        start, size = extent
        self._remove_free(start, size)
        self._used.update(zip(accumulate(sizes, initial=start), sizes))
        if size > total:
            self._add_free(start + total, size - total)
        self.free_bytes -= total
        self.high_water = max(self.high_water, start + total)
        return start

    def free(self, offset: int) -> int:
        """Release the block at ``offset``; returns its size.

        Adjacent free regions are coalesced immediately, so the free list is
        always maximal (two free regions never touch).
        """
        try:
            size = self._used.pop(offset)
        except KeyError:
            raise AllocationError(f"no used block at offset {offset}") from None
        start, end = offset, offset + size
        # Coalesce with the free region ending exactly at our start.
        prev_start = self._free_end_to_start.get(start)
        if prev_start is not None:
            prev_size = self._free_start_to_size[prev_start]
            self._remove_free(prev_start, prev_size)
            start = prev_start
        # Coalesce with the free region starting exactly at our end.
        next_size = self._free_start_to_size.get(end)
        if next_size is not None:
            self._remove_free(end, next_size)
            end += next_size
        self._add_free(start, end - start)
        self.free_bytes += size
        return size

    # -- inspection -------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return self.capacity - self.free_bytes

    def block_size(self, offset: int) -> int:
        """Size of the used block at ``offset``."""
        try:
            return self._used[offset]
        except KeyError:
            raise AllocationError(f"no used block at offset {offset}") from None

    def largest_free_block(self) -> int:
        """Largest contiguous free region (0 when full)."""
        return self._free_by_size[-1][0] if self._free_by_size else 0

    def external_fragmentation(self) -> float:
        """1 - largest_free/free_total; 0 = one contiguous free region."""
        if self.free_bytes == 0:
            return 0.0
        return 1.0 - self.largest_free_block() / self.free_bytes

    def adjacent_free(self, offset: int, size: int | None = None) -> int:
        """Free bytes bordering the used block at ``offset``.

        This is the paper's positional signal: a block surrounded by free
        space would, if evicted, produce a large coalesced region, so it is a
        preferred victim even at equal temporal locality.  Callers that
        already hold the block's ``size`` (a cache entry's ``nbytes``) pass
        it to skip the lookup; without it an unknown ``offset`` raises.
        """
        if size is None:
            size = self.block_size(offset)
        total = 0
        prev_start = self._free_end_to_start.get(offset)
        if prev_start is not None:
            total += self._free_start_to_size[prev_start]
        nxt = self._free_start_to_size.get(offset + size)
        if nxt is not None:
            total += nxt
        return total

    def n_free_regions(self) -> int:
        return len(self._free_start_to_size)

    def n_used_blocks(self) -> int:
        return len(self._used)

    def used_blocks(self) -> dict[int, int]:
        """Snapshot of used blocks (offset -> size)."""
        return dict(self._used)

    # -- validation (test hook) ---------------------------------------------------
    def check_invariants(self) -> None:
        """Assert the free/used accounting exactly tiles the buffer."""
        self._free_by_size.check_invariants()
        assert self._free_by_size == sorted(
            (sz, s) for s, sz in self._free_start_to_size.items())
        regions = sorted(
            [(s, sz, "free") for s, sz in self._free_start_to_size.items()]
            + [(s, sz, "used") for s, sz in self._used.items()]
        )
        cursor = 0
        prev_kind = None
        for start, size, kind in regions:
            assert start == cursor, f"gap/overlap at offset {cursor} vs {start}"
            assert size > 0, f"empty region at {start}"
            if kind == "free":
                assert prev_kind != "free", f"uncoalesced free regions at {start}"
            cursor = start + size
            prev_kind = kind
        assert cursor == self.capacity, f"buffer not tiled: {cursor} != {self.capacity}"
        assert all(s + sz <= self.high_water for s, sz in self._used.items()), \
            "a used block ends past the high-water mark"
        assert self.free_bytes == sum(self._free_start_to_size.values())
