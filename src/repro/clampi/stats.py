"""Cache statistics.

Everything the paper's cache figures need: hit/miss/compulsory-miss rates
(Figure 7's grey "compulsory" band), evictions split by cause (capacity vs
hash conflict, both watched by the adaptive tuner), and served-bytes
accounting for communication-volume reductions.

The counters are plain ints on a dataclass — a cache access costs one
attribute add.  :meth:`CacheStats.snapshot` reads them straight into the
report dict in :data:`~CacheStats.SNAPSHOT_KEYS` order (same keys, same
order, same values as every committed ``BENCH_*.json``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheStats:
    """Counters for one :class:`~repro.clampi.cache.ClampiCache`."""

    hits: int = 0
    misses: int = 0
    compulsory_misses: int = 0
    capacity_evictions: int = 0
    conflict_evictions: int = 0
    hash_conflicts: int = 0
    insert_failures: int = 0  # entry not cached (too big / nothing evictable)
    flushes: int = 0
    adaptive_resizes: int = 0
    invalidations: int = 0    # entries evicted because their data changed
    invalidated_bytes: int = 0
    rekeys: int = 0           # entries retained under a new key (data moved)
    rekeyed_bytes: int = 0

    bytes_served_from_cache: int = 0
    bytes_fetched: int = 0

    mgmt_time: float = 0.0  # seconds spent on cache management (overhead)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def compulsory_miss_rate(self) -> float:
        """Fraction of all accesses that were first-touch misses.

        A compulsory miss cannot be avoided by any cache size — Figure 7
        shades this region grey.
        """
        return self.compulsory_misses / self.accesses if self.accesses else 0.0

    @property
    def avoidable_miss_rate(self) -> float:
        """Misses a bigger/better cache could have converted into hits."""
        return self.miss_rate - self.compulsory_miss_rate

    @property
    def evictions(self) -> int:
        return self.capacity_evictions + self.conflict_evictions

    #: ``snapshot()``'s key order: counters interleaved with derived rates.
    SNAPSHOT_KEYS = (
        "hits", "misses", "hit_rate", "miss_rate",
        "compulsory_miss_rate", "capacity_evictions",
        "conflict_evictions", "hash_conflicts", "insert_failures",
        "flushes", "invalidations", "invalidated_bytes", "rekeys",
        "rekeyed_bytes", "bytes_served_from_cache", "bytes_fetched",
        "mgmt_time",
    )

    def snapshot(self) -> dict[str, float]:
        """Flat dict for reporting, keyed in :data:`SNAPSHOT_KEYS` order."""
        return {name: getattr(self, name) for name in self.SNAPSHOT_KEYS}

    @classmethod
    def merged(cls, caches) -> dict | None:
        """One snapshot over per-rank ``caches``' counters; ``None`` if empty."""
        if not caches:
            return None
        total = cls()
        for cache in caches:
            total.merge(cache.stats)
        return total.snapshot()

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another cache's counters (cluster-wide reporting)."""
        for name in (
            "hits", "misses", "compulsory_misses", "capacity_evictions",
            "conflict_evictions", "hash_conflicts", "insert_failures",
            "flushes", "adaptive_resizes", "invalidations",
            "invalidated_bytes", "rekeys", "rekeyed_bytes",
            "bytes_served_from_cache", "bytes_fetched",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.mgmt_time += other.mgmt_time
