"""Adaptive parameter tuning.

CLaMPI "includes an adaptive parameter tuning heuristic that automatically
resizes the hash table and the memory buffer by observing indicators such
as cache misses, conflicts in the hash table, and evictions due to lack of
space in the memory buffer" (paper Section II-F).  Crucially for the
paper's tuning discussion (Section III-B1), **every adjustment flushes the
cache**, which is why good initial sizes matter.

The tuner inspects the cache every ``check_interval`` accesses:

* probe-window conflicts above ``conflict_threshold`` (per access in the
  window) → grow the hash table by ``hash_growth``;
* capacity evictions above ``eviction_threshold`` while the miss rate is
  still high → grow the buffer by ``buffer_growth`` (never beyond
  ``max_capacity_bytes``).

Each resize charges ``resize_cost`` seconds to the requesting rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.utils.units import US

if TYPE_CHECKING:  # pragma: no cover
    from repro.clampi.cache import ClampiCache


@dataclass
class AdaptiveConfig:
    """Knobs for :class:`AdaptiveTuner`."""

    check_interval: int = 4096
    conflict_threshold: float = 0.02
    eviction_threshold: float = 0.25
    min_miss_rate: float = 0.10
    hash_growth: float = 2.0
    buffer_growth: float = 1.5
    max_nslots: int | None = None
    max_capacity_bytes: int | None = None
    max_resizes: int = 8
    resize_cost: float = 50 * US

    def __post_init__(self) -> None:
        if self.check_interval <= 0:
            raise ValueError("check_interval must be > 0")
        if self.hash_growth <= 1.0 or self.buffer_growth <= 1.0:
            raise ValueError("growth factors must be > 1")
        # A negative (or NaN) charge would make a resizing get cost less
        # than nothing.
        if not self.resize_cost >= 0:
            raise ValueError(f"resize_cost must be >= 0, got {self.resize_cost}")


class AdaptiveTuner:
    """Watches one cache's stats deltas and resizes when they degrade."""

    def __init__(self, config: AdaptiveConfig):
        self.config = config
        self._last_accesses = 0
        self._last_conflicts = 0
        self._last_evictions = 0
        self._last_misses = 0
        self.resizes_done = 0

    def observe(self, cache: "ClampiCache") -> float:
        """Called by the cache after each miss; returns time to charge."""
        cfg = self.config
        stats = cache.stats
        accesses = stats.accesses
        if accesses - self._last_accesses < cfg.check_interval:
            return 0.0
        window = accesses - self._last_accesses
        conflicts = stats.hash_conflicts - self._last_conflicts
        evictions = stats.capacity_evictions - self._last_evictions
        misses = stats.misses - self._last_misses
        self._last_accesses = accesses
        self._last_conflicts = stats.hash_conflicts
        self._last_evictions = stats.capacity_evictions
        self._last_misses = stats.misses

        if self.resizes_done >= cfg.max_resizes:
            return 0.0

        conflict_rate = conflicts / window
        eviction_rate = evictions / window
        miss_rate = misses / window

        if conflict_rate > cfg.conflict_threshold:
            new_slots = int(cache.config.nslots * cfg.hash_growth)
            if cfg.max_nslots is not None:
                new_slots = min(new_slots, cfg.max_nslots)
            if new_slots > cache.config.nslots:
                cache.resize(nslots=new_slots)
                self.resizes_done += 1
                return cfg.resize_cost

        if (eviction_rate > cfg.eviction_threshold
                and miss_rate > cfg.min_miss_rate
                and cfg.max_capacity_bytes is not None):
            new_cap = int(cache.config.capacity_bytes * cfg.buffer_growth)
            new_cap = min(new_cap, cfg.max_capacity_bytes)
            if new_cap > cache.config.capacity_bytes:
                cache.resize(capacity_bytes=new_cap)
                self.resizes_done += 1
                return cfg.resize_cost

        return 0.0
