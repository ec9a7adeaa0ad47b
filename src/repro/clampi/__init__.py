"""CLaMPI — a reimplementation of the software caching layer for MPI RMA.

CLaMPI (Di Girolamo, Vella, Hoefler, IPDPS'17) transparently caches data
retrieved through RMA get operations.  The paper under reproduction extends
it with **application-defined eviction scores** and uses two caches per
rank: ``C_offsets`` (fixed-size entries: the (start, end) offset pairs of
remote adjacency lists) and ``C_adj`` (variable-size entries: the adjacency
lists themselves).

This package reimplements the system as described:

* variable-size entries in a bounded memory buffer, managed by a best-fit
  allocator whose free regions live in an ordered set keyed by
  ``(size, start)`` — an AVL tree in the C library, one sorted list here:
  best fit depends only on the order of the extents, so the choices are
  the same (:mod:`~repro.clampi.allocator`);
* a **hash-table index** with bounded probing; probe-window exhaustion is a
  *conflict* and triggers eviction within the window
  (:mod:`~repro.clampi.hashtable`);
* eviction **scores** combining temporal locality (LRU) with a positional
  term that prefers evicting entries whose removal coalesces free space —
  or, in the paper's extension, an application-supplied score such as the
  vertex degree (:mod:`~repro.clampi.scores`);
* an **adaptive tuning** heuristic that resizes the hash table / buffer from
  observed misses, conflicts and evictions, flushing on each adjustment
  (:mod:`~repro.clampi.adaptive`);
* three consistency **modes**: transparent (flush at epoch close),
  always-cache (read-only data), user-defined (:class:`ConsistencyMode`).
"""

from repro.clampi.allocator import BufferAllocator
from repro.clampi.hashtable import HashIndex
from repro.clampi.scores import DefaultScorePolicy, AppScorePolicy, ScorePolicy
from repro.clampi.scores_ext import (
    CostAwareScorePolicy,
    DensityScorePolicy,
    HybridDegreeLRUPolicy,
    LFUScorePolicy,
)
from repro.clampi.stats import CacheStats
from repro.clampi.cache import ClampiCache, ClampiConfig, ConsistencyMode
from repro.clampi.adaptive import AdaptiveTuner, AdaptiveConfig
from repro.clampi.wrapper import attach_adjacency_caches, attach_offset_caches

__all__ = [
    "BufferAllocator",
    "HashIndex",
    "ScorePolicy",
    "DefaultScorePolicy",
    "AppScorePolicy",
    "LFUScorePolicy",
    "CostAwareScorePolicy",
    "DensityScorePolicy",
    "HybridDegreeLRUPolicy",
    "CacheStats",
    "ClampiCache",
    "ClampiConfig",
    "ConsistencyMode",
    "AdaptiveTuner",
    "AdaptiveConfig",
    "attach_adjacency_caches",
    "attach_offset_caches",
]
