"""Differential tests: the flat CLaMPI store against its predecessors.

The index-arithmetic :class:`HashIndex` and the bisect-driven
:class:`BufferAllocator` must be *indistinguishable* from the structures
they replaced (kept, naive, in ``tests/clampi_reference.py``): same slots
after every operation, same offsets for every allocation.  The last test
pins a whole eviction-heavy cache run to values recorded from the previous
implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clampi.allocator import BufferAllocator
from repro.clampi.cache import ClampiCache, ClampiConfig
from repro.clampi.hashtable import HashIndex
from repro.clampi.scores import AppScorePolicy
from repro.runtime.window import Window
from repro.utils.errors import AllocationError, CacheError
from tests.clampi_reference import ReferenceAllocator, ReferenceHashIndex

# -- hash index ----------------------------------------------------------------
# Small int keys hash to themselves, so ``key % nslots`` collides, wraps
# around the table end and fills it on purpose; the 3-tuples are the shape
# the cache stores.
hash_keys = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.tuples(st.integers(0, 1), st.integers(0, 20), st.integers(1, 3)),
)
hash_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "insert", "place", "remove",
                               "lookup"]),
              hash_keys),
    max_size=120,
)


def assert_same_table(new: HashIndex, ref: ReferenceHashIndex) -> None:
    assert [s and s[:2] for s in new._slots] == ref._slots
    assert len(new) == len(ref)
    assert new.conflicts == ref.conflicts


@given(hash_ops, st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=16))
@settings(max_examples=300, deadline=None)
def test_hash_index_matches_reference(operations, nslots, probe_limit):
    # probe_limit ranges past nslots: the whole (possibly full) table is
    # then one probe window and backshift scans wrap all the way round.
    new = HashIndex(nslots, probe_limit)
    ref = ReferenceHashIndex(nslots, probe_limit)
    assert new.probe_limit == ref.probe_limit
    for step, (op, key) in enumerate(operations):
        if op == "insert":
            assert new.insert(key, step) == ref.insert(key, step)
        elif op == "place":   # insert, but a full window stays uncounted
            counted = ref.conflicts
            assert new.place(key, step) == ref.insert(key, step)
            ref.conflicts = counted
        elif op == "remove":
            if ref.lookup(key) is None:
                with pytest.raises(CacheError):
                    new.remove(key)
            else:
                assert new.remove(key) == ref.remove(key)
        else:
            assert new.lookup(key) == ref.lookup(key)
            assert new.probe_window(key) == ref.probe_window(key)
        assert_same_table(new, ref)
        new.check_invariants()


def test_hash_index_full_table_wraparound():
    """Every slot taken, one cluster spanning the table end, then drained."""
    new, ref = HashIndex(5, 8), ReferenceHashIndex(5, 8)
    for key in (3, 8, 13, 4, 18):   # homes 3,3,3,4,3 -> wraps into 0 and 1
        assert new.insert(key, key) and ref.insert(key, key)
    assert not new.insert(23, 23) and not ref.insert(23, 23)
    assert_same_table(new, ref)
    for key in (8, 3, 18, 4, 13):
        assert new.remove(key) == ref.remove(key)
        assert_same_table(new, ref)
        new.check_invariants()
    assert len(new) == 0


# -- allocator -----------------------------------------------------------------
alloc_ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(min_value=1, max_value=300)),
        st.tuples(st.just("free"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("take_front"),
                  st.lists(st.integers(min_value=0, max_value=120),
                           min_size=1, max_size=6)),
    ),
    max_size=200,
)


@given(alloc_ops, st.sampled_from([256, 1000, 4096]))
@settings(max_examples=200, deadline=None)
def test_allocator_matches_reference(operations, capacity):
    new, ref = BufferAllocator(capacity), ReferenceAllocator(capacity)
    live: list[int] = []
    for op, arg in operations:
        if op == "alloc":
            off = new.alloc(arg)
            assert off == ref.alloc(arg)
            if off is not None:
                live.append(off)
        elif op == "take_front":
            # One call for what `alloc` per size does on a one-extent free
            # list; anything else (several extents, no room, a size <= 0)
            # is refused with the allocator untouched.
            free = sorted(ref._free.items())
            assert new.single_free_extent() == (free[0] if len(free) == 1
                                                else None)
            if len(free) == 1 and min(arg) > 0 and sum(arg) <= free[0][1]:
                offsets = [ref.alloc(size) for size in arg]
                assert new.take_front(arg) == offsets[0] == free[0][0]
                assert [new.block_size(off) for off in offsets] == arg
                live.extend(offsets)
            else:
                with pytest.raises(AllocationError):
                    new.take_front(arg)
        elif live:
            off = live.pop(arg % len(live))
            assert new.free(off) == ref.free(off)
        assert new.free_bytes == ref.free_bytes
        assert new.largest_free_block() == ref.largest_free_block()
        assert new.external_fragmentation() == ref.external_fragmentation()
        for off in live:
            expected = ref.adjacent_free(off)
            assert new.adjacent_free(off) == expected
            assert new.adjacent_free(off, new.block_size(off)) == expected
    new.check_invariants()


# -- whole cache, against recorded expectations ----------------------------------
#: ``stats.snapshot()`` and ``(key, buffer_offset, nbytes, last_access,
#: n_accesses)`` of the surviving entries after :func:`drive_eviction_heavy`,
#: recorded from the implementation this store replaced (node-object AVL
#: free list, generator-probing hash index, key list + index re-lookups).
RECORDED = {
    "default": {
        "stats": {
            "hits": 686, "misses": 2314, "hit_rate": 0.22866666666666666,
            "miss_rate": 0.7713333333333333, "compulsory_miss_rate": 0.137,
            "capacity_evictions": 836, "conflict_evictions": 1176,
            "hash_conflicts": 1176, "insert_failures": 282, "flushes": 0,
            "invalidations": 15, "invalidated_bytes": 784, "rekeys": 13,
            "rekeyed_bytes": 776, "bytes_served_from_cache": 40040,
            "bytes_fetched": 123176, "mgmt_time": 0.0014364999999999248,
        },
        "entries": [
            ((0, 3, 3), 184, 24, 2991, 1), ((0, 4, 5), 0, 40, 2994, 1),
            ((0, 14, 8), 256, 64, 2993, 1), ((1, 1, 8), 96, 64, 2985, 3),
            ((1, 87, 3), 160, 24, 3000, 1),
        ],
    },
    "degree": {
        "stats": {
            "hits": 183, "misses": 2817, "hit_rate": 0.061,
            "miss_rate": 0.939, "compulsory_miss_rate": 0.137,
            "capacity_evictions": 969, "conflict_evictions": 34,
            "hash_conflicts": 110, "insert_failures": 1798, "flushes": 0,
            "invalidations": 12, "invalidated_bytes": 992, "rekeys": 12,
            "rekeyed_bytes": 1064, "bytes_served_from_cache": 12984,
            "bytes_fetched": 150232, "mgmt_time": 0.0013596499999999755,
        },
        "entries": [
            ((0, 138, 12), 288, 96, 2861, 1), ((0, 209, 12), 96, 96, 2906, 1),
            ((1, 30, 12), 0, 96, 2862, 1), ((1, 77, 12), 192, 96, 2949, 1),
        ],
    },
}


def drive_eviction_heavy(policy: str) -> ClampiCache:
    """3000 scalar accesses through a 512-byte, 8-slot cache.

    About five entries fit, so the hash table runs near full: three
    quarters of the accesses miss and nearly every miss evicts (capacity
    and probe-window conflicts both); a periodic invalidate + rekey sweep
    exercises the targeted-removal paths too.
    """
    n = 256
    win = Window("adj", [np.arange(n, dtype=np.int64),
                         np.arange(7000, 7000 + n, dtype=np.int64)])
    win.lock_all(0)
    kw = dict(capacity_bytes=512, nslots=8, probe_limit=4, eviction_sample=4,
              seed=99)
    if policy == "degree":
        kw.update(score_policy=AppScorePolicy(),
                  app_score_fn=lambda t, o, c, d: float(c))
    cache = ClampiCache(win, 0, ClampiConfig(**kw))
    rng = np.random.default_rng(2022)
    offsets = rng.zipf(1.3, 3000) % (n - 12)
    counts = 1 + (offsets * 7) % 12
    targets = rng.integers(0, 2, 3000)
    for i, (t, o, c) in enumerate(zip(targets, offsets, counts)):
        cache.access(int(t), int(o), int(c))
        if i % 500 == 499:
            live = sorted(e.key for e in cache.entries())
            cache.invalidate(live[::3])
            cache.rekey(live[1::3], [(t, o + 1, c) for t, o, c in live[1::3]])
            cache.check_invariants()
    return cache


@pytest.mark.parametrize("policy", sorted(RECORDED))
def test_eviction_heavy_stream_matches_recorded_run(policy):
    cache = drive_eviction_heavy(policy)
    cache.check_invariants()
    expected = RECORDED[policy]
    assert cache.stats.snapshot() == expected["stats"]
    assert cache.stats.hit_rate < 0.5 and cache.stats.hash_conflicts > 0
    assert sorted((e.key, e.buffer_offset, e.nbytes, e.last_access,
                   e.n_accesses) for e in cache.entries()) == expected["entries"]
