"""Micro-benchmarks of the CLaMPI cache data structures."""

import numpy as np
import pytest

from repro.clampi.allocator import BufferAllocator, FreeList
from repro.clampi.cache import ClampiCache, ClampiConfig
from repro.runtime.window import Window


@pytest.mark.parametrize("extents", [24, 4096])
def test_free_list_churn(benchmark, extents):
    """Remove + re-insert (size, start) extents at a steady list length.

    24 is what an eviction-pressed cache holds (frees coalesce at once);
    4096 shows the list's O(n) ``insert``/``del`` memmove staying cheap
    far beyond that.
    """
    rng = np.random.default_rng(3)
    keys = [(int(s), i) for i, s in enumerate(rng.integers(8, 4096, extents))]
    free = FreeList()
    for key in keys:
        free.add(key)
    victims = [keys[i] for i in rng.integers(0, extents, 1024)]

    def churn():
        for key in victims:
            free.remove(key)
            free.ceiling((key[0], -1))
            free.add(key)
        return free

    assert len(benchmark(churn)) == extents


def test_allocator_churn(benchmark):
    rng = np.random.default_rng(1)
    sizes = rng.integers(8, 512, 512).tolist()

    def churn():
        alloc = BufferAllocator(1 << 16)
        live = []
        for s in sizes:
            off = alloc.alloc(int(s))
            if off is not None:
                live.append(off)
            elif live:
                alloc.free(live.pop(0))
        return alloc

    benchmark(churn)


@pytest.fixture(scope="module")
def cache_setup():
    win = Window("adj", [np.arange(4096, dtype=np.int64),
                         np.arange(4096, dtype=np.int64)])
    win.lock_all(0)
    rng = np.random.default_rng(2)
    # Zipf-ish access stream: heavy reuse of a few offsets.
    offsets = (rng.zipf(1.5, 4096) % 512).astype(int)
    return win, offsets


def test_cache_hot_access_stream(benchmark, cache_setup):
    win, offsets = cache_setup

    def run():
        cache = ClampiCache(win, 0, ClampiConfig(capacity_bytes=1 << 14,
                                                 nslots=512))
        for off in offsets:
            cache.access(1, int(off), 8)
        return cache.stats.hit_rate

    hit_rate = benchmark(run)
    assert hit_rate > 0.3


def test_cache_eviction_heavy_access_stream(benchmark, cache_setup):
    """The miss path: variable-size entries, room for a tenth of the keys,
    hash slots to match — most accesses miss, insert and evict."""
    win, _ = cache_setup
    offsets = np.random.default_rng(4).integers(0, 512, 4096).tolist()

    def run():
        cache = ClampiCache(win, 0, ClampiConfig(capacity_bytes=1 << 11,
                                                 nslots=48))
        for off in offsets:
            cache.access(1, off, 1 + off % 12)
        return cache.stats

    stats = benchmark(run)
    assert stats.hit_rate < 0.5
    assert stats.hash_conflicts > 0 and stats.capacity_evictions > 0
