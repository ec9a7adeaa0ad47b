"""The payload buffer: every cached byte lives in one ``bytearray`` at the
allocator's offsets (``SlotTable.buffer``), as in CLaMPI.

A fill run moves its payloads with one ``Window.gather`` and writes them
as one block; scalar ``access`` writes a miss's bytes and hands out copies,
so nothing a caller holds aliases the buffer.  The buffer only grows to
the allocator's high-water mark, and a flush drops it.
"""

import numpy as np
import pytest

from repro.clampi.cache import BatchStream, ClampiCache, ClampiConfig
from repro.runtime.window import Window

N = 1024


class CountingWindow(Window):
    """A window that counts its data movements."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = self.gathers = 0

    def read(self, *args):
        self.reads += 1
        return super().read(*args)

    def gather(self, *args):
        self.gathers += 1
        return super().gather(*args)


def make_cache(**config) -> ClampiCache:
    window = CountingWindow("adj", [np.arange(N, dtype=np.int64),
                                    np.arange(N, dtype=np.int64) * 3 + 7])
    window.lock_all(0)
    kw = dict(capacity_bytes=1 << 16, nslots=4096)
    kw.update(config)
    return ClampiCache(window, 0, ClampiConfig(**kw))


def stream_of(gets) -> BatchStream:
    cols = np.array(gets, dtype=np.int64)
    return BatchStream(cols[:, 0], cols[:, 1], cols[:, 2])


def window_bytes(cache, key) -> list:
    target, offset, count = key
    return cache.window.local_part(target)[offset:offset + count].tolist()


def test_a_fill_run_reads_window_memory_once():
    cache = make_cache()
    gets = [(i % 2, 5 * i, 1 + i % 5) for i in range(200)]
    cache.access_batch(stream=stream_of(gets + gets[::-1]))
    assert cache.run_counts["fill_runs"] == 1
    assert cache.run_counts["filled_entries"] == 200
    assert (cache.window.gathers, cache.window.reads) == (1, 0)
    for entry in cache.entries():
        assert entry.data.tolist() == window_bytes(cache, entry.key)
    cache.check_invariants()


@pytest.mark.parametrize("batched", [False, True])
def test_a_hit_serves_the_fetched_bytes_until_invalidated(batched):
    cache = make_cache()
    key = (1, 40, 6)
    gets = [(0, 10 * i, 4) for i in range(40)] + [key]
    if batched:
        cache.access_batch(stream=stream_of(gets))
        assert cache.run_counts["fill_runs"] == 1
    else:
        for get in gets:
            cache.access(*get)
    fetched = window_bytes(cache, key)
    cache.window.write(0, 1, 40, np.full(6, -1))
    data, _, hit = cache.access(*key)
    assert hit and data.tolist() == fetched      # stale, as CLaMPI serves
    cache.invalidate([key])
    data, _, hit = cache.access(*key)
    assert not hit and data.tolist() == [-1] * 6


def test_mutating_a_returned_array_leaves_the_cache_alone():
    cache = make_cache()
    key = (1, 3, 5)
    missed, _, hit = cache.access(*key)
    assert not hit
    missed[:] = 0
    hitted, _, hit = cache.access(*key)
    assert hit and hitted.tolist() == window_bytes(cache, key)
    hitted[:] = 0
    again, _, _ = cache.access(*key)
    assert again.tolist() == window_bytes(cache, key)
    (entry,) = cache.entries()
    entry.data[:] = 0
    assert cache.access(*key)[0].tolist() == window_bytes(cache, key)


def test_the_buffer_stays_within_the_high_water_mark():
    cache = make_cache(capacity_bytes=2048, nslots=64, probe_limit=4,
                       eviction_sample=4)
    rng = np.random.default_rng(5)
    table = cache._table
    for step in range(40):
        gets = np.stack([rng.integers(0, 2, 60), rng.integers(0, 200, 60),
                         rng.integers(1, 9, 60)], axis=1)
        if step % 3:
            cache.access_batch(stream=stream_of(gets))
        else:
            for get in gets.tolist():
                cache.access(*get)
        assert len(table.buffer) <= cache.allocator.high_water <= 2048
        if step % 7 == 6:
            cache.flush()
            assert len(table.buffer) == cache.allocator.high_water == 0
    assert cache.stats.evictions > 0 and cache.run_counts["fill_runs"] > 0
    for entry in cache.entries():
        assert entry.data.tolist() == window_bytes(cache, entry.key)
    cache.check_invariants()
