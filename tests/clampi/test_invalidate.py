"""Targeted invalidation on the CLaMPI cache."""

import numpy as np
import pytest

from repro.clampi.cache import ClampiCache, ClampiConfig
from repro.runtime.window import Window
from repro.utils.errors import CacheError


def make_cache(capacity=4096, nslots=64):
    parts = [np.arange(64, dtype=np.int64) + 100 * r for r in range(3)]
    win = Window("w", parts)
    for r in range(3):
        win.lock_all(r)
    cache = ClampiCache(win, 0, ClampiConfig(capacity_bytes=capacity,
                                             nslots=nslots))
    return cache, win


class TestInvalidate:
    def test_drops_exactly_the_named_keys(self):
        cache, _ = make_cache()
        for off in range(0, 16, 4):
            cache.access(1, off, 4)
        assert len(cache) == 4
        dropped, dropped_bytes = cache.invalidate([(1, 0, 4), (1, 8, 4)])
        assert dropped == 2
        assert dropped_bytes == 2 * 4 * 8
        assert len(cache) == 2
        cache.check_invariants()
        # Survivors still hit; dropped keys miss again.
        assert cache.access(1, 4, 4)[2] is True
        assert cache.access(1, 0, 4)[2] is False

    def test_unknown_keys_ignored(self):
        cache, _ = make_cache()
        cache.access(1, 0, 4)
        dropped, dropped_bytes = cache.invalidate([(2, 0, 4), (1, 32, 8)])
        assert dropped == 0 and dropped_bytes == 0
        assert len(cache) == 1

    def test_stats_counters(self):
        cache, _ = make_cache()
        cache.access(1, 0, 4)
        cache.access(1, 8, 4)
        cache.invalidate([(1, 0, 4)])
        assert cache.stats.invalidations == 1
        assert cache.stats.invalidated_bytes == 4 * 8
        snap = cache.stats.snapshot()
        assert snap["invalidations"] == 1
        assert snap["invalidated_bytes"] == 32
        # Invalidation is priced like an eviction, not counted as one.
        assert cache.stats.evictions == 0
        assert cache.stats.mgmt_time > 0

    def test_merge_carries_invalidations(self):
        from repro.clampi.stats import CacheStats

        a, b = CacheStats(invalidations=2, invalidated_bytes=64), CacheStats(
            invalidations=3, invalidated_bytes=32)
        a.merge(b)
        assert a.invalidations == 5
        assert a.invalidated_bytes == 96

    def test_refetch_after_invalidate_sees_new_data(self):
        cache, win = make_cache()
        data, _, _ = cache.access(1, 0, 4)
        np.testing.assert_array_equal(data, [100, 101, 102, 103])
        win.local_part(1)[:4] = [7, 8, 9, 10]
        # Stale until invalidated (always-cache semantics)...
        stale, _, hit = cache.access(1, 0, 4)
        assert hit and stale[0] == 100
        cache.invalidate([(1, 0, 4)])
        fresh, _, hit = cache.access(1, 0, 4)
        assert not hit
        np.testing.assert_array_equal(fresh, [7, 8, 9, 10])

    def test_refetch_is_not_compulsory_miss(self):
        cache, _ = make_cache()
        cache.access(1, 0, 4)
        cache.invalidate([(1, 0, 4)])
        before = cache.stats.compulsory_misses
        cache.access(1, 0, 4)
        assert cache.stats.compulsory_misses == before  # a coherence miss

    def test_rejected_during_batch(self):
        cache, _ = make_cache()
        cache._batch_events = []  # simulate an armed batch replay
        with pytest.raises(CacheError):
            cache.invalidate([(1, 0, 4)])
        cache._batch_events = None

    def test_freed_space_is_reusable(self):
        cache, _ = make_cache(capacity=8 * 8)  # room for one 8-element entry
        cache.access(1, 0, 8)
        assert cache.used_bytes == 64
        cache.invalidate([(1, 0, 8)])
        assert cache.used_bytes == 0
        _, _, hit = cache.access(1, 8, 8)
        assert not hit and len(cache) == 1
        cache.check_invariants()

    def test_batch_replay_after_invalidate_matches_scalar(self):
        """The state-epoch bump must force batch memo revalidation."""
        from repro.clampi.cache import BatchStream

        cache, _ = make_cache()
        targets = np.array([1, 1, 2, 1], dtype=np.int64)
        offsets = np.array([0, 8, 0, 0], dtype=np.int64)
        counts = np.array([4, 4, 4, 4], dtype=np.int64)
        stream = BatchStream(targets, offsets, counts)
        cache.access_batch(stream=stream)
        _, hits_warm = cache.access_batch(stream=stream)
        assert hits_warm.all()
        cache.invalidate([(1, 0, 4)])
        _, hits_post = cache.access_batch(stream=stream)
        assert not hits_post[0]          # first touch refetches
        assert hits_post[1] and hits_post[2] and hits_post[3]


def cache_state(cache):
    return (cache.stats.snapshot(), cache.stats.mgmt_time,
            [(e.key, e.slot) for e in cache.entries()],
            cache.allocator.used_blocks())


class TestKeyColumns:
    """Keys are ``(k, 3)`` integer columns; anything else fails closed."""

    @pytest.mark.parametrize("keys", [
        [(1, 2)],                        # pairs, not triples
        [(1, 0, 4, 0)],
        [1, 0, 4],                       # one bare row
        [[(1, 0, 4)]],                   # one dimension too many
        [(1, 0, 4), (1, 8)],             # ragged
        [(1.0, 0.0, 4.0)],               # not integers
        np.ones((2, 3), dtype=bool),
    ], ids=["pair", "quad", "bare-row", "3d", "ragged", "float", "bool"])
    def test_malformed_keys_raise_before_touching_the_cache(self, keys):
        cache, _ = make_cache()
        for off in (0, 8):
            cache.access(1, off, 4)
        before = cache_state(cache)
        with pytest.raises(CacheError, match=r"\(k, 3\) integer columns"):
            cache.invalidate(keys)
        assert cache_state(cache) == before
        cache.check_invariants()

    @pytest.mark.parametrize("keys", [
        [(1, 0, 4)], np.array([[1, 0, 4]], dtype=np.int32),
        np.array([[1, 0, 4]], dtype=np.uint16)])
    def test_lists_and_integer_arrays_are_columns(self, keys):
        cache, _ = make_cache()
        cache.access(1, 0, 4)
        assert cache.invalidate(keys) == (1, 32)

    @pytest.mark.parametrize("keys", [[], (), np.zeros((0, 3), np.int64)])
    def test_empty_key_sets_drop_nothing(self, keys):
        cache, _ = make_cache()
        cache.access(1, 0, 4)
        before = cache_state(cache)
        assert cache.invalidate(keys) == (0, 0)
        assert cache_state(cache) == before

    def test_repeated_rows_drop_once_in_first_row_order(self):
        cache, _ = make_cache()
        for off in (0, 8, 16):
            cache.access(1, off, 4)
        # The live table swap-pops in row order: (1, 16) then (1, 0).
        keys = [(1, 16, 4), (2, 0, 4), (1, 0, 4), (1, 16, 4), (1, 0, 4)]
        assert cache.invalidate(keys) == (2, 64)
        assert [key for key, *_ in cache._table.meta] == [(1, 8, 4)]
        assert cache.stats.invalidations == 2
        cache.check_invariants()

    def test_join_above_the_crossover_lookups_below(self):
        """Past ``_SMALL_MATCH`` rows no key goes through the hash index."""
        cache, _ = make_cache()
        for off in range(0, 40, 4):
            cache.access(1, off, 4)
        lookups = []
        lookup = cache.index.lookup
        cache.index.lookup = lambda key: lookups.append(key) or lookup(key)
        small = [(1, 0, 4), (1, 4, 4), (1, 0, 4)]
        assert cache.invalidate(small) == (2, 64)
        assert len(lookups) == 2          # distinct rows only
        big = [(1, off, 4) for off in range(8, 8 + 4 * 200, 4)]
        assert len(big) >= ClampiCache._SMALL_MATCH + len(cache) // 8
        assert cache.invalidate(big) == (8, 256)
        assert len(lookups) == 2 and len(cache) == 0
        cache.check_invariants()

    def test_keys_far_outside_the_live_range_are_ignored(self):
        """Rows too far apart to pack with the live keys cannot match."""
        cache, _ = make_cache()
        for off in range(0, 16, 4):
            cache.access(1, off, 4)
        far = [(1, 1 << 62, 4), (1 << 40, 0, 4)] * 60 + [(1, 4, 4)]
        assert cache.invalidate(far) == (1, 32)
        assert sorted(e.key for e in cache.entries()) == [
            (1, 0, 4), (1, 8, 4), (1, 12, 4)]
        cache.check_invariants()
