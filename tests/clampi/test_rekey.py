"""ClampiCache.rekey: remapping shifted-but-unchanged entries."""

import numpy as np
import pytest

from repro.clampi.cache import BatchStream, ClampiCache, ClampiConfig
from repro.runtime.window import Window
from repro.utils.errors import CacheError


def make_cache(capacity=4096, nslots=64, probe_limit=8):
    parts = [np.arange(64, dtype=np.int64) + 100 * r for r in range(3)]
    win = Window("w", parts)
    for r in range(3):
        win.lock_all(r)
    cache = ClampiCache(win, 0, ClampiConfig(capacity_bytes=capacity,
                                             nslots=nslots,
                                             probe_limit=probe_limit))
    return cache, win


class TestRekey:
    def test_entry_moves_and_serves_under_new_key(self):
        cache, win = make_cache()
        data, _, _ = cache.access(1, 0, 4)
        np.testing.assert_array_equal(data, [100, 101, 102, 103])
        # The window content slides right by 2; same bytes at offset 2.
        win.local_part(1)[2:6] = [100, 101, 102, 103]
        moved, moved_bytes = cache.rekey([(1, 0, 4)], [(1, 2, 4)])
        assert moved == 1 and moved_bytes == 32
        fresh, _, hit = cache.access(1, 2, 4)
        assert hit
        np.testing.assert_array_equal(fresh, [100, 101, 102, 103])
        # The old key no longer serves.
        _, _, hit = cache.access(1, 0, 4)
        assert not hit
        cache.check_invariants()

    def test_stats_counters(self):
        cache, _ = make_cache()
        cache.access(1, 0, 4)
        cache.rekey([(1, 0, 4)], [(1, 8, 4)])
        assert cache.stats.rekeys == 1
        assert cache.stats.rekeyed_bytes == 32
        assert cache.stats.invalidations == 0
        assert cache.stats.mgmt_time > 0
        snap = cache.stats.snapshot()
        assert snap["rekeys"] == 1 and snap["rekeyed_bytes"] == 32

    def test_merge_carries_rekeys(self):
        from repro.clampi.stats import CacheStats

        a = CacheStats(rekeys=2, rekeyed_bytes=64)
        a.merge(CacheStats(rekeys=1, rekeyed_bytes=16))
        assert a.rekeys == 3 and a.rekeyed_bytes == 80

    def test_absent_old_key_ignored(self):
        cache, _ = make_cache()
        moved, moved_bytes = cache.rekey([(1, 0, 4)], [(1, 8, 4)])
        assert moved == 0 and moved_bytes == 0
        assert len(cache) == 0

    def test_occupied_new_slot_drops_the_mover(self):
        cache, _ = make_cache()
        cache.access(1, 0, 4)
        cache.access(1, 8, 4)   # occupies the rekey target
        moved, _ = cache.rekey([(1, 0, 4)], [(1, 8, 4)])
        assert moved == 0
        assert cache.stats.invalidations == 1
        assert len(cache) == 1
        cache.check_invariants()

    def test_sliding_chain_does_not_cannibalize(self):
        """A's new key equals B's old key: the two-phase remap must move
        both entries, not drop A as 'occupied' by the not-yet-moved B."""
        cache, win = make_cache()
        a, _, _ = cache.access(1, 0, 4)
        b, _, _ = cache.access(1, 4, 4)
        win.local_part(1)[4:8] = a
        win.local_part(1)[8:12] = b
        moved, _ = cache.rekey([(1, 0, 4), (1, 4, 4)], [(1, 4, 4), (1, 8, 4)])
        assert moved == 2
        got_a, _, hit_a = cache.access(1, 4, 4)
        got_b, _, hit_b = cache.access(1, 8, 4)
        assert hit_a and hit_b
        np.testing.assert_array_equal(got_a, a)
        np.testing.assert_array_equal(got_b, b)
        cache.check_invariants()

    def test_rejected_during_batch(self):
        cache, _ = make_cache()
        cache._batch_events = []
        with pytest.raises(CacheError):
            cache.rekey([(1, 0, 4)], [(1, 8, 4)])
        cache._batch_events = None

    def test_batch_memo_revalidated_after_rekey(self):
        cache, win = make_cache()
        stream_old = BatchStream(np.array([1]), np.array([0]), np.array([4]))
        stream_new = BatchStream(np.array([1]), np.array([2]), np.array([4]))
        cache.access_batch(stream=stream_old)
        _, hits = cache.access_batch(stream=stream_old)
        assert hits.all()
        win.local_part(1)[2:6] = win.local_part(1)[0:4].copy()
        cache.rekey([(1, 0, 4)], [(1, 2, 4)])
        _, hits_old = cache.access_batch(stream=stream_old)
        assert not hits_old[0]          # old key refetches
        _, hits_new = cache.access_batch(stream=stream_new)
        assert hits_new[0]              # new key is warm

    def test_metadata_survives_the_move(self):
        cache, _ = make_cache()
        cache.access(1, 0, 4)
        cache.access(1, 0, 4)
        (before,) = cache.entries()
        cache.rekey([(1, 0, 4)], [(1, 16, 4)])
        (after,) = cache.entries()
        # Same row, block, size, clocks and counts; only the key moved.
        assert (after._replace(key=None, data=None)
                == before._replace(key=None, data=None))
        assert after.key == (1, 16, 4) and after.n_accesses == 2
        assert after.data.tolist() == before.data.tolist()


class TestRekeyColumns:
    """``old`` and ``new`` are equally long ``(k, 3)`` integer columns."""

    @pytest.mark.parametrize("old, new", [
        ([(1, 0, 4)], []),
        ([(1, 0, 4), (1, 4, 4)], [(1, 8, 4)]),
        ([(1, 0)], [(1, 8)]),
        ([(1, 0, 4)], [(1.5, 8, 4)]),
    ], ids=["no-new", "short-new", "pairs", "float"])
    def test_malformed_columns_raise_before_touching_the_cache(self, old, new):
        cache, _ = make_cache()
        cache.access(1, 0, 4)
        before = (cache.stats.snapshot(), cache.stats.mgmt_time,
                  [e.key for e in cache.entries()])
        with pytest.raises(CacheError):
            cache.rekey(old, new)
        assert (cache.stats.snapshot(), cache.stats.mgmt_time,
                [e.key for e in cache.entries()]) == before
        cache.check_invariants()

    def test_unchanged_row_does_not_shadow_a_later_move(self):
        """A row with ``old == new`` is skipped, so a later row for the
        same old key is the one that moves it."""
        cache, _ = make_cache()
        cache.access(1, 0, 4)
        moved, _ = cache.rekey([(1, 0, 4), (1, 0, 4), (1, 0, 4)],
                               [(1, 0, 4), (1, 8, 4), (1, 16, 4)])
        assert moved == 1
        assert [e.key for e in cache.entries()] == [(1, 8, 4)]
        assert cache.stats.mgmt_time == cache.config.lookup_overhead \
            + cache.config.insert_overhead + cache.config.eviction_overhead

    def test_two_rows_one_new_key_keep_the_first(self):
        cache, _ = make_cache()
        cache.access(1, 0, 4)
        cache.access(1, 4, 4)
        moved, _ = cache.rekey([(1, 4, 4), (1, 0, 4)],
                               [(1, 16, 4), (1, 16, 4)])
        assert moved == 1
        assert cache.stats.invalidations == 1
        row = cache.index.lookup((1, 16, 4))
        assert cache.entries()[row].buffer_offset == 32
        cache.check_invariants()
