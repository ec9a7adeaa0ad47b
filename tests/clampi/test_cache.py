"""Tests for the CLaMPI cache proper."""

import numpy as np
import pytest

from repro.clampi.cache import ClampiCache, ClampiConfig, ConsistencyMode
from repro.clampi.scores import AppScorePolicy, LRUScorePolicy
from repro.runtime.window import Window
from repro.utils.errors import CacheError, EpochError, WindowError


def make_window(n=256):
    return Window("adj", [np.arange(n, dtype=np.int64),
                          np.arange(1000, 1000 + n, dtype=np.int64)])


def make_cache(capacity=4096, nslots=64, window=None, **kw):
    win = window or make_window()
    win.lock_all(0)
    cfg = ClampiConfig(capacity_bytes=capacity, nslots=nslots, **kw)
    return ClampiCache(win, 0, cfg), win


class TestHitMiss:
    def test_first_access_is_compulsory_miss(self):
        cache, _ = make_cache()
        data, dt, hit = cache.access(1, 0, 4)
        np.testing.assert_array_equal(data, [1000, 1001, 1002, 1003])
        assert not hit
        assert cache.stats.misses == 1
        assert cache.stats.compulsory_misses == 1

    def test_repeat_access_hits(self):
        cache, _ = make_cache()
        cache.access(1, 0, 4)
        data, dt_hit, hit = cache.access(1, 0, 4)
        assert hit
        np.testing.assert_array_equal(data, [1000, 1001, 1002, 1003])
        assert cache.stats.hits == 1

    def test_hit_is_much_cheaper_than_miss(self):
        cache, _ = make_cache()
        _, dt_miss, _ = cache.access(1, 0, 16)
        _, dt_hit, _ = cache.access(1, 0, 16)
        assert dt_hit * 10 < dt_miss

    def test_exact_match_semantics(self):
        # A different (offset, count) is a different entry, as in CLaMPI.
        cache, _ = make_cache()
        cache.access(1, 0, 8)
        _, _, hit = cache.access(1, 0, 4)
        assert not hit

    def test_served_data_identical_to_window(self):
        cache, win = make_cache()
        for _ in range(3):
            data, _, _ = cache.access(1, 5, 7)
            np.testing.assert_array_equal(data, win.local_part(1)[5:12])

    def test_hit_returns_a_copy_the_caller_may_keep(self):
        # A view of the payload buffer could be overwritten by the next
        # insert; the caller's array must never change under it.
        cache, _ = make_cache(capacity=64, nslots=64, eviction_sample=1000)
        cache.access(1, 0, 8)
        kept, _, hit = cache.access(1, 0, 8)
        assert hit
        cache.access(1, 8, 8)          # evicts (1, 0, 8), reuses its bytes
        assert kept.tolist() == list(range(1000, 1008))

    def test_miss_after_flush_not_compulsory(self):
        cache, _ = make_cache()
        cache.access(1, 0, 4)
        cache.flush()
        _, _, hit = cache.access(1, 0, 4)
        assert not hit
        assert cache.stats.misses == 2
        assert cache.stats.compulsory_misses == 1


class TestRefusedGet:
    """A get the window refuses is not a miss: nothing is counted."""

    @staticmethod
    def state(cache):
        return (cache.stats.snapshot(), cache.stats.compulsory_misses,
                cache.stats.mgmt_time, cache._clock, set(cache._seen),
                len(cache), cache.used_bytes)

    @pytest.mark.parametrize("refused, error", [
        ((1, 250, 10), WindowError),       # past the region's end
        ((7, 0, 1), WindowError),          # no such rank
        ((1, 0, 4), EpochError),           # epoch closed below
    ])
    def test_refused_get_leaves_every_counter(self, refused, error):
        cache, win = make_cache()
        cache.access(1, 8, 4)
        cache.access(1, 8, 4)
        before = self.state(cache)
        if error is EpochError:
            win.unlock_all(0)
        with pytest.raises(error):
            cache.access(*refused)
        assert self.state(cache) == before
        cache.check_invariants()

    def test_a_later_valid_get_is_still_compulsory(self):
        cache, win = make_cache()
        win.unlock_all(0)
        for _ in range(2):
            with pytest.raises(EpochError):
                cache.access(1, 0, 4)
        win.lock_all(0)
        cache.access(1, 0, 4)
        assert cache.stats.misses == cache.stats.compulsory_misses == 1


class TestEviction:
    def test_capacity_eviction_under_pressure(self):
        # 8-byte items; capacity 10 entries of 4 elements = 32B each.
        cache, _ = make_cache(capacity=320, nslots=256)
        for off in range(0, 80, 4):
            cache.access(1, off, 4)
        assert cache.stats.capacity_evictions > 0
        cache.check_invariants()
        assert cache.used_bytes <= 320

    def test_lru_evicts_oldest(self):
        cache, _ = make_cache(capacity=64, nslots=64,
                              score_policy=LRUScorePolicy(),
                              eviction_sample=1000)
        cache.access(1, 0, 4)    # 32 B
        cache.access(1, 4, 4)    # 32 B -> full
        cache.access(1, 0, 4)    # refresh entry 0
        cache.access(1, 8, 4)    # must evict offset-4 entry (older)
        _, _, hit0 = cache.access(1, 0, 4)
        assert hit0
        _, _, hit4 = cache.access(1, 4, 4)
        assert not hit4

    def test_oversized_entry_not_cached(self):
        cache, _ = make_cache(capacity=16)
        cache.access(1, 0, 100)  # 800 B > 16 B capacity
        assert cache.stats.insert_failures == 1
        assert len(cache) == 0

    def test_app_score_protects_high_degree(self):
        # Low-score newcomers must not evict a high-score resident.
        win = make_window(512)
        win.lock_all(0)
        cfg = ClampiConfig(
            capacity_bytes=400, nslots=256,
            score_policy=AppScorePolicy(),
            app_score_fn=lambda t, o, c, d: float(c),  # score = entry length
            eviction_sample=1000,
        )
        cache = ClampiCache(win, 0, cfg)
        cache.access(1, 0, 40)   # 320 B, score 40 -> resident hero
        for off in range(40, 80, 2):
            cache.access(1, off, 2)   # small, low-score entries
        _, _, hit = cache.access(1, 0, 40)
        assert hit, "high-score entry was evicted by low-score newcomers"
        # Pressure was real: the low-score entries churned among themselves.
        assert cache.stats.capacity_evictions > 0
        for e in cache.entries():
            assert e.key == (1, 0, 40) or e.nbytes == 16

    def test_default_policy_allows_eviction(self):
        cache, _ = make_cache(capacity=64, nslots=256, eviction_sample=1000)
        cache.access(1, 0, 8)   # fills cache (64 B)
        cache.access(1, 8, 8)   # must evict
        assert cache.stats.capacity_evictions == 1


class TestModes:
    def test_transparent_flushes_on_epoch_close(self):
        cache, _ = make_cache(mode=ConsistencyMode.TRANSPARENT)
        cache.access(1, 0, 4)
        cache.on_epoch_close()
        assert len(cache) == 0
        assert cache.stats.flushes == 1

    def test_always_cache_survives_epoch_close(self):
        cache, _ = make_cache(mode=ConsistencyMode.ALWAYS_CACHE)
        cache.access(1, 0, 4)
        cache.on_epoch_close()
        assert len(cache) == 1

    def test_user_defined_flushes_only_manually(self):
        cache, _ = make_cache(mode=ConsistencyMode.USER_DEFINED)
        cache.access(1, 0, 4)
        cache.on_epoch_close()
        assert len(cache) == 1
        cache.flush()
        assert len(cache) == 0


class TestConfigValidation:
    def test_bad_capacity(self):
        with pytest.raises(CacheError):
            ClampiConfig(capacity_bytes=0)

    def test_bad_nslots(self):
        with pytest.raises(CacheError):
            ClampiConfig(capacity_bytes=10, nslots=0)

    def test_app_policy_requires_score_fn(self):
        with pytest.raises(CacheError):
            ClampiConfig(capacity_bytes=10, score_policy=AppScorePolicy())

    @pytest.mark.parametrize("field, value", [
        ("lookup_overhead", -1e-6),
        ("insert_overhead", -1e-9),
        ("eviction_overhead", -1.0),
        ("eviction_overhead", float("nan")),
        ("max_evictions_per_insert", -3),
        ("probe_limit", 0),
        ("probe_limit", -2),
    ])
    def test_negative_charges_and_limits_fail_closed(self, field, value):
        # A negative overhead would price a get below zero.
        with pytest.raises(CacheError, match=field):
            ClampiConfig(capacity_bytes=10, **{field: value})

    @pytest.mark.parametrize("field", ["capacity_bytes", "nslots",
                                       "probe_limit", "eviction_sample",
                                       "max_evictions_per_insert"])
    @pytest.mark.parametrize("value", [float("nan"), 4096.5, float("inf"),
                                       "64"])
    def test_geometry_must_be_integral(self, field, value):
        # 4096.5 would be truncated by the allocator but kept by the
        # config; NaN used to fail later, in int(), with a bare ValueError.
        kw = {"capacity_bytes": 4096, field: value}
        with pytest.raises(CacheError, match=field):
            ClampiConfig(**kw)

    def test_numpy_and_integral_values_become_ints(self):
        cfg = ClampiConfig(capacity_bytes=np.int64(4096), nslots=np.int32(64),
                           probe_limit=4.0)
        assert (cfg.capacity_bytes, cfg.nslots, cfg.probe_limit) == (4096, 64, 4)
        assert all(type(v) is int for v in
                   (cfg.capacity_bytes, cfg.nslots, cfg.probe_limit))

    def test_zero_charges_and_eviction_limit_allowed(self):
        cfg = ClampiConfig(capacity_bytes=10, lookup_overhead=0.0,
                           insert_overhead=0.0, eviction_overhead=0.0,
                           max_evictions_per_insert=0, probe_limit=1)
        assert cfg.max_evictions_per_insert == 0


class TestResize:
    def test_resize_flushes(self):
        cache, _ = make_cache()
        cache.access(1, 0, 4)
        cache.resize(nslots=128)
        assert len(cache) == 0
        assert cache.stats.adaptive_resizes == 1
        assert cache.config.nslots == 128
        # Still works after resize.
        _, _, hit = cache.access(1, 0, 4)
        assert not hit
        _, _, hit = cache.access(1, 0, 4)
        assert hit

    @pytest.mark.parametrize("kw", [
        {"nslots": 8, "capacity_bytes": 0},
        {"nslots": 0, "capacity_bytes": 2048},
        {"nslots": 8, "capacity_bytes": 4096.5},
        {"nslots": float("nan")},
        {"capacity_bytes": float("nan")},
    ])
    def test_refused_resize_changes_nothing(self, kw):
        cache, _ = make_cache()
        for off in range(0, 40, 4):
            cache.access(1, off, 4)
        before = (cache.config.nslots, cache.config.capacity_bytes,
                  cache.index.nslots, cache.allocator.capacity,
                  cache.stats.snapshot(), cache.entries())
        with pytest.raises(CacheError):
            cache.resize(**kw)
        after = (cache.config.nslots, cache.config.capacity_bytes,
                 cache.index.nslots, cache.allocator.capacity,
                 cache.stats.snapshot(), cache.entries())
        assert [repr(x) for x in after] == [repr(x) for x in before]
        cache.flush()
        assert cache.index.nslots == 64     # the geometry did not switch

    def test_invariants_after_heavy_use(self):
        rng = np.random.default_rng(3)
        cache, _ = make_cache(capacity=512, nslots=16)
        for _ in range(500):
            off = int(rng.integers(0, 60))
            cnt = int(rng.integers(1, 12))
            cache.access(1, min(off, 255 - cnt), cnt)
        cache.check_invariants()


class TestEvictionDeterminism:
    """Victim sampling must be reproducible across process runs.

    Each cache derives a private ``random.Random`` stream from its config
    seed and rank through :func:`repro.utils.rng.derive_seed`; identical
    configs therefore evict identically, run after run, machine after
    machine (Python pins the Mersenne Twister across versions).
    """

    def _drive(self, cache):
        rng = np.random.default_rng(9)
        for _ in range(400):
            off = int(rng.integers(0, 200))
            cnt = int(rng.integers(1, 10))
            cache.access(1, min(off, 255 - cnt), cnt)

    def test_identical_configs_evict_identically(self):
        a, _ = make_cache(capacity=512, nslots=16)
        b, _ = make_cache(capacity=512, nslots=16)
        self._drive(a)
        self._drive(b)
        assert a.stats.snapshot() == b.stats.snapshot()
        assert sorted(a._table.meta) == sorted(b._table.meta)

    def test_seed_changes_the_sampling_stream(self):
        a, _ = make_cache(capacity=512, nslots=16, seed=1)
        b, _ = make_cache(capacity=512, nslots=16, seed=2)
        assert [a._rng.randrange(1000) for _ in range(8)] != \
            [b._rng.randrange(1000) for _ in range(8)]

    def test_sampling_stream_pinned_across_process_runs(self):
        # Hard-coded expectations: a change to the seed derivation or to
        # the per-instance RNG would silently change every cached
        # experiment, so the exact stream is pinned here.
        from repro.utils.rng import derive_seed

        assert derive_seed(0x5EED, "clampi-evict", 0) == 5924032174864516661
        assert derive_seed(0x5EED, "clampi-evict", 3) == 5924028876329632028
        cache, _ = make_cache()
        assert [cache._rng.randrange(1000) for _ in range(6)] == \
            [535, 263, 983, 884, 258, 755]

    def test_ranks_get_distinct_streams(self):
        win = make_window()
        win.lock_all(0)
        win.lock_all(1)
        cfg = ClampiConfig(capacity_bytes=4096, nslots=64)
        r0 = ClampiCache(win, 0, cfg)
        r1 = ClampiCache(win, 1, cfg)
        assert [r0._rng.randrange(1000) for _ in range(8)] != \
            [r1._rng.randrange(1000) for _ in range(8)]


class TestCheckInvariants:
    """``check_invariants`` notices each way the live table can drift."""

    def warm(self):
        cache, _ = make_cache(capacity=512, nslots=8, probe_limit=4)
        for i in range(60):
            cache.access(1, (i * 5) % 40, 1 + i % 6)
        assert len(cache) >= 3 and cache.stats.evictions > 0
        cache.check_invariants()
        return cache

    def test_mirror_row_out_of_step(self):
        # The key mirror is indexed by each entry's row.
        cache = self.warm()
        cache._table.mirror[3 * 1 + 1] += 1
        with pytest.raises(AssertionError, match="mirror"):
            cache.check_invariants()

    def test_key_not_indexed_under_its_row(self):
        # Rows swapped in every column but the index's values.
        cache = self.warm()
        table = cache._table
        for col in (table.meta, table.n_accesses, table.last_access):
            col[0], col[1] = col[1], col[0]
        table.mirror[:6] = table.mirror[3:6] + table.mirror[:3]
        with pytest.raises(AssertionError, match="not indexed under its row"):
            cache.check_invariants()

    def test_hit_metadata_out_of_range(self):
        cache = self.warm()
        cache._table.n_accesses[0] = 0
        with pytest.raises(AssertionError, match="no access"):
            cache.check_invariants()
        cache = self.warm()
        cache._table.last_access[len(cache) - 1] = cache._clock + 1
        with pytest.raises(AssertionError, match="future"):
            cache.check_invariants()

    def test_entry_key_mismatch(self):
        cache = self.warm()
        (target, offset, count), *rest = cache._table.meta[0]
        cache._table.meta[0] = ((target, offset + 1000, count), *rest)
        with pytest.raises(AssertionError):
            cache.check_invariants()

    def test_entry_size_differs_from_its_block(self):
        cache = self.warm()
        key, offset, nbytes, app_score = cache._table.meta[0]
        cache._table.meta[0] = (key, offset, nbytes + 8, app_score)
        with pytest.raises(AssertionError, match="blocks"):
            cache.check_invariants()

    def test_two_entries_share_a_block(self):
        # Row 1 points at row 0's block: every entry's block is still one
        # of the allocator's, and the allocator counts one block per entry.
        cache = self.warm()
        table = cache._table
        _, offset, nbytes, _ = table.meta[0]
        key, _, _, app_score = table.meta[1]
        table.meta[1] = (key, offset, nbytes, app_score)
        with pytest.raises(AssertionError, match="share a buffer block"):
            cache.check_invariants()

    def test_buffer_past_the_high_water_mark(self):
        cache = self.warm()
        cache._table.buffer += bytes(8)
        with pytest.raises(AssertionError, match="high-water"):
            cache.check_invariants()

    def test_payload_past_the_buffer_end(self):
        cache = self.warm()
        end = max(offset + nbytes
                  for _, offset, nbytes, _ in cache._table.meta)
        del cache._table.buffer[end - 1:]
        with pytest.raises(AssertionError, match="buffer's end"):
            cache.check_invariants()

    def test_hole_between_a_key_and_its_home(self):
        cache = self.warm()
        slots = cache.index._slots
        displaced = [i for i, s in enumerate(slots)
                     if s is not None and s[2] != i]
        assert displaced, "8 slots under pressure always leave a displaced key"
        home = slots[displaced[0]][2]
        slots[home] = None
        with pytest.raises(AssertionError):
            cache.check_invariants()
