"""Tests for the adaptive tuner."""

import numpy as np
import pytest

from repro.clampi.adaptive import AdaptiveConfig
from repro.clampi.cache import ClampiCache, ClampiConfig
from repro.runtime.window import Window


def make_cached_window(n=4096, **adaptive_kw):
    win = Window("adj", [np.arange(n, dtype=np.int64),
                         np.arange(n, dtype=np.int64)])
    win.lock_all(0)
    cfg = ClampiConfig(
        capacity_bytes=1 << 16,
        nslots=8,
        adaptive=AdaptiveConfig(**adaptive_kw),
    )
    return ClampiCache(win, 0, cfg), win


class TestAdaptiveConfig:
    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(check_interval=0)

    def test_bad_growth_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(hash_growth=1.0)

    @pytest.mark.parametrize("cost", [-1.0, float("nan")])
    def test_negative_or_nan_resize_cost_rejected(self, cost):
        with pytest.raises(ValueError, match="resize_cost"):
            AdaptiveConfig(resize_cost=cost)


class TestHashGrowth:
    def test_conflicts_trigger_hash_resize(self):
        cache, _ = make_cached_window(check_interval=64,
                                      conflict_threshold=0.01)
        start_slots = cache.config.nslots
        # 8 slots + many distinct keys -> constant probe-window conflicts.
        for off in range(0, 600):
            cache.access(1, off, 1)
        assert cache.config.nslots > start_slots
        assert cache.stats.adaptive_resizes >= 1

    def test_resize_respects_max(self):
        cache, _ = make_cached_window(check_interval=32,
                                      conflict_threshold=0.01,
                                      max_nslots=16)
        for off in range(0, 900):
            cache.access(1, off, 1)
        assert cache.config.nslots <= 16

    def test_max_resizes_bounds_churn(self):
        cache, _ = make_cached_window(check_interval=32,
                                      conflict_threshold=0.0001,
                                      max_resizes=2)
        for off in range(0, 1200):
            cache.access(1, off, 1)
        assert cache.stats.adaptive_resizes <= 2


class TestBufferGrowth:
    def test_evictions_trigger_buffer_growth(self):
        win = Window("adj", [np.arange(8192, dtype=np.int64)] * 2)
        win.lock_all(0)
        cfg = ClampiConfig(
            capacity_bytes=256,  # tiny: constant capacity evictions
            nslots=1 << 14,
            adaptive=AdaptiveConfig(
                check_interval=64,
                conflict_threshold=2.0,    # never grow the hash table
                eviction_threshold=0.05,
                min_miss_rate=0.05,
                max_capacity_bytes=1 << 14,
            ),
        )
        cache = ClampiCache(win, 0, cfg)
        rng = np.random.default_rng(0)
        for _ in range(800):
            off = int(rng.integers(0, 512))
            cache.access(1, off, 4)
        assert cache.config.capacity_bytes > 256

    def test_no_growth_without_max_capacity(self):
        cache, _ = make_cached_window(check_interval=64,
                                      conflict_threshold=2.0,
                                      eviction_threshold=0.0001)
        for off in range(0, 500):
            cache.access(1, off, 1)
        assert cache.config.capacity_bytes == 1 << 16


class TestObserveTiming:
    def test_resize_charges_time(self):
        cache, _ = make_cached_window(check_interval=16,
                                      conflict_threshold=0.01)
        charged = 0.0
        for off in range(0, 200):
            _, dt, _ = cache.access(1, off, 1)
            charged += dt
        # At least one resize cost must be embedded in the charged time.
        assert cache.stats.adaptive_resizes >= 1
        assert charged > cache.stats.adaptive_resizes * 1e-9
