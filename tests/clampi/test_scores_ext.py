"""Tests for the extended eviction-score policies."""

import numpy as np
import pytest

from repro.clampi.allocator import BufferAllocator
from repro.clampi.cache import CacheEntry, ClampiCache, ClampiConfig
from repro.clampi.scores_ext import (
    EXTENDED_POLICIES,
    CostAwareScorePolicy,
    DensityScorePolicy,
    HybridDegreeLRUPolicy,
    LFUScorePolicy,
)
from repro.runtime.window import Window


def entry(key, nbytes, offset, clock, n_accesses=1, app_score=None):
    return CacheEntry(key, np.zeros(max(1, nbytes // 8), dtype=np.int64),
                      offset, nbytes, clock, app_score, n_accesses)


@pytest.fixture
def alloc():
    a = BufferAllocator(10_000)
    return a


class TestLFU:
    def test_frequency_ordering(self, alloc):
        o1, o2 = alloc.alloc(100), alloc.alloc(100)
        pol = LFUScorePolicy()
        cold = entry("a", 100, o1, clock=90, n_accesses=1)
        hot = entry("b", 100, o2, clock=10, n_accesses=50)
        assert pol.victim_score(cold, alloc, 100) < pol.victim_score(hot, alloc, 100)


class TestCostAware:
    def test_size_scales_value(self, alloc):
        o1, o2 = alloc.alloc(100), alloc.alloc(1000)
        pol = CostAwareScorePolicy()
        small = entry("a", 100, o1, clock=50, n_accesses=3)
        big = entry("b", 1000, o2, clock=50, n_accesses=3)
        assert pol.victim_score(small, alloc, 100) < pol.victim_score(big, alloc, 100)


class TestDensity:
    def test_density_prefers_small_hot(self, alloc):
        o1, o2 = alloc.alloc(100), alloc.alloc(1000)
        pol = DensityScorePolicy()
        small_hot = entry("a", 100, o1, clock=50, n_accesses=5)
        big_warm = entry("b", 1000, o2, clock=50, n_accesses=6)
        assert (pol.victim_score(big_warm, alloc, 100)
                < pol.victim_score(small_hot, alloc, 100))


class TestHybridDegreeLRU:
    def test_degree_dominates_at_high_weight(self, alloc):
        o1, o2 = alloc.alloc(100), alloc.alloc(100)
        pol = HybridDegreeLRUPolicy(weight=0.9)
        hub = entry("hub", 100, o1, clock=5, app_score=800.0)
        leaf = entry("leaf", 100, o2, clock=95, app_score=2.0)
        assert pol.victim_score(leaf, alloc, 100) < pol.victim_score(hub, alloc, 100)

    def test_recency_dominates_at_low_weight(self, alloc):
        o1, o2 = alloc.alloc(100), alloc.alloc(100)
        pol = HybridDegreeLRUPolicy(weight=0.05)
        hub_stale = entry("hub", 100, o1, clock=5, app_score=800.0)
        leaf_fresh = entry("leaf", 100, o2, clock=95, app_score=2.0)
        assert (pol.victim_score(hub_stale, alloc, 100)
                < pol.victim_score(leaf_fresh, alloc, 100))

    def test_uses_app_score(self):
        assert HybridDegreeLRUPolicy().uses_app_score

    def test_validation(self):
        with pytest.raises(ValueError):
            HybridDegreeLRUPolicy(weight=1.5)
        with pytest.raises(ValueError):
            HybridDegreeLRUPolicy(degree_norm=0)


class TestPoliciesInCache:
    @pytest.mark.parametrize("name", sorted(EXTENDED_POLICIES))
    def test_policy_runs_in_cache(self, name):
        win = Window("adj", [np.arange(256, dtype=np.int64)] * 2)
        win.lock_all(0)
        policy_cls = EXTENDED_POLICIES[name]
        policy = policy_cls()
        kwargs = dict(capacity_bytes=512, nslots=64, score_policy=policy)
        if policy.uses_app_score:
            kwargs["app_score_fn"] = lambda t, o, c, d: float(c)
        cache = ClampiCache(win, 0, ClampiConfig(**kwargs))
        rng = np.random.default_rng(0)
        for _ in range(300):
            off = int(rng.integers(0, 200))
            data, _, _ = cache.access(1, off, 4)
            np.testing.assert_array_equal(data,
                                          win.local_part(1)[off:off + 4])
        cache.check_invariants()
