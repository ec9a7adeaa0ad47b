"""Property-based equivalence of ``access_batch`` and scalar ``access``.

Twin caches (identical config, seed and window) are driven with the same
random access stream — one through :meth:`ClampiCache.access_batch` in
chunks, the other one access at a time.  Whatever the geometry, policy and
stream, they must agree on every hit/miss verdict, every duration, the
accumulated timing, the statistics, and both must pass
``check_invariants()`` at every chunk boundary.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clampi.cache import BatchStream, ClampiCache, ClampiConfig
from repro.clampi.scores import AppScorePolicy, DefaultScorePolicy, LRUScorePolicy
from repro.runtime.network import MemoryModel
from repro.runtime.window import Window
from tests.helpers import (
    apply_cache_maintenance,
    assert_caches_identical,
    cache_maintenance_ops,
)

N = 96

accesses = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1),       # target rank
              st.integers(min_value=0, max_value=N - 9),   # offset
              st.integers(min_value=1, max_value=8)),      # count
    min_size=1, max_size=150,
)

geometries = st.tuples(
    st.integers(min_value=48, max_value=1024),   # capacity bytes (tight)
    st.integers(min_value=2, max_value=48),      # hash slots
)

policies = st.sampled_from(["default", "lru", "degree"])

chunk_sizes = st.integers(min_value=1, max_value=40)


def make_window() -> Window:
    return Window("adj", [np.arange(N, dtype=np.int64),
                          np.arange(5000, 5000 + N, dtype=np.int64)])


def make_cache(window: Window, capacity: int, nslots: int,
               policy_name: str) -> ClampiCache:
    if policy_name == "degree":
        cfg = ClampiConfig(capacity_bytes=capacity, nslots=nslots,
                           score_policy=AppScorePolicy(),
                           app_score_fn=lambda t, o, c, d: float(c))
    else:
        policy = (DefaultScorePolicy() if policy_name == "default"
                  else LRUScorePolicy())
        cfg = ClampiConfig(capacity_bytes=capacity, nslots=nslots,
                           score_policy=policy)
    return ClampiCache(window, 0, cfg)


@given(accesses, geometries, policies, chunk_sizes)
@settings(max_examples=100, deadline=None)
def test_batch_equals_scalar(stream, geometry, policy, chunk):
    capacity, nslots = geometry
    window = make_window()
    window.lock_all(0)
    batched = make_cache(window, capacity, nslots, policy)
    scalar = make_cache(window, capacity, nslots, policy)

    keys = np.array(stream, dtype=np.int64)
    for lo in range(0, keys.shape[0], chunk):
        part = keys[lo:lo + chunk]
        durations, hits = batched.access_batch(part[:, 0], part[:, 1],
                                               part[:, 2])
        for i, (t, o, c) in enumerate(part):
            _, dt, hit = scalar.access(int(t), int(o), int(c))
            assert hit == bool(hits[i]), (lo + i, (t, o, c))
            assert dt == durations[i], (lo + i, (t, o, c))
        # Timing sums and statistics agree at every chunk boundary...
        assert batched.stats.mgmt_time == scalar.stats.mgmt_time
        assert batched.stats.snapshot() == scalar.stats.snapshot()
        assert len(batched) == len(scalar)
        assert batched.used_bytes == scalar.used_bytes
        # ...and both caches stay internally consistent.
        batched.check_invariants()
        scalar.check_invariants()

    # Entry metadata (drives future evictions) must have tracked too.
    scalar_entries = {entry.key: entry for entry in scalar.entries()}
    for be in batched.entries():
        se = scalar_entries.get(be.key)
        assert se is not None, be.key
        assert be.last_access == se.last_access
        assert be.n_accesses == se.n_accesses


@given(accesses, geometries, policies)
@settings(max_examples=40, deadline=None)
def test_prebuilt_stream_replay(stream, geometry, policy):
    """A shared BatchStream replayed twice matches two scalar passes."""
    capacity, nslots = geometry
    window = make_window()
    window.lock_all(0)
    batched = make_cache(window, capacity, nslots, policy)
    scalar = make_cache(window, capacity, nslots, policy)

    keys = np.array(stream, dtype=np.int64)
    prepared = BatchStream(keys[:, 0], keys[:, 1], keys[:, 2])
    for _ in range(2):  # second pass reuses the cache's per-stream memo
        durations, hits = batched.access_batch(stream=prepared)
        for i, (t, o, c) in enumerate(keys):
            _, dt, hit = scalar.access(int(t), int(o), int(c))
            assert hit == bool(hits[i])
            assert dt == durations[i]
        assert batched.stats.snapshot() == scalar.stats.snapshot()
        batched.check_invariants()


def test_batch_rejects_bad_shapes():
    import pytest

    from repro.utils.errors import CacheError

    window = make_window()
    window.lock_all(0)
    cache = make_cache(window, 256, 8, "default")
    with pytest.raises(CacheError):
        cache.access_batch(np.zeros(3, dtype=np.int64),
                           np.zeros(2, dtype=np.int64),
                           np.zeros(3, dtype=np.int64))


def test_empty_batch():
    window = make_window()
    window.lock_all(0)
    cache = make_cache(window, 256, 8, "default")
    durations, hits = cache.access_batch(np.zeros(0, dtype=np.int64),
                                         np.zeros(0, dtype=np.int64),
                                         np.zeros(0, dtype=np.int64))
    assert durations.shape == hits.shape == (0,)
    assert cache.stats.accesses == 0


@given(accesses, geometries, policies, chunk_sizes,
       st.lists(cache_maintenance_ops(48, 48, 1024), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_batch_equals_scalar_across_maintenance(stream, geometry, policy,
                                                chunk, upkeep):
    """invalidate/rekey/flush/resize between chunks keep the twins in step."""
    capacity, nslots = geometry
    window = make_window()
    window.lock_all(0)
    batched = make_cache(window, capacity, nslots, policy)
    scalar = make_cache(window, capacity, nslots, policy)

    keys = np.array(stream, dtype=np.int64)
    for n_chunk, lo in enumerate(range(0, keys.shape[0], chunk)):
        part = keys[lo:lo + chunk]
        durations, hits = batched.access_batch(part[:, 0], part[:, 1],
                                               part[:, 2])
        for i, (t, o, c) in enumerate(part):
            _, dt, hit = scalar.access(int(t), int(o), int(c))
            assert hit == bool(hits[i])
            assert dt == durations[i]
        op, a, b = upkeep[n_chunk % len(upkeep)]
        for cache in (batched, scalar):
            apply_cache_maintenance(cache, op, a, b)
            cache.check_invariants()
        assert batched.stats.snapshot() == scalar.stats.snapshot()
        assert (sorted(e.key for e in batched.entries())
                == sorted(e.key for e in scalar.entries()))


@given(accesses, geometries, policies, st.integers(min_value=2, max_value=4))
@settings(max_examples=40, deadline=None)
def test_shared_stream_reprices_per_cost_model(stream, geometry, policy,
                                                passes):
    """One stream, alternately through two caches under different cost models.

    The caches differ in ``MemoryModel``, ``lookup_overhead`` and window
    itemsize, so each pass finds the stream's hit costs priced for the
    other one; each must still match its own per-element scalar twin.
    """
    capacity, nslots = geometry
    narrow = Window("adj", [np.arange(N, dtype=np.int32),
                            np.arange(5000, 5000 + N, dtype=np.int32)])
    models = [(make_window(), MemoryModel(), None),
              (narrow, MemoryModel(cache_hit_latency=7e-9,
                                   cache_bandwidth=3e9), 90e-9)]
    twins = []
    for window, memory, lookup in models:
        window.lock_all(0)
        pair = [make_cache(window, capacity, nslots, policy) for _ in "ab"]
        for cache in pair:
            cache.memory = memory
            if lookup is not None:
                cache.config.lookup_overhead = lookup
        twins.append(pair)

    keys = np.array(stream, dtype=np.int64)
    shared = BatchStream(keys[:, 0], keys[:, 1], keys[:, 2])
    for n in range(passes):
        batched, scalar = twins[n % 2]
        durations, hits = batched.access_batch(stream=shared)
        for i, (t, o, c) in enumerate(keys):
            _, dt, hit = scalar.access(int(t), int(o), int(c))
            assert hit == bool(hits[i])
            assert dt == durations[i]
        assert_caches_identical(batched, scalar)
