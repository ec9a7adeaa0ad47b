"""Property-based tests for the CLaMPI cache.

The central safety property: whatever the access stream, geometry and
policy, the cache serves byte-identical data to an uncached window and its
internal structures stay consistent.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clampi.cache import ClampiCache, ClampiConfig
from repro.clampi.scores import AppScorePolicy, DefaultScorePolicy, LRUScorePolicy
from repro.runtime.window import Window
from tests.helpers import apply_cache_maintenance, cache_maintenance_ops

N = 128

accesses = st.lists(
    st.tuples(st.integers(min_value=0, max_value=N - 9),
              st.integers(min_value=1, max_value=8)),
    min_size=1, max_size=120,
)

geometries = st.tuples(
    st.integers(min_value=64, max_value=2048),   # capacity bytes
    st.integers(min_value=2, max_value=64),      # hash slots
)

policies = st.sampled_from(["default", "lru", "degree"])


def make_cache(capacity, nslots, policy_name):
    win = Window("adj", [np.arange(N, dtype=np.int64),
                         np.arange(1000, 1000 + N, dtype=np.int64)])
    win.lock_all(0)
    if policy_name == "degree":
        cfg = ClampiConfig(
            capacity_bytes=capacity, nslots=nslots,
            score_policy=AppScorePolicy(),
            app_score_fn=lambda t, o, c, d: float(c),
        )
    else:
        policy = DefaultScorePolicy() if policy_name == "default" else LRUScorePolicy()
        cfg = ClampiConfig(capacity_bytes=capacity, nslots=nslots,
                           score_policy=policy)
    return ClampiCache(win, 0, cfg), win


@given(accesses, geometries, policies)
@settings(max_examples=120, deadline=None)
def test_cache_transparent_and_consistent(stream, geometry, policy_name):
    capacity, nslots = geometry
    cache, win = make_cache(capacity, nslots, policy_name)
    for offset, count in stream:
        data, duration, hit = cache.access(1, offset, count)
        expected = win.local_part(1)[offset:offset + count]
        np.testing.assert_array_equal(data, expected)
        assert duration > 0
    cache.check_invariants()
    stats = cache.stats
    assert stats.accesses == len(stream)
    assert stats.hits + stats.misses == len(stream)
    assert stats.compulsory_misses <= stats.misses
    distinct = len({(o, c) for o, c in stream})
    assert stats.compulsory_misses <= distinct
    assert cache.used_bytes <= capacity


@given(accesses)
@settings(max_examples=60, deadline=None)
def test_flush_preserves_correctness(stream):
    cache, win = make_cache(1024, 16, "default")
    for i, (offset, count) in enumerate(stream):
        if i % 7 == 3:
            cache.flush()
        data, _, _ = cache.access(1, offset, count)
        np.testing.assert_array_equal(
            data, win.local_part(1)[offset:offset + count])
    cache.check_invariants()


@given(accesses, st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_repeated_streams_eventually_hit(stream, repeats):
    # A cache big enough for everything must hit on every repeat pass.
    cache, _ = make_cache(1 << 16, 4096, "default")
    for offset, count in stream:
        cache.access(1, offset, count)
    misses_after_first = cache.stats.misses
    for _ in range(repeats):
        for offset, count in stream:
            _, _, hit = cache.access(1, offset, count)
            assert hit
    assert cache.stats.misses == misses_after_first


maintenance_ops = st.lists(
    st.one_of(
        st.tuples(st.just("access"), st.integers(0, N - 9), st.integers(1, 8)),
        cache_maintenance_ops(64, 64, 2048),
    ),
    min_size=1, max_size=80,
)


@given(maintenance_ops, geometries, policies)
@settings(max_examples=120, deadline=None)
def test_invariants_hold_after_every_op(operations, geometry, policy_name):
    capacity, nslots = geometry
    cache, _ = make_cache(capacity, nslots, policy_name)
    accesses_done = 0
    for op, a, b in operations:
        if op == "access":
            cache.access(1, a, b)
            accesses_done += 1
        else:
            apply_cache_maintenance(cache, op, a, b)
        cache.check_invariants()
        assert cache.used_bytes <= cache.config.capacity_bytes
        assert len(cache) <= cache.config.nslots
    assert cache.stats.hits + cache.stats.misses == accesses_done
