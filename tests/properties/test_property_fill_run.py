"""Property-based equivalence of ``access_batch``'s *fill runs* and ``access``.

The scalar cache is the oracle.  Twin caches as in
``test_property_batched_cache.py``, but with streams long and capacities
large enough that fill runs actually form (``_MIN_FILL_RUN`` accesses on a
cache whose free list is one extent), and drawn so that every way a run
can end occurs: the extent overflowing, a zero-count or oversize get, a
hash conflict (tiny ``nslots``), the end of the stream.  Between chunks
the twins are flushed (``TRANSPARENT`` epoch closure), emptied by
``invalidate`` (free slots get reused) or thinned, so runs also start on
used caches and hit resident entries.  At every chunk boundary the twins
must be indistinguishable, down to the allocator's free list and the
victim sampler's RNG state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clampi.cache import (BatchStream, ClampiCache, ClampiConfig,
                                ConsistencyMode)
from repro.clampi.scores import AppScorePolicy, DefaultScorePolicy, LRUScorePolicy
from repro.runtime.window import Window
from tests.helpers import assert_caches_identical

N = 400
MIN_RUN = ClampiCache._MIN_FILL_RUN

#: Mostly small gets from a narrow offset range (repeats, hence hits inside
#: a run), some zero-count ones and some larger than the smaller capacities.
gets = st.tuples(
    st.integers(0, 1),
    st.integers(0, 60),
    st.one_of(st.integers(1, 6), st.integers(1, 6), st.integers(0, 12),
              st.sampled_from([70, 130, 300])),
)
streams = st.lists(gets, min_size=3 * MIN_RUN, max_size=320)
capacities = st.sampled_from([512, 1024, 4096, 1 << 16])
nslot_counts = st.sampled_from([3, 16, 64, 1024])
policies = st.sampled_from(["default", "lru", "degree"])
chunk_sizes = st.integers(MIN_RUN, 90)
upkeeps = st.lists(st.sampled_from(["none", "epoch_close", "invalidate_all",
                                    "invalidate_third"]),
                   min_size=1, max_size=4)


def make_window() -> Window:
    window = Window("adj", [np.arange(N, dtype=np.int64),
                            np.arange(5000, 5000 + N, dtype=np.int64)])
    window.lock_all(0)
    return window


def make_cache(window: Window, capacity: int, nslots: int, policy: str,
               mode: ConsistencyMode = ConsistencyMode.ALWAYS_CACHE
               ) -> ClampiCache:
    kw = dict(capacity_bytes=capacity, nslots=nslots, mode=mode)
    if policy == "degree":
        kw.update(score_policy=AppScorePolicy(),
                  app_score_fn=lambda t, o, c, d: float(c))
    else:
        kw.update(score_policy=(DefaultScorePolicy() if policy == "default"
                                else LRUScorePolicy()))
    return ClampiCache(window, 0, ClampiConfig(**kw))


def replay_chunk(batched: ClampiCache, scalar: ClampiCache,
                 part: np.ndarray) -> None:
    durations, hits = batched.access_batch(part[:, 0], part[:, 1], part[:, 2])
    for i, (t, o, c) in enumerate(part.tolist()):
        _, dt, hit = scalar.access(t, o, c)
        assert hit == bool(hits[i]), (i, (t, o, c))
        assert dt == durations[i], (i, (t, o, c))


@given(streams, capacities, nslot_counts, policies, chunk_sizes, upkeeps,
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_fill_runs_equal_scalar(stream, capacity, nslots, policy, chunk,
                                upkeep, transparent):
    window = make_window()
    mode = (ConsistencyMode.TRANSPARENT if transparent
            else ConsistencyMode.ALWAYS_CACHE)
    batched = make_cache(window, capacity, nslots, policy, mode)
    scalar = make_cache(window, capacity, nslots, policy, mode)

    keys = np.array(stream, dtype=np.int64)
    for n_chunk, lo in enumerate(range(0, keys.shape[0], chunk)):
        replay_chunk(batched, scalar, keys[lo:lo + chunk])
        assert_caches_identical(batched, scalar)
        op = upkeep[n_chunk % len(upkeep)]
        for cache in (batched, scalar):
            live = sorted(e.key for e in cache.entries())
            if op == "epoch_close":
                cache.on_epoch_close()
            elif op == "invalidate_all":
                cache.invalidate(live)
            elif op == "invalidate_third":
                cache.invalidate(live[::3])
        assert_caches_identical(batched, scalar)
    # The scalar twin never forms a run; the batched one did whenever a
    # chunk met bump state (most examples: the first chunk always does).
    assert scalar.run_counts["fill_runs"] == 0
    counts = batched.run_counts
    assert counts["filled_entries"] >= counts["fill_runs"]
    assert (counts["filled_entries"] + counts["scalar_fallbacks"]
            == batched.stats.misses)


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 60),
                          st.integers(1, 12)),
                min_size=2 * MIN_RUN, max_size=200),
       policies, st.integers(0, 150))
@settings(max_examples=25, deadline=None)
def test_roomy_cache_fills_without_scalar_access(stream, policy, split):
    """Cacheable gets, room for all of them, no conflict: runs never end."""
    window = make_window()
    batched = make_cache(window, 1 << 20, 4096, policy)
    scalar = make_cache(window, 1 << 20, 4096, policy)
    keys = np.array(stream, dtype=np.int64)
    split = min(split, keys.shape[0] - MIN_RUN)
    # Both chunks open with an absent key, so their run starts at once (a
    # first miss inside a chunk's last MIN_RUN - 1 gets would be scalar).
    opener = np.array([[1, 100, 1]])
    for part in (keys[:split], np.concatenate([opener, keys[split:]])):
        if part.shape[0]:
            replay_chunk(batched, scalar, part)
            assert_caches_identical(batched, scalar)
    assert batched.index.conflicts == 0
    # Only a first chunk shorter than the crossover is left to `access`;
    # every other miss was a fill run's.
    counts = batched.run_counts
    assert counts["scalar_fallbacks"] <= (split if split < MIN_RUN else 0)
    assert (counts["filled_entries"] + counts["scalar_fallbacks"]
            == batched.stats.misses)


@given(st.lists(gets, max_size=200), st.sampled_from([256, 512, 1024]),
       nslot_counts, st.sampled_from(["default", "lru"]), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_eviction_dense_batches_equal_scalar(tail, capacity, nslots, policy,
                                             replays):
    """A flood of distinct keys makes every replay of the stream
    eviction-dense before the flood ends, so ``access_batch`` hands the rest,
    repeats and all, to the scalar loop; each replay of the one stream
    after that meets a dropped memo."""
    window = make_window()
    batched = make_cache(window, capacity, nslots, policy)
    scalar = make_cache(window, capacity, nslots, policy)
    flood = [(0, offset, 1 + offset % 4) for offset in range(120)]
    keys = np.array(flood + tail, dtype=np.int64)
    stream = BatchStream(keys[:, 0], keys[:, 1], keys[:, 2])
    for n in range(1, replays + 1):
        durations, hits = batched.access_batch(stream=stream)
        for i, (t, o, c) in enumerate(keys.tolist()):
            _, dt, hit = scalar.access(t, o, c)
            assert hit == bool(hits[i]), (i, (t, o, c))
            assert dt == durations[i], (i, (t, o, c))
        assert_caches_identical(batched, scalar)
        assert batched.run_counts["scalar_loops"] == n
    counts = batched.run_counts
    assert (counts["filled_entries"] + counts["scalar_fallbacks"]
            == batched.stats.misses)
