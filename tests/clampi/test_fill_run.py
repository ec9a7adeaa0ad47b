"""Which path ``access_batch`` takes: fill runs, when they hand over, and
when an eviction-dense batch hands its rest to the scalar loop.

The property suite (``tests/properties/test_property_fill_run.py``) proves
fill runs bit-identical to scalar ``access``; these tests pin *that they
form*: a counting wrapper on ``access`` sees only what a run cannot serve.
"""

import numpy as np
import pytest

from repro.clampi.cache import BatchStream, ClampiCache, ClampiConfig
from repro.runtime.window import Window
from repro.utils.errors import EpochError, WindowError
from tests.helpers import assert_caches_identical

N = 4096
MIN_RUN = ClampiCache._MIN_FILL_RUN


def make_cache(locked: bool = True, **config) -> ClampiCache:
    window = Window("adj", [np.arange(N, dtype=np.int64),
                            np.arange(N, dtype=np.int64) * 3])
    if locked:
        window.lock_all(0)
    kw = dict(capacity_bytes=1 << 20, nslots=4096)
    kw.update(config)
    return ClampiCache(window, 0, ClampiConfig(**kw))


def count_scalar_calls(cache: ClampiCache) -> list:
    """Route the cache's scalar ``access`` through a call log."""
    calls, access = [], cache.access

    def counting(target, offset, count):
        calls.append((target, offset, count))
        return access(target, offset, count)

    cache.access = counting
    return calls


def distinct_gets(n: int, count: int = 4) -> np.ndarray:
    return np.array([(1, 10 * i, count) for i in range(n)], dtype=np.int64)


def replay(cache: ClampiCache, gets: np.ndarray):
    return cache.access_batch(gets[:, 0], gets[:, 1], gets[:, 2])


def test_eviction_free_stream_never_reaches_scalar_access():
    cache = make_cache()
    calls = count_scalar_calls(cache)
    gets = np.concatenate([distinct_gets(300), distinct_gets(300)[::-1]])
    durations, hits = replay(cache, gets)
    assert calls == []
    assert hits.sum() == 300 and cache.stats.misses == 300
    assert cache.run_counts == {"hit_runs": 0, "fill_runs": 1,
                                "filled_entries": 300, "scalar_fallbacks": 0,
                                "scalar_loops": 0}
    # Warm replay: one hit run, still no scalar access.
    _, hits = replay(cache, gets)
    assert hits.all() and calls == []
    assert cache.run_counts["hit_runs"] == 1
    assert cache.run_counts["scalar_loops"] == 0

    oracle = make_cache()
    for t, o, c in gets.tolist() * 2:
        oracle.access(t, o, c)
    assert_caches_identical(cache, oracle)


def test_long_stream_is_a_few_windowed_runs():
    cache = make_cache(nslots=1 << 16)
    calls = count_scalar_calls(cache)
    n = 2 * ClampiCache._FILL_WINDOW + 100
    gets = np.array([(i % 2, i // 2, 1) for i in range(n)], dtype=np.int64)
    replay(cache, gets)
    assert calls == []
    assert cache.run_counts["fill_runs"] == 3
    assert cache.run_counts["filled_entries"] == n


def test_single_hash_conflict_is_the_single_scalar_access():
    # probe_limit=1: two keys with one home slot conflict.  40 keys with
    # distinct homes, then one that collides with the first, then hits.
    nslots, homes, keys = 512, set(), []
    offset = 0
    while len(keys) < 40:
        key = (1, offset, 2)
        if hash(key) % nslots not in homes:
            homes.add(hash(key) % nslots)
            keys.append(key)
        offset += 1
    while hash((1, offset, 2)) % nslots != hash(keys[0]) % nslots:
        offset += 1
    gets = np.array(keys + [(1, offset, 2)] + keys[5:30], dtype=np.int64)

    cache = make_cache(nslots=nslots, probe_limit=1)
    calls = count_scalar_calls(cache)
    _, hits = replay(cache, gets)
    assert calls == [(1, offset, 2)]
    assert cache.index.conflicts == cache.stats.hash_conflicts == 1
    assert cache.stats.conflict_evictions == 1
    assert cache.run_counts == {"hit_runs": 1, "fill_runs": 1,
                                "filled_entries": 40, "scalar_fallbacks": 1,
                                "scalar_loops": 0}
    assert hits.tolist() == [False] * 41 + [True] * 25

    oracle = make_cache(nslots=nslots, probe_limit=1)
    for t, o, c in gets.tolist():
        oracle.access(t, o, c)
    assert_caches_identical(cache, oracle)


#: 32 four-element entries, two-slot probe windows: a cache that fills
#: fast and then evicts on nearly every miss, by capacity and by conflict.
DENSE = dict(capacity_bytes=1024, nslots=64, probe_limit=2)


def dense_stream(n: int = 400, nkeys: int = 96) -> BatchStream:
    """``n`` gets, with repeats, over three times the keys ``DENSE`` holds."""
    picks = np.random.default_rng(3).integers(0, nkeys, n).tolist()
    gets = np.array([(1, 10 * k, 4) for k in picks], dtype=np.int64)
    return BatchStream(gets[:, 0], gets[:, 1], gets[:, 2])


def replay_against_oracle(cache: ClampiCache, oracle: ClampiCache,
                          stream: BatchStream) -> None:
    """One batch against one ``access`` per get: verdicts, duration bits
    and every piece of cache state agree."""
    durations, hits = cache.access_batch(stream=stream)
    expected = [oracle.access(*key)[1:] for key in zip(
        stream.targets.tolist(), stream.offsets.tolist(),
        stream.counts.tolist())]
    assert hits.tolist() == [hit for _, hit in expected]
    assert (durations.view(np.int64).tolist()
            == np.array([dt for dt, _ in expected]).view(np.int64).tolist())
    assert_caches_identical(cache, oracle)


def test_eviction_dense_batch_hands_its_rest_to_the_scalar_loop():
    cache, oracle = make_cache(**DENSE), make_cache(**DENSE)
    calls = count_scalar_calls(cache)
    stream = dense_stream()
    replay_against_oracle(cache, oracle, stream)
    counts, stats = cache.run_counts, cache.stats
    assert counts["scalar_loops"] == 1
    assert stats.capacity_evictions > 0 and stats.conflict_evictions > 0
    assert counts["filled_entries"] + counts["scalar_fallbacks"] == stats.misses
    # The loop's misses are `access` calls, its hits are counted in place
    # (no payload copy); the slots the stream's memo held went stale.
    assert len(calls) == counts["scalar_fallbacks"]
    assert id(stream) not in cache._batch_memo


def test_warm_replay_after_a_hand_off_rejoins_its_slots():
    cache, oracle = make_cache(**DENSE), make_cache(**DENSE)
    stream = dense_stream()
    replay_against_oracle(cache, oracle, stream)
    assert id(stream) not in cache._batch_memo
    replay_against_oracle(cache, oracle, stream)
    assert cache.run_counts["scalar_loops"] == 2
    # A hit-dense stream over what is resident hands nothing off.
    resident = sorted(e.key for e in cache.entries())
    gets = np.array(resident * 8, dtype=np.int64)
    replay_against_oracle(cache, oracle,
                          BatchStream(gets[:, 0], gets[:, 1], gets[:, 2]))
    assert cache.run_counts["scalar_loops"] == 2


def test_adaptive_cache_resizes_inside_the_loop():
    from repro.clampi.adaptive import AdaptiveConfig

    config = dict(DENSE, adaptive=AdaptiveConfig(
        check_interval=64, max_capacity_bytes=4096))
    cache, oracle = make_cache(**config), make_cache(**config)
    resize, loops_at_resize = cache.resize, []

    def logging(**kw):
        loops_at_resize.append(cache.run_counts["scalar_loops"])
        resize(**kw)

    cache.resize = logging
    replay_against_oracle(cache, oracle, dense_stream())
    assert cache.run_counts["scalar_loops"] == 1
    assert 1 in loops_at_resize                  # resized after the hand-off
    assert cache.stats.adaptive_resizes == len(loops_at_resize)


def distinct_homes(nslots: int, n: int, taken: set, offset: int) -> list:
    """``n`` keys from ``offset`` on whose home slots differ from each
    other and from ``taken``."""
    keys = []
    while len(keys) < n:
        key = (1, offset, 2)
        if hash(key) % nslots not in taken:
            taken.add(hash(key) % nslots)
            keys.append(key)
        offset += 1
    return keys


def test_run_gathers_only_the_payloads_it_places(monkeypatch):
    """A run's look-ahead reaches past the full probe window that ends
    it; only the entries placed before that window are gathered."""
    gathers, gather = [], Window.gather

    def counting(window, targets, offsets, counts):
        gathers.append(list(zip(targets.tolist(), offsets.tolist(),
                                counts.tolist())))
        return gather(window, targets, offsets, counts)

    monkeypatch.setattr(Window, "gather", counting)
    nslots, homes = 512, set()
    keys = distinct_homes(nslots, 40, homes, 0)
    offset = keys[0][1] + 1
    while hash((1, offset, 2)) % nslots != hash(keys[0]) % nslots:
        offset += 1
    later = distinct_homes(nslots, 60, homes, 3000)
    gets = np.array(keys + [(1, offset, 2)] + later, dtype=np.int64)

    cache = make_cache(nslots=nslots, probe_limit=1)
    replay(cache, gets)
    # The run's look-ahead held all 101 misses; it placed the first 40.
    assert gathers[0] == keys
    assert sum(map(len, gathers)) == cache.run_counts["filled_entries"]
    assert cache.run_counts["filled_entries"] < cache.stats.misses == 101

    oracle = make_cache(nslots=nslots, probe_limit=1)
    for t, o, c in gets.tolist():
        oracle.access(t, o, c)
    assert_caches_identical(cache, oracle)


def test_stream_below_the_crossover_takes_the_scalar_path():
    cache = make_cache()
    calls = count_scalar_calls(cache)
    gets = distinct_gets(MIN_RUN - 1)
    replay(cache, gets)
    assert calls == [tuple(g) for g in gets.tolist()]
    assert cache.run_counts["fill_runs"] == 0
    assert cache.run_counts["scalar_fallbacks"] == MIN_RUN - 1


def test_adaptive_cache_forms_no_runs():
    from repro.clampi.adaptive import AdaptiveConfig

    cache = make_cache(adaptive=AdaptiveConfig())
    calls = count_scalar_calls(cache)
    replay(cache, distinct_gets(100))
    assert len(calls) == 100 and cache.run_counts["fill_runs"] == 0


def test_uncacheable_gets_end_the_run_and_resume_it():
    # A zero-count get and one larger than the buffer are never cached:
    # every occurrence is the scalar path's, the runs carry on around them.
    cache = make_cache(capacity_bytes=4096)
    calls = count_scalar_calls(cache)
    gets = distinct_gets(120)
    gets[40] = (1, 7, 0)
    gets[80] = (1, 0, 600)          # 4800 B > 4096 B
    replay(cache, gets)
    assert calls == [(1, 7, 0), (1, 0, 600)]
    assert cache.stats.insert_failures == 2
    assert cache.run_counts["fill_runs"] == 3
    assert cache.run_counts["filled_entries"] == 118

    oracle = make_cache(capacity_bytes=4096)
    for t, o, c in gets.tolist():
        oracle.access(t, o, c)
    assert_caches_identical(cache, oracle)


def test_extent_overflow_hands_over_to_eviction():
    cache = make_cache(capacity_bytes=2048)      # 64 four-element entries
    calls = count_scalar_calls(cache)
    replay(cache, distinct_gets(100))
    assert cache.run_counts["filled_entries"] == 64
    assert len(calls) == 36 and cache.stats.capacity_evictions == 36

    oracle = make_cache(capacity_bytes=2048)
    for t, o, c in distinct_gets(100).tolist():
        oracle.access(t, o, c)
    assert_caches_identical(cache, oracle)


def test_emptied_cache_refills_rows_from_zero_in_one_fill_run():
    cache, oracle = make_cache(), make_cache()
    first, second = distinct_gets(50), distinct_gets(90, count=3)
    replay(cache, first)
    for t, o, c in first.tolist():
        oracle.access(t, o, c)
    for c in (cache, oracle):
        c.invalidate([e.key for e in c.entries()][::-1])
    assert len(cache) == 0
    runs = cache.run_counts["fill_runs"]
    calls = count_scalar_calls(cache)
    replay(cache, second)
    for t, o, c in second.tolist():
        oracle.access(t, o, c)
    assert calls == [] and cache.run_counts["fill_runs"] == runs + 1
    assert [e.slot for e in cache.entries()] == list(range(90))
    assert_caches_identical(cache, oracle)


@pytest.mark.parametrize("bad", [(1, N - 2, 4), (5, 0, 4), (1, -1, 4),
                                 (1, 0, -3)])
def test_refused_get_inside_a_run_raises_the_scalar_error(bad):
    gets = distinct_gets(60)
    gets[25] = bad
    cache, oracle = make_cache(), make_cache()
    calls = count_scalar_calls(cache)
    with pytest.raises(WindowError) as batch_error:
        replay(cache, gets)
    with pytest.raises(WindowError) as scalar_error:
        for t, o, c in gets.tolist():
            oracle.access(t, o, c)
    assert str(batch_error.value) == str(scalar_error.value)
    assert calls == [bad]                     # 25 entries came from the run
    assert cache.run_counts["filled_entries"] == 25
    assert_caches_identical(cache, oracle)
    # The failed batch disarmed itself: the cache is usable again.
    replay(cache, distinct_gets(60))


def test_closed_epoch_raises_the_scalar_error():
    gets = distinct_gets(60)
    cache, oracle = make_cache(locked=False), make_cache(locked=False)
    with pytest.raises(EpochError) as batch_error:
        replay(cache, gets)
    with pytest.raises(EpochError) as scalar_error:
        oracle.access(*gets[0].tolist())
    assert str(batch_error.value) == str(scalar_error.value)
    assert cache.run_counts["fill_runs"] == 0
    assert_caches_identical(cache, oracle)


def test_stream_keys_must_pack():
    from repro.utils.errors import CacheError

    wide = np.array([0, 1 << 40], dtype=np.int64)
    with pytest.raises(CacheError, match="63 bits"):
        BatchStream(wide, wide, wide)


def test_stream_columns_must_be_integers():
    """A float get would be truncated to another key's; ``access`` refuses
    it, so the batch does too.  Empty columns of any dtype are empty."""
    from repro.utils.errors import CacheError

    cache = make_cache()
    with pytest.raises(CacheError, match="integer columns"):
        cache.access_batch(np.array([1.9, 1.2]), np.array([3.7, 3.2]),
                           np.array([2.5, 2.9]))
    with pytest.raises(CacheError, match="integer columns"):
        BatchStream(np.array([1]), np.array([3]), np.array([True]))
    assert cache.stats.accesses == 0
    empty = np.array([], dtype=np.float64)
    durations, hits = cache.access_batch(empty, empty, empty)
    assert durations.shape == hits.shape == (0,)
    BatchStream(np.array([1], dtype=np.uint8), np.array([3]), np.array([2]))


def test_stream_prev_is_the_previous_occurrence():
    stream = BatchStream(np.array([0, 1, 0, 0, 1]), np.array([5, 5, 5, 6, 5]),
                         np.array([2, 2, 2, 2, 2]))
    assert stream.prev.tolist() == [-1, -1, 0, -1, 1]
    assert stream.uniq.tolist() == [[0, 5, 2], [0, 6, 2], [1, 5, 2]]
    assert stream.inv.tolist() == [0, 2, 0, 1, 2]


def test_score_function_raising_mid_run_fails_closed():
    """The entries a run placed before the score function raised leave the
    index again: the error propagates, the cache is as before the batch."""
    calls = []

    def flaky(target, offset, count, data):
        calls.append(offset)
        if len(calls) == 25:
            raise RuntimeError("score source unavailable")
        return float(count)

    cache, oracle = make_cache(app_score_fn=flaky), make_cache()
    gets = distinct_gets(60)
    with pytest.raises(RuntimeError, match="score source unavailable"):
        replay(cache, gets)
    assert len(calls) == 25
    cache.check_invariants()
    assert {key for key, _ in cache.index.items()} <= {
        e.key for e in cache.entries()}
    assert len(cache.index) == len(cache.entries()) == 0
    assert cache.run_counts["fill_runs"] == 0
    # The same cache then serves the batch, as one that never failed does.
    replay(cache, gets)
    replay(oracle, gets)
    assert cache.run_counts == oracle.run_counts
    assert cache.stats.snapshot() == oracle.stats.snapshot()
    assert sorted(e.key for e in cache.entries()) == sorted(
        e.key for e in oracle.entries())
