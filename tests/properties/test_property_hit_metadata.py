"""Hit metadata columns of ``access_batch`` against scalar truth.

Hit runs longer than ``ClampiCache._SMALL_RUN`` write ``n_accesses`` /
``last_access`` as arrays (``SlotTable.hit``: ``np.add.at`` plus one
fancy assignment, so a repeated row must count every hit and keep its
last clock), and fill runs do the same for the hits inside them.  The
chunked twin tests in ``test_property_batched_cache.py`` cannot see a
slip there: their runs are short.  Here the cache is roomy, the same
:class:`BatchStream` objects are replayed again and again (one long hit
run each once warm), scalar accesses and maintenance are interleaved —
swap-pops move the columns under the runs — and nothing inspects the
batched cache until the very end, where its entry records must equal
those of a scalar twin and of a scalar cache running on the naive
``tests/clampi_reference.py`` structures.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clampi.cache import BatchStream, ClampiCache, ClampiConfig
from repro.clampi.scores import AppScorePolicy, DefaultScorePolicy, LRUScorePolicy
from repro.runtime.window import Window
from tests.clampi_reference import ReferenceAllocator, ReferenceHashIndex

N = 512
LONG = ClampiCache._SMALL_RUN + 40


class OracleAllocator(ReferenceAllocator):
    def adjacent_free(self, offset: int, size: int | None = None) -> int:
        return super().adjacent_free(offset)

    @property
    def used_bytes(self) -> int:
        return sum(self._used.values())


class OracleCache(ClampiCache):
    """Scalar-only cache on the reference hash index and allocator."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self._swap_in_reference_structures()

    def _clear(self) -> None:
        super()._clear()
        self._swap_in_reference_structures()

    def _swap_in_reference_structures(self) -> None:
        self.index = ReferenceHashIndex(self.config.nslots,
                                        self.config.probe_limit)
        self.allocator = OracleAllocator(self.config.capacity_bytes)


def make_caches(policy_name: str, capacity: int, nslots: int, **kw):
    """(batched, scalar twin, reference-structure oracle) on one window."""
    window = Window("adj", [np.arange(N, dtype=np.int64),
                            np.arange(5000, 5000 + N, dtype=np.int64)])
    window.lock_all(0)
    if policy_name == "degree":
        kw.update(score_policy=AppScorePolicy(),
                  app_score_fn=lambda t, o, c, d: float(c))
    else:
        kw["score_policy"] = (DefaultScorePolicy() if policy_name == "default"
                              else LRUScorePolicy())
    return [cls(window, 0, ClampiConfig(capacity_bytes=capacity,
                                        nslots=nslots, **kw))
            for cls in (ClampiCache, ClampiCache, OracleCache)]


def entry_rows(cache: ClampiCache) -> list[tuple]:
    return sorted((e.key, e.buffer_offset, e.nbytes, e.last_access,
                   e.n_accesses, e.data.tolist()) for e in cache.entries())


def replay(caches, stream: BatchStream) -> None:
    batched, *scalars = caches
    durations, hits = batched.access_batch(stream=stream)
    keys = zip(stream.targets.tolist(), stream.offsets.tolist(),
               stream.counts.tolist())
    for i, key in enumerate(keys):
        for cache in scalars:
            _, dt, hit = cache.access(*key)
            assert hit == bool(hits[i]), i
            assert dt == durations[i], i


#: The key universe: ~90 distinct (target, offset, count) triples of 8-64
#: bytes, ~3 KB in all — a 2-8 KB cache holds most of it and still evicts.
universe = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, N - 40), st.integers(1, 8)),
    min_size=20, max_size=90, unique=True)

#: A stream is a long walk over a small hot subset, so once warm its
#: replay is one hit run far past ``_SMALL_RUN``.
walks = st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(3, 25),
              st.integers(LONG, 3 * LONG)),
    min_size=2, max_size=3)

steps = st.lists(
    st.one_of(
        st.tuples(st.just("replay"), st.integers(0, 2), st.just(0)),
        st.tuples(st.just("replay"), st.integers(0, 2), st.just(0)),
        st.tuples(st.just("access"), st.integers(0, 89), st.just(0)),
        st.tuples(st.just("invalidate"), st.integers(0, 89),
                  st.integers(1, 6)),
        st.tuples(st.just("rekey"), st.integers(0, 89), st.integers(1, 30)),
        st.tuples(st.just("flush"), st.just(0), st.just(0)),
    ),
    min_size=4, max_size=24)


@given(universe, walks, steps, st.sampled_from(["default", "lru", "degree"]),
       st.integers(2048, 8192), st.sampled_from([16, 64, 256]))
@settings(max_examples=60, deadline=None)
def test_hit_metadata_columns_match_scalar_twins(keys, walk_specs, program,
                                                policy, capacity, nslots):
    caches = make_caches(policy, capacity, nslots, probe_limit=4,
                         eviction_sample=8)
    table = np.array(keys, dtype=np.int64)
    streams = []
    for seed, hot, length in walk_specs:
        rng = np.random.default_rng(seed)
        subset = rng.choice(len(keys), size=min(hot, len(keys)), replace=False)
        walk = table[rng.choice(subset, size=length)]
        streams.append(BatchStream(walk[:, 0], walk[:, 1], walk[:, 2]))

    replay(caches, streams[0])
    for op, a, b in program:
        key = keys[a % len(keys)]
        if op == "replay":
            replay(caches, streams[a % len(streams)])
        elif op == "access":
            outcomes = [cache.access(*key)[1:] for cache in caches]
            assert outcomes[0] == outcomes[1] == outcomes[2]
        elif op == "invalidate":   # every b-th key from a on, present or not
            for cache in caches:
                cache.invalidate(keys[a % len(keys)::b])
        elif op == "rekey":        # slide the key and a neighbour by b
            moved = np.array([key, keys[(a + 1) % len(keys)]])
            for cache in caches:
                cache.rekey(moved, moved + (0, b, 0))
        else:
            for cache in caches:
                cache.flush()
        assert (caches[0].stats.snapshot() == caches[1].stats.snapshot()
                == caches[2].stats.snapshot())

    # Only now is the batched cache's metadata looked at.
    rows = entry_rows(caches[0])
    assert rows == entry_rows(caches[1])
    assert rows == entry_rows(caches[2])
    assert caches[0].used_bytes == caches[2].used_bytes
    caches[0].check_invariants()
    caches[1].check_invariants()


def test_key_touched_only_in_a_long_run_survives_lru_eviction():
    """Exact LRU: the victim is chosen on the clocks the run wrote."""
    batched, scalar, _ = make_caches("lru", 4 * 64, 16, eviction_sample=16)
    a, b, c, d, e = ((1, 10 * i, 8) for i in range(5))
    for cache in (batched, scalar):
        for key in (a, b, c, d):       # clocks 1..4: `a` is the oldest entry
            cache.access(*key)
    stream = BatchStream(*np.array([a] * LONG, dtype=np.int64).T)
    _, hits = batched.access_batch(stream=stream)
    row = batched.index.lookup(a)
    assert hits.all() and batched._table.n_accesses[row] == 1 + LONG
    assert batched._table.last_access[row] == 4 + LONG
    for _ in range(LONG):
        scalar.access(*a)
    for cache in (batched, scalar):
        cache.access(*e)                # full: evicts the true LRU, `b`
    assert sorted(x.key for x in batched.entries()) == sorted([a, c, d, e])
    assert entry_rows(batched) == entry_rows(scalar)


def test_metadata_rows_start_clean_when_the_columns_grow():
    """Entries appended past the initial 64 rows inherit no old counts."""
    batched, scalar, _ = make_caches("default", 1 << 16, 1024)
    first = np.array([(1, 2 * i, 2) for i in range(60)] * 3, dtype=np.int64)
    more = np.array([(0, 2 * i, 2) for i in range(150)] * 2, dtype=np.int64)
    for keys in (first, first, more, more, first):
        stream = BatchStream(keys[:, 0], keys[:, 1], keys[:, 2])
        batched.access_batch(stream=stream)
        for t, o, c in keys.tolist():
            scalar.access(t, o, c)
    assert len(batched) == 210
    assert entry_rows(batched) == entry_rows(scalar)
    batched.check_invariants()


class TestMemoServesNoRemovedEntry:
    """Memos hold row arrays: a removed entry's row is never served."""

    def warm(self):
        batched, _, _ = make_caches("lru", 2 * 64, 16)
        a, b = (1, 0, 8), (1, 16, 8)
        stream = BatchStream(*np.array([a, b, a, b], dtype=np.int64).T)
        batched.access_batch(stream=stream)
        _, hits = batched.access_batch(stream=stream)  # the memo validates
        assert hits.all()
        (memo,) = batched._batch_memo.values()
        assert memo[2].dtype.kind == "i"
        return batched, a, b, stream

    def test_evicted_mid_batch(self):
        batched, a, b, warm = self.warm()
        c = (1, 32, 8)
        stream = BatchStream(*np.array([b, c, b], dtype=np.int64).T)
        _, hits = batched.access_batch(stream=stream)   # c evicts a
        assert hits.tolist() == [True, False, True]
        assert batched.index.lookup(a) is None
        _, hits = batched.access_batch(stream=warm)
        assert hits.tolist() == [False, True, True, True]
        batched.check_invariants()

    def test_invalidated_between_batches(self):
        batched, a, b, warm = self.warm()
        batched.invalidate([a])
        _, hits = batched.access_batch(stream=warm)
        assert hits.tolist() == [False, True, True, True]
        batched.check_invariants()

    def test_memo_table_stays_bounded_and_pruned(self):
        batched, a, b, _ = self.warm()
        streams = [BatchStream(*np.array([a, b] * (i + 1), dtype=np.int64).T)
                   for i in range(40)]
        for stream in streams:
            batched.access_batch(stream=stream)
        assert 0 < len(batched._batch_memo) <= 16
        batched.access_batch(stream=BatchStream(
            *np.array([(1, 48, 8)], dtype=np.int64).T))   # a miss: new epoch
        assert all(memo[0] == batched._state_epoch
                   for memo in batched._batch_memo.values())
        assert len(batched._batch_memo) == 1
