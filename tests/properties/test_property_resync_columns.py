"""Batched ``invalidate`` / ``rekey`` against the per-key loops they replaced.

``ClampiCache.invalidate`` and ``rekey`` take ``(k, 3)`` key columns, match
them against the live table in one join (below the ``_SMALL_MATCH``
crossover, one hash lookup per key) and detach the matches in one batch.
``tests/clampi_reference.py`` keeps the per-key loops as the oracle: a twin
cache driven through them must be indistinguishable from the batched one
(``assert_caches_identical``: stats and ``mgmt_time`` bits, entry records
in row order with their hit metadata and payloads, hash layout, allocator
state and RNG state) after every call.

The cache-level property mixes duplicate, absent and empty key lists of
sizes on both sides of the crossover, after hit runs wrote the metadata
columns; rekeys include ``old == new`` rows, two rows with one
new key and sliding chains (a new key that is another row's old key).  The
session-level property drives random update chains through a resident 1D
session and compares every cache with a twin session resynced through the
oracle.
"""

from contextlib import contextmanager

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.clampi.cache import BatchStream, ClampiCache, ClampiConfig
from repro.clampi.scores import DefaultScorePolicy, LRUScorePolicy
from repro.core.config import CacheSpec, LCCConfig
from repro.dynamic import UpdateBatch
from repro.graph.generators import powerlaw_configuration
from repro.runtime.window import Window
from repro.session import Session
from tests.clampi_reference import reference_invalidate, reference_rekey
from tests.helpers import assert_caches_identical

N = 600            # words per window part
MAX_KEYS = 240     # past the crossover for every cache below


def make_twins(policy: str, capacity: int, nslots: int):
    window = Window("adj", [np.arange(N, dtype=np.int64) + 1000 * r
                            for r in range(3)])
    window.lock_all(0)
    score = DefaultScorePolicy() if policy == "default" else LRUScorePolicy()
    return [ClampiCache(window, 0, ClampiConfig(
        capacity_bytes=capacity, nslots=nslots, probe_limit=4,
        eviction_sample=8, score_policy=score)) for _ in range(2)]


#: Program steps.  Sizes are drawn uniformly, so key sets land on both
#: sides of the crossover; the rows themselves come from a seeded RNG and
#: are resolved against the live keys when the step runs.
ops = st.one_of(
    st.tuples(st.just("replay"), st.integers(0, 3), st.just(0)),
    st.tuples(st.just("invalidate"), st.integers(0, MAX_KEYS),
              st.integers(0, 2**32 - 1)),
    st.tuples(st.just("rekey"), st.integers(0, MAX_KEYS),
              st.integers(0, 2**32 - 1)),
)


def random_keys(rng, k: int) -> list[tuple]:
    return [tuple(row) for row in np.column_stack([
        rng.integers(0, 3, k), rng.integers(0, N - 40, k),
        rng.integers(1, 25, k)]).tolist()]


def live_keys(cache: ClampiCache) -> list[tuple]:
    """The live keys, without settling pending hit metadata."""
    return sorted(key for key, *_ in cache._table.meta)


def invalidate_keys(cache, k: int, seed: int) -> np.ndarray:
    """``k`` rows: live keys (repeats likely) and about a quarter random,
    mostly absent ones, shuffled; possibly none."""
    rng = np.random.default_rng(seed)
    live = live_keys(cache)
    n_absent = k if not live else int(rng.integers(0, k // 2 + 1))
    rows = [live[i] for i in rng.integers(0, max(len(live), 1),
                                          k - n_absent)] if live else []
    rows += random_keys(rng, n_absent)
    rng.shuffle(rows)
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


def rekey_columns(cache, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """About ``k`` rows mixing four kinds, shuffled."""
    rng = np.random.default_rng(seed)
    live = live_keys(cache) or [(0, 0, 1)]
    old, new = [], []
    for kind, i, j in zip(rng.integers(0, 4, k).tolist(),
                          rng.integers(0, len(live), k).tolist(),
                          rng.integers(-3, 4, k).tolist()):
        t, o, c = live[i]
        if kind == 0:                  # j == 0: old == new, never moves
            old.append((t, o, c))
            new.append((t, max(o + j, 0), c))
        elif kind == 1:                # a sliding chain: onto the next
            old.append((t, o, c))      # live key's old key
            new.append(live[(i + 1) % len(live)])
        elif kind == 2:                # two rows, one new key
            old += [(t, o, c), live[(i + j) % len(live)]]
            new += [(t, o + 1, c)] * 2
        else:                          # an old key that is not live
            old.append((t, o + N, c))
            new.append((t, o + abs(j), c))
    order = rng.permutation(len(old)).tolist()
    return tuple(np.array([rows[x] for x in order],
                          dtype=np.int64).reshape(-1, 3)
                 for rows in (old, new))


@given(warm=st.tuples(st.integers(1, 300), st.integers(0, 2**32 - 1)),
       program=st.lists(ops, min_size=1, max_size=8),
       policy=st.sampled_from(["default", "lru"]),
       capacity=st.sampled_from([4096, 1 << 16]),
       nslots=st.sampled_from([64, 1024]))
@settings(max_examples=80, deadline=None)
def test_batched_maintenance_equals_per_key_loops(warm, program, policy,
                                                  capacity, nslots):
    batched, oracle = make_twins(policy, capacity, nslots)
    table = np.array(random_keys(np.random.default_rng(warm[1]), warm[0]),
                     dtype=np.int64)
    streams = [BatchStream(*np.tile(table[s::2], (reps, 1)).T)
               for s, reps in ((0, 3), (1, 2), (0, 1), (1, 4))
               if table[s::2].shape[0]]
    for stream in streams[:2] * 2:     # fill, then hit runs left pending
        for cache in (batched, oracle):
            cache.access_batch(stream=stream)
    for op, k, seed in program:
        if op == "replay":
            stream = streams[k % len(streams)]
            for cache in (batched, oracle):
                cache.access_batch(stream=stream)
            continue
        if op == "invalidate":
            keys = invalidate_keys(batched, k, seed)
            got = batched.invalidate(keys)
            want = reference_invalidate(oracle, keys)
        else:
            old, new = rekey_columns(batched, k, seed)
            got = batched.rekey(old, new)
            want = reference_rekey(oracle, old, new)
        assert got == want
        assert_caches_identical(batched, oracle)


GRAPH = powerlaw_configuration(240, 1500, seed=11)
SPEC = CacheSpec(offsets_bytes=2048, adj_bytes=8192)

edge_picks = st.lists(st.tuples(st.integers(0, GRAPH.n - 1),
                                st.integers(0, GRAPH.n - 1)), max_size=24)


@contextmanager
def per_key_maintenance():
    """Route every cache's invalidate / rekey through the per-key oracle."""
    saved = ClampiCache.invalidate, ClampiCache.rekey
    ClampiCache.invalidate, ClampiCache.rekey = (reference_invalidate,
                                                 reference_rekey)
    try:
        yield
    finally:
        ClampiCache.invalidate, ClampiCache.rekey = saved


def update_batch(graph, inserts, delete_picks) -> UpdateBatch:
    edges = graph.edges()
    edges = edges[edges[:, 0] < edges[:, 1]]
    deletes = edges[[i % edges.shape[0] for i in delete_picks]] \
        if edges.shape[0] else np.zeros((0, 2), dtype=np.int64)
    inserts = np.array([(u, v) for u, v in inserts if u != v],
                       dtype=np.int64).reshape(-1, 2)
    ins = {(min(u, v), max(u, v)) for u, v in inserts.tolist()}
    deletes = np.array([e for e in deletes.tolist() if tuple(e) not in ins],
                       dtype=np.int64).reshape(-1, 2)
    return UpdateBatch.build(inserts, deletes, n=graph.n)


@given(chain=st.lists(st.tuples(edge_picks,
                                st.lists(st.integers(0, 10**6), max_size=24),
                                st.sampled_from(["lcc", "tc"]),
                                st.booleans()),
                      min_size=1, max_size=4))
@example(chain=[([(0, 1), (2, 200), (5, 9)], [3, 40, 41], "lcc", True),
                ([], list(range(0, 600, 25)), "tc", True),
                ([(7, 8)], [], "lcc", False)])
@settings(max_examples=25, deadline=None)
def test_resync_chain_equals_per_key_twin(chain):
    cfg = LCCConfig(nranks=4, cache=SPEC)
    with Session(GRAPH, cfg) as ours, Session(GRAPH, cfg) as twin:
        for session in (ours, twin):
            session.run("lcc", keep_cache=True)
        for inserts, delete_picks, kernel, rekey in chain:
            batch = update_batch(ours.graph, inserts, delete_picks)
            got = ours.apply_updates(batch, rekey=rekey)
            with per_key_maintenance():
                want = twin.apply_updates(batch, rekey=rekey)
            assert (got.invalidated_entries, got.rekeyed_entries,
                    got.time) == (want.invalidated_entries,
                                  want.rekeyed_entries, want.time)
            for a, b in zip(ours.clusters()[0].caches,
                            twin.clusters()[0].caches, strict=True):
                assert_caches_identical(a, b)
            for session in (ours, twin):
                session.run(kernel, keep_cache=True)
