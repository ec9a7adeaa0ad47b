"""Victim selection: ``ScorePolicy.pick`` against the per-entry oracle.

``victim_score`` scores one entry and stays the oracle; ``pick`` is the one
call a victim selection makes.  The stock policies override ``pick`` with a
loop, which must return the very object ``min(candidates,
key=victim_score)`` returns, with the same score bits; the extended
policies and any subclass that only redefines ``victim_score`` select
through the base ``min``.  The victim sample's draws must be exactly
``randrange``'s.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clampi.allocator import BufferAllocator
from repro.clampi.cache import BatchStream, CacheEntry, ClampiCache, ClampiConfig
from repro.clampi.scores import (
    AppScorePolicy,
    DefaultScorePolicy,
    LRUScorePolicy,
    ScorePolicy,
)
from repro.clampi.scores_ext import EXTENDED_POLICIES
from repro.runtime.window import Window
from repro.utils.rng import randrange_draws
from tests.helpers import assert_caches_identical

#: Stock policies (own ``pick`` loop): name -> (class, constructor kwargs).
STOCK = {
    "default": (DefaultScorePolicy, {}),
    "default-wpos0": (DefaultScorePolicy, {"w_positional": 0.0}),
    "default-heavy": (DefaultScorePolicy,
                      {"w_recency": 0.3, "w_positional": 2.0}),
    "lru": (LRUScorePolicy, {}),
    "degree": (AppScorePolicy, {}),
}
EXTENDED = {name: (cls, {}) for name, cls in EXTENDED_POLICIES.items()}
ALL = {**STOCK, **EXTENDED}


def make_policy(name: str, per_entry_only: bool = False) -> ScorePolicy:
    """The named policy, or a subclass of it redefining only
    ``victim_score`` (to the inherited one) when ``per_entry_only``."""
    cls, kwargs = ALL[name]
    if per_entry_only:
        base = cls
        cls = type("PerEntry" + cls.__name__, (cls,), {
            "victim_score": lambda self, entry, allocator, clock:
                base.victim_score(self, entry, allocator, clock)})
    return cls(**kwargs)


def bits(score: float) -> str:
    return float(score).hex()


# -- pick against min(victim_score) -----------------------------------------

#: A buffer carved into blocks left to right; ``keep=False`` blocks are
#: freed afterwards, so used blocks border free gaps of every shape.
layouts = st.lists(st.tuples(st.integers(1, 64), st.booleans()),
                   min_size=1, max_size=24)
app_scores = st.one_of(st.none(), st.integers(0, 4).map(float),
                       st.floats(0, 100, allow_nan=False))


@st.composite
def selections(draw):
    layout = draw(layouts)
    tail = draw(st.integers(0, 64))
    alloc = BufferAllocator(sum(size for size, _ in layout) + tail)
    offsets = [alloc.alloc(size) for size, _ in layout]
    for offset, (_, keep) in zip(offsets, layout):
        if not keep:
            alloc.free(offset)
    live = [(o, size) for o, (size, keep) in zip(offsets, layout) if keep]
    if not live:
        live = [(alloc.alloc(1), 1)]
    clock = draw(st.one_of(st.just(0), st.integers(1, 40)))
    entries = []
    for i, (offset, size) in enumerate(live):
        entry = CacheEntry((0, i, size), np.empty(0), offset, size,
                           draw(st.integers(0, clock)), draw(app_scores))
        entry.n_accesses = draw(st.integers(1, 5))
        entries.append(entry)
    # Indices drawn with replacement: repeated candidates, equal scores.
    picks = draw(st.lists(st.integers(0, len(entries) - 1),
                          min_size=1, max_size=20))
    return alloc, clock, [entries[i] for i in picks]


@pytest.mark.parametrize("name", sorted(ALL))
@given(selection=selections())
@settings(max_examples=150, deadline=None)
def test_pick_is_min_over_victim_score(name, selection):
    alloc, clock, candidates = selection
    policy = make_policy(name)
    victim, score = policy.pick(candidates, alloc, clock)
    want = min(candidates, key=lambda e: policy.victim_score(e, alloc, clock))
    assert victim is want
    assert bits(score) == bits(policy.victim_score(want, alloc, clock))


def test_stock_policies_loop_and_the_rest_select_through_min():
    for name in STOCK:
        assert type(make_policy(name)).pick is not ScorePolicy.pick, name
    for name in EXTENDED:
        assert type(make_policy(name)).pick is ScorePolicy.pick, name
    for name in ALL:   # a redefined per-entry score is never bypassed
        assert type(make_policy(name, True)).pick is ScorePolicy.pick, name


def test_ties_go_to_the_first_candidate():
    alloc = BufferAllocator(16)     # two full blocks: no free neighbours
    a, b = (CacheEntry((0, i, 8), np.empty(0), alloc.alloc(8), 8, 3, 1.0)
            for i in range(2))
    for name in ALL:
        policy = make_policy(name)
        assert policy.pick([a, b, a], alloc, 10)[0] is a, name
        assert policy.pick([b, a, b], alloc, 10)[0] is b, name
        assert policy.pick([b, a], alloc, 0)[0] is b, name


# -- whole caches: the loop against the per-entry oracle ------------------------

N = 512


def make_twins(name: str, sample: int = 8):
    """(stock policy cache, per-entry-only twin) on one window."""
    window = Window("adj", [np.arange(N, dtype=np.int64),
                            np.arange(7000, 7000 + N, dtype=np.int64)])
    window.lock_all(0)
    caches = []
    for per_entry_only in (False, True):
        kw = dict(capacity_bytes=768, nslots=32, probe_limit=4,
                  eviction_sample=sample,
                  score_policy=make_policy(name, per_entry_only))
        if kw["score_policy"].uses_app_score:
            kw["app_score_fn"] = lambda t, o, c, d: float(c % 3)
        caches.append(ClampiCache(window, 0, ClampiConfig(**kw)))
    return caches


def pressure_program(seed: int):
    """Batched streams and scalar gets over ~120 keys of 8-64 bytes:
    several times the capacity, so most misses evict."""
    rng = np.random.default_rng(seed)
    keys = np.stack([rng.integers(0, 2, 120), rng.integers(0, N - 8, 120),
                     rng.integers(1, 9, 120)], axis=1)
    for _ in range(12):
        walk = keys[rng.integers(0, len(keys), int(rng.integers(20, 200)))]
        yield "batch", BatchStream(walk[:, 0], walk[:, 1], walk[:, 2])
        for key in keys[rng.integers(0, len(keys), 10)].tolist():
            yield "access", tuple(key)


def drive(cache: ClampiCache, program) -> list:
    out = []
    for op, arg in program:
        if op == "batch":
            durations, hits = cache.access_batch(stream=arg)
            out.append((durations.tolist(), hits.tolist()))
        else:
            out.append(cache.access(*arg)[1:])
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(STOCK))
def test_pressure_stream_matches_per_entry_twin(name, seed):
    stock, oracle = make_twins(name)
    program = list(pressure_program(seed))
    assert drive(stock, program) == drive(oracle, program)
    assert stock.stats.capacity_evictions > 100
    assert stock.stats.conflict_evictions > 0
    if stock.config.score_policy.uses_app_score:
        assert stock.stats.insert_failures > 0   # the guard refused some
    assert_caches_identical(stock, oracle)


@pytest.mark.parametrize("name", sorted(STOCK))
def test_stock_eviction_makes_no_per_entry_score_call(monkeypatch, name):
    stock, oracle = make_twins(name)
    calls = []

    def counting(self, entry, allocator, clock):
        calls.append(entry)
        return original(self, entry, allocator, clock)

    original = ALL[name][0].victim_score
    monkeypatch.setattr(ALL[name][0], "victim_score", counting)
    drive(stock, pressure_program(1))
    assert stock.stats.evictions > 100
    assert calls == []
    # The per-entry twin selects through min: one call per candidate.
    drive(oracle, pressure_program(1))
    assert len(calls) >= oracle.stats.evictions


# -- the sample's draws ---------------------------------------------------------

SIZES = sorted({1, 2, 3} | {2**k + d for k in range(1, 41) for d in (-1, 0, 1)})


@pytest.mark.parametrize("n", SIZES)
def test_draws_are_randranges(n):
    ours, ref = random.Random(n), random.Random(n)
    assert randrange_draws(ours, n, 16) == [ref.randrange(n)
                                            for _ in range(16)]
    assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("n", [0, -1])
def test_draws_from_an_empty_range_raise(n):
    with pytest.raises(ValueError):
        random.Random(1).randrange(n)
    with pytest.raises(ValueError):
        randrange_draws(random.Random(1), n, 1)


def test_victim_sample_is_the_randrange_sample():
    stock, _ = make_twins("lru", sample=5)
    drive(stock, pressure_program(4))
    n = len(stock._entries)
    assert n > 5
    twin = random.Random()
    twin.setstate(stock._rng.getstate())
    sample = [stock._entries[twin.randrange(n)] for _ in range(5)]
    want = min(sample, key=lambda e: e.last_access)
    assert stock._sample_victim()[0] is want
    assert stock._rng.getstate() == twin.getstate()
