"""Victim selection: ``ScorePolicy.pick`` against the per-entry oracle.

``victim_score`` scores one entry record and stays the oracle; ``pick`` is
the one call a victim selection makes, over candidate rows of a
:class:`SlotTable`.  The stock policies override ``pick`` with a loop over
the rows' column values, which must return the very row ``min(rows,
key=victim_score of the row's record)`` returns, with the same score bits;
the extended policies and any subclass that only redefines
``victim_score`` select through the base ``min``.  The victim sample's
draws must be exactly ``randrange``'s.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clampi.allocator import BufferAllocator
from repro.clampi.cache import BatchStream, ClampiCache, ClampiConfig, SlotTable
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


def slot_table(rows) -> SlotTable:
    """A table of ``(key, offset, nbytes, app_score, n_accesses,
    last_access)`` rows (no payloads)."""
    table = SlotTable(np.int64)
    for row in rows:
        table.append(*row)
    return table


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
    table = slot_table([((0, i, size), offset, size, draw(app_scores),
                         draw(st.integers(1, 5)), draw(st.integers(0, clock)))
                        for i, (offset, size) in enumerate(live)])
    # Rows drawn with replacement: repeated candidates, equal scores.
    rows = draw(st.lists(st.integers(0, len(table) - 1),
                         min_size=1, max_size=20))
    return alloc, clock, table, rows


@pytest.mark.parametrize("name", sorted(ALL))
@given(selection=selections())
@settings(max_examples=150, deadline=None)
def test_pick_is_min_over_victim_score(name, selection):
    alloc, clock, table, rows = selection
    policy = make_policy(name)

    def score(row):
        return policy.victim_score(table.record(row), alloc, clock)

    victim, got = policy.pick(rows, table, alloc, clock)
    want = min(rows, key=score)
    assert victim == want
    assert bits(got) == bits(score(want))


def test_stock_policies_loop_and_the_rest_select_through_min():
    for name in STOCK:
        assert type(make_policy(name)).pick is not ScorePolicy.pick, name
    for name in EXTENDED:
        assert type(make_policy(name)).pick is ScorePolicy.pick, name
    for name in ALL:   # a redefined per-entry score is never bypassed
        assert type(make_policy(name, True)).pick is ScorePolicy.pick, name


def test_ties_go_to_the_first_candidate():
    alloc = BufferAllocator(16)     # two full blocks: no free neighbours
    table = slot_table([((0, i, 8), alloc.alloc(8), 8, 1.0, 1, 3)
                        for i in range(2)])
    a, b = 0, 1
    for name in ALL:
        policy = make_policy(name)
        assert policy.pick([a, b, a], table, alloc, 10)[0] == a, name
        assert policy.pick([b, a, b], table, alloc, 10)[0] == b, name
        assert policy.pick([b, a], table, alloc, 0)[0] == b, name


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
    calls, guard_calls = [], []

    def counting(self, entry, allocator, clock):
        # A newcomer the app-score guard scores is no live row (slot -1).
        (calls if entry.slot >= 0 else guard_calls).append(entry)
        return original(self, entry, allocator, clock)

    original = ALL[name][0].victim_score
    monkeypatch.setattr(ALL[name][0], "victim_score", counting)
    drive(stock, pressure_program(1))
    assert stock.stats.evictions > 100
    assert calls == []
    # The guard scores each insert scalar ``access`` attempts, once; every
    # size here is cacheable, so those are the misses no fill run served.
    inserts = stock.stats.misses - stock.run_counts["filled_entries"]
    guarded = stock.config.score_policy.uses_app_score
    assert len(guard_calls) == (inserts if guarded else 0)
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
    n = len(stock)
    assert n > 5
    twin = random.Random()
    twin.setstate(stock._rng.getstate())
    sample = [twin.randrange(n) for _ in range(5)]
    want = min(sample, key=stock._table.last_access.__getitem__)
    assert stock._sample_victim()[0] == want
    assert stock._rng.getstate() == twin.getstate()
