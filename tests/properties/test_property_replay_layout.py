"""The replay's slot table folds to the loop oracle's bits, at any shape.

``core/replay.py`` writes every rank's charges into one table, rank
after rank, with ``0.0`` in the slots an edge does not use, and sums each
rank's segment with one cumsum from ``0.0``.  That equals each loop's
compact ``+=`` sequence only because ``x + 0.0 == x`` bit for bit for
every duration ``x >= 0``, and only if no rank's fold reads a neighbour's
slots — the preconditions this file pins on shapes the end-to-end parity
suites only sample: zero-edge vertices, empty ranks, one giant vertex,
all-remote and all-local ranks, charges of 0.0, subnormals and mixed
magnitudes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.replay import SlotTable, get_totals

#: Charge palette: exact zero, subnormals, the smallest normal, and the
#: 1e-9 .. 1e3 range simulated durations actually span.
SPECIALS = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308])


def draw_charges(rng: np.random.Generator, size: int) -> np.ndarray:
    out = 10.0 ** rng.uniform(-9.0, 3.0, size)
    special = rng.random(size) < 0.3
    out[special] = rng.choice(SPECIALS, int(special.sum()))
    return out


def walk_loop(e_degs, remote, own, get1, get2, read, kern, tail, overlap):
    """``(clock, comp_time)`` accumulated in the loop oracles' program order
    (``_lcc_rank_fn`` / ``_tc_rank_fn``; ``tail=None`` is TC: no charge)."""
    now = comp = 0.0
    e = 0

    def fetch(n):  # read_adjacency_timed: trace now, return the duration
        nonlocal comp
        if remote[n]:
            return get1[n] + get2[n]
        comp += read[n]
        return read[n]

    for v, deg in enumerate(e_degs):
        now += own[v]
        comp += own[v]
        if overlap and deg:  # the first fetch cannot be hidden
            now += fetch(e)
        for i in range(deg):
            if not overlap:  # read_adjacency: every get advances the clock
                if remote[e]:
                    now += get1[e]
                    now += get2[e]
                else:
                    now += read[e]
                    comp += read[e]
                now += kern[e]
            elif i + 1 < deg:  # edge i+1's fetch is issued before kernel i
                now += max(kern[e], fetch(e + 1))
            else:
                now += kern[e]
            comp += kern[e]
            e += 1
        if tail is not None:
            now += tail
            comp += tail
    return now, comp


@st.composite
def rank_shapes(draw):
    """Per-vertex edge counts: small vertices, optionally one giant one."""
    e_degs = draw(st.lists(st.integers(min_value=0, max_value=5),
                           max_size=10))
    if e_degs and draw(st.booleans()):
        e_degs[draw(st.integers(0, len(e_degs) - 1))] = draw(
            st.integers(min_value=20, max_value=200))
    return e_degs


@given(st.lists(rank_shapes(), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=2**31),
       st.sampled_from([0.0, 0.5, 1.0]), st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_table_fold_equals_loop_order(ranks, seed, remote_frac, overlap,
                                      lcc):
    """Each rank's segment of the cluster table folds to its own loop."""
    rng = np.random.default_rng(seed)
    e_degs = [deg for rank in ranks for deg in rank]
    n_v, n_e = len(e_degs), sum(e_degs)
    remote = rng.random(n_e) < remote_frac
    own = draw_charges(rng, n_v)
    get1, get2, read, kern = (draw_charges(rng, n_e) for _ in range(4))
    tail = float(draw_charges(rng, 1)[0]) if lcc else None

    want = []
    v0 = e0 = 0
    for rank in ranks:
        v1, e1 = v0 + len(rank), e0 + sum(rank)
        want.append(walk_loop(
            rank, remote[e0:e1], own[v0:v1].tolist(), get1[e0:e1].tolist(),
            get2[e0:e1].tolist(), read[e0:e1].tolist(),
            kern[e0:e1].tolist(), tail, overlap))
        v0, e0 = v1, e1
    vbound = np.cumsum([0] + [len(rank) for rank in ranks])
    table = SlotTable(np.asarray(e_degs, dtype=np.int64), vbound)
    tail = tail if lcc else 0.0
    got = zip(table.clock(overlap, own, remote, read[~remote], get1[remote],
                          get2[remote], kern, tail),
              table.comp(overlap, own, remote, read[~remote], kern, tail))
    assert [[x.hex() for x in pair] for pair in got] == \
        [[x.hex() for x in pair] for pair in want]


def test_get_totals_over_zero_gets_is_exact_zeros():
    """A single-rank run issues no remote get: every field is exactly 0."""
    totals = get_totals(np.zeros(0), np.zeros(0, dtype=bool),
                        np.zeros(0, dtype=np.int64), np.array([0, 0]))
    assert totals == dict(n_remote_gets=[0], n_cache_hits=[0],
                          bytes_remote=[0], bytes_cached=[0],
                          comm_time=[0.0], cache_time=[0.0])
    assert all(type(v[0]) in (int, float) for v in totals.values())
    assert totals["comm_time"][0].hex() == "0x0.0p+0"
    assert totals["cache_time"][0].hex() == "0x0.0p+0"


def charge_gets(dur, hit, nbytes) -> dict:
    """One rank's get fields, accumulated get by get in program order as
    the loop's ``SimContext.get`` charges them."""
    out = dict(n_remote_gets=0, n_cache_hits=0, bytes_remote=0,
               bytes_cached=0, comm_time=0.0, cache_time=0.0)
    for d, h, b in zip(dur.tolist(), hit.tolist(), nbytes.tolist()):
        if h:
            out["n_cache_hits"] += 1
            out["bytes_cached"] += b
            out["cache_time"] += d
        else:
            out["n_remote_gets"] += 1
            out["bytes_remote"] += b
            out["comm_time"] += d
    return out


@given(st.lists(st.integers(min_value=0, max_value=40), min_size=1,
                max_size=6),
       st.integers(min_value=0, max_value=2**31),
       st.sampled_from([0.0, 0.5, 1.0]))
@settings(max_examples=200, deadline=None)
def test_get_totals_equal_each_ranks_charges(lengths, seed, hit_frac):
    """The cluster's totals — misses and hits compacted across every rank,
    then cut at per-rank bounds — equal each rank's own get-by-get
    charges, bit for bit, empty ranks included."""
    rng = np.random.default_rng(seed)
    bounds = np.cumsum([0] + lengths)
    dur = draw_charges(rng, int(bounds[-1]))
    hit = rng.random(dur.shape[0]) < hit_frac
    nbytes = rng.integers(0, 1 << 20, dur.shape[0])
    got = get_totals(dur, hit, nbytes, bounds)
    for r, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        want = charge_gets(dur[lo:hi], hit[lo:hi], nbytes[lo:hi])
        mine = {name: values[r] for name, values in got.items()}
        for name in ("comm_time", "cache_time"):
            assert mine.pop(name).hex() == want.pop(name).hex(), name
        assert mine == want
