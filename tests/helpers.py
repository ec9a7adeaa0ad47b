"""Shared helpers importable from any test module."""

from pathlib import Path

import numpy as np

from repro.core.local import (
    lcc_from_triplets,
    triangles_min_vertex,
    triangles_per_vertex_batched,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    complete_graph,
    ego_circles,
    erdos_renyi,
    powerlaw_configuration,
    ring_of_cliques,
    rmat,
)

#: Where the committed ``BENCH_*.json`` reports and README live.
REPO_ROOT = Path(__file__).resolve().parents[1]


def assert_scores_raw(result, graph: CSRGraph) -> None:
    """``result``'s scores equal the raw, un-memoised counters on ``graph``.

    Two sessions on one graph object read one score record
    (``graph.scores``), so comparing their answers proves nothing about
    the scores; this recounts from the CSR.  The global count is checked
    on every result, an LCC kernel's too: some kernels reduce it apart
    from their per-vertex vectors.
    """
    if result.lcc is None:
        assert (int(result.global_triangles)
                == int(triangles_min_vertex(graph).sum()))
        return
    tpv = triangles_per_vertex_batched(graph)
    np.testing.assert_array_equal(result.triangles_per_vertex, tpv)
    np.testing.assert_array_equal(result.lcc, lcc_from_triplets(graph, tpv))
    assert (int(result.global_triangles)
            == int(tpv.sum()) // (1 if graph.directed else 6))


def make_graph_suite(seed: int = 42) -> list[CSRGraph]:
    """A diverse set of small graphs for cross-implementation checks."""
    return [
        complete_graph(6),
        ring_of_cliques(3, 4),
        rmat(7, 8, seed=seed),
        erdos_renyi(96, 700, seed=seed),
        powerlaw_configuration(128, 900, seed=seed),
        ego_circles(n_egos=2, circle_size=8, n_circles_per_ego=2, seed=seed),
    ]


def cache_maintenance_ops(max_nslots: int, min_capacity: int,
                          max_capacity: int):
    """Hypothesis strategy: one ``(op, a, b)`` cache upkeep step.

    Interpreted by :func:`apply_cache_maintenance`; resizes stay inside the
    calling suite's geometry range.
    """
    from hypothesis import strategies as st

    return st.one_of(
        st.tuples(st.just("invalidate"), st.integers(1, 4), st.just(0)),
        st.tuples(st.just("rekey"), st.integers(1, 4), st.integers(1, 12)),
        st.tuples(st.just("flush"), st.just(0), st.just(0)),
        st.tuples(st.just("resize"), st.integers(2, max_nslots),
                  st.integers(min_capacity, max_capacity)),
    )


def apply_cache_maintenance(cache, op: str, a: int, b: int) -> None:
    """Apply one step drawn from :func:`cache_maintenance_ops` to ``cache``."""
    live = sorted(e.key for e in cache.entries())
    if op == "invalidate":      # every a-th live key, plus one that is absent
        cache.invalidate(live[::a] + [(9, 9, 9)])
    elif op == "rekey":         # slide every a-th key by b; rows may collide
        cache.rekey([(k, (k[0], k[1] + b, k[2])) for k in live[::a]])
    elif op == "flush":
        cache.flush()
    elif op == "resize":
        cache.resize(nslots=a, capacity_bytes=b)
    else:
        raise ValueError(op)


def assert_caches_identical(cache, oracle) -> None:
    """Two ``ClampiCache`` objects cannot be told apart by any later access.

    Statistics and clocks, every live entry with its settled metadata, slot
    and payload, the allocator's free list and used map, the hash index's
    layout and conflict count, and the victim sampler's RNG state.
    """
    def rows(c):
        return [(e.key, e.buffer_offset, e.nbytes, e.last_access,
                 e.n_accesses, e.app_score, e.slot, e.data.tolist())
                for e in c.entries()]

    assert cache.stats.mgmt_time == oracle.stats.mgmt_time
    assert cache.stats.snapshot() == oracle.stats.snapshot()
    assert cache.stats.compulsory_misses == oracle.stats.compulsory_misses
    assert cache._clock == oracle._clock
    assert cache._seen == oracle._seen
    assert rows(cache) == rows(oracle)
    assert cache._free_slots == oracle._free_slots
    assert (list(cache.allocator._free_by_size)
            == list(oracle.allocator._free_by_size))
    assert cache.allocator.used_blocks() == oracle.allocator.used_blocks()
    assert cache.index.conflicts == oracle.index.conflicts
    assert ([s and s[0] for s in cache.index._slots]
            == [s and s[0] for s in oracle.index._slots])
    assert cache._rng.getstate() == oracle._rng.getstate()
    cache.check_invariants()
    oracle.check_invariants()
