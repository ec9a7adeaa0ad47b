"""Shared helpers importable from any test module."""

from pathlib import Path

import numpy as np

from repro.core.local import (
    lcc_from_triplets,
    triangles_min_vertex,
    triangles_per_vertex_batched,
)
from repro.graph.csr import CSRGraph
from repro.graph.distributed import DistributedCSR
from repro.graph.generators import (
    complete_graph,
    ego_circles,
    erdos_renyi,
    powerlaw_configuration,
    ring_of_cliques,
    rmat,
)
from repro.runtime.context import SimContext
from repro.runtime.engine import Engine

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


def spy_gets(monkeypatch) -> list:
    """Record every :class:`SimContext` get for the rest of the test.

    Wraps ``SimContext.get`` and ``SimContext.get_nowait`` and appends
    ``(rank, window, target, offset, count)`` per call, in issue order.
    Only the per-edge loops (``fast_path=False``) issue gets one by one;
    the replays price theirs in bulk.
    """
    gets: list = []
    for name in ("get", "get_nowait"):
        def spied(ctx, window, target, offset, count,
                  _original=getattr(SimContext, name)):
            gets.append((ctx.rank, window.name, int(target), int(offset),
                         int(count)))
            return _original(ctx, window, target, offset, count)

        monkeypatch.setattr(SimContext, name, spied)
    return gets


def window_parts(graph: CSRGraph, partition
                 ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Every rank's ``(offsets, adjacency)`` window parts of ``graph``
    distributed over ``partition``."""
    dist = DistributedCSR(graph, partition, Engine(partition.nranks))
    ranks = range(partition.nranks)
    return ([dist.w_offsets.local_part(r) for r in ranks],
            [dist.w_adj.local_part(r) for r in ranks])


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
    live = np.array(sorted(e.key for e in cache.entries()),
                    dtype=np.int64).reshape(-1, 3)
    if op == "invalidate":      # every a-th live key, plus one that is absent
        cache.invalidate(np.concatenate([live[::a], [(9, 9, 9)]]))
    elif op == "rekey":         # slide every a-th key by b; rows may collide
        cache.rekey(live[::a], live[::a] + (0, b, 0))
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
