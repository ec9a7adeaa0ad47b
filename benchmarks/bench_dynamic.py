"""Dynamic-graph benchmarks: delta merge, incremental fold, warm resync.

Wall-clock timings of the write path.  The recorded trajectory numbers
(incremental-vs-full speedup, retained hit rates) live in
``BENCH_dynamic.json`` via ``repro bench dynamic``; here we watch the
real cost of the building blocks: the vectorized CSR merge, the
incremental fold against its full-recompute oracle, and a resident
session absorbing an update (slice resync + targeted invalidation)
followed by a still-warm query.
"""

import pytest

from repro.analysis.benchreport import bench_graphs
from repro.core.config import CacheSpec, LCCConfig
from repro.core.local import triangles_min_vertex, triangles_per_vertex_batched
from repro.dynamic import IncrementalState, apply_delta, random_update_batch
from repro.session import Session


@pytest.fixture(scope="module")
def graph():
    return bench_graphs(quick=True)["powerlaw-s"]


@pytest.fixture(scope="module")
def batch(graph):
    return random_update_batch(graph, 12, 0.25, seed=7)


def test_apply_delta(benchmark, graph, batch):
    res = benchmark(apply_delta, graph, batch, strict=False)
    assert res.changed


@pytest.fixture(scope="module")
def counts(graph):
    """Precomputed full results: the fold alone is what gets timed."""
    return triangles_per_vertex_batched(graph), triangles_min_vertex(graph)


def test_incremental_fold(benchmark, graph, batch, counts):
    tpv0, tmin0 = counts

    def fold():
        # apply() copies tpv/tmin before scattering, so sharing the
        # precomputed arrays across rounds is safe.
        return IncrementalState(graph, tpv=tpv0, tmin=tmin0).apply(batch)

    res = benchmark(fold)
    assert res.affected.size


def test_full_recompute_oracle(benchmark, graph, batch):
    new_graph = apply_delta(graph, batch, strict=False).graph
    benchmark(lambda: (triangles_per_vertex_batched(new_graph),
                       triangles_min_vertex(new_graph)))


def test_session_update_then_warm_query(benchmark, graph, batch):
    config = LCCConfig(nranks=8, threads=4,
                       cache=CacheSpec.relative(graph.nbytes, 0.5, 1.0))

    def cycle():
        with Session(graph, config) as session:
            session.run("lcc", keep_cache=True)
            outcome = session.apply_updates(batch)
            post = session.run("lcc", keep_cache=True)
        return outcome, post

    outcome, post = benchmark.pedantic(cycle, iterations=1, rounds=3)
    assert outcome.retained_entries > 0
    assert post.warm_cache
