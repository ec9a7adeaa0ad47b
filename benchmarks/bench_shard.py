"""Shardstore benchmarks: commit barrier cost and routed read bursts.

Wall-clock timings of the sharding layer itself.  The simulated-clock
numbers (read scaling vs replica count, cross- vs single-shard commit
latency, the failover drill) are recorded per PR in ``BENCH_shard.json``
by ``repro bench shard``; here we watch the real cost of the two hot
paths — the k-shard commit barrier with its reassembly digest proof, and
a routed read burst across a replica set.
"""

import pytest

from repro.analysis.serving import bench_serve_config
from repro.dynamic.delta import random_update_batch
from repro.graph.generators import powerlaw_configuration
from repro.serve import generate_workload
from repro.serve.workload import WorkloadSpec
from repro.shardstore import ReplicaSet, ShardedGraphStore
from repro.utils.rng import derive_seed

NRANKS = 8
NSHARDS = 4


@pytest.fixture(scope="module")
def graph():
    return powerlaw_configuration(2000, 12000, gamma=2.4, seed=11)


@pytest.fixture(scope="module")
def batches(graph):
    return [random_update_batch(
        graph, n_edges=64, delete_fraction=0.25,
        seed=derive_seed(11, "bench-shard", r)) for r in range(4)]


def test_cross_shard_commits(benchmark, graph, batches):
    """Full commit barrier: split, per-shard apply, reassemble, prove."""

    def run():
        store = ShardedGraphStore({"g": graph}, nshards=NSHARDS,
                                  nranks=NRANKS)
        for batch in batches:
            store.apply("g", batch)
        return store

    store = benchmark.pedantic(run, iterations=1, rounds=5)
    assert store.version("g").version == len(batches)
    assert store.check_version_vector("g") == []


def test_unsharded_commits(benchmark, graph, batches):
    """The unsharded baseline the barrier overhead is judged against."""
    from repro.graphstore import GraphStore

    def run():
        store = GraphStore({"g": graph})
        for batch in batches:
            store.apply("g", batch)
        return store

    store = benchmark.pedantic(run, iterations=1, rounds=5)
    assert store.version("g").version == len(batches)


def test_replica_read_burst(benchmark):
    """Routed query burst over 3 replicas, resident pools warm."""
    from repro.serve import default_catalog

    catalog = default_catalog(scale=0.4)
    requests = generate_workload(WorkloadSpec(
        n_queries=48, arrival_rate=4000.0, n_tenants=8,
        graphs=tuple(catalog), kernels=("lcc",), update_mix=0.0, seed=7))
    rs = ReplicaSet(catalog, replicas=3, nshards=2, nranks=4)
    outcome = benchmark.pedantic(
        rs.serve_reads, args=(requests, bench_serve_config()),
        iterations=1, rounds=3)
    assert len(outcome.records) == len(requests)
