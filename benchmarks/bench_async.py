"""Async-serving benchmarks: cooperative scheduling overhead and overlap.

Wall-clock timings of the cooperative runtime itself.  The
simulated-clock numbers (steady p99 ceiling, burst throughput floor,
backpressure determinism, the interleaving parity battery) are recorded
per PR in ``BENCH_async.json`` by ``repro bench async``; here we
watch the real cost of the event loop — a bursty disjoint-update mix
driven through the cooperative engine vs the serial engine on the same
requests, and one full parity round including the oracle comparison.
"""

import pytest

from repro.serve import (
    AsyncServeConfig,
    AsyncServingEngine,
    FIFOScheduler,
    InterleaveScheduler,
    ServeConfig,
    ServingEngine,
    answers_identical,
    default_catalog,
    generate_workload,
)
from repro.serve.workload import WorkloadSpec
from repro.shardstore import ShardedGraphStore, annotate_shard_sets

NRANKS = 8
NSHARDS = 4
WORKERS = 6


@pytest.fixture(scope="module")
def catalog():
    return default_catalog(scale=0.25)


@pytest.fixture(scope="module")
def burst_requests(catalog):
    spec = WorkloadSpec(
        n_queries=64, arrival_rate=2500.0, n_tenants=10,
        graphs=tuple(catalog), kernels=("lcc", "tc"), seed=17,
        update_mix=0.35, update_edges=8).bursty(factor=8.0, fraction=0.5)
    requests = generate_workload(spec, catalog)
    store = ShardedGraphStore(catalog, nshards=NSHARDS, nranks=NRANKS)
    return annotate_shard_sets(requests, store)


def _sharded(c):
    return ShardedGraphStore(c, nshards=NSHARDS, nranks=NRANKS)


def test_cooperative_burst(benchmark, catalog, burst_requests):
    """Full event loop on the disjoint-update burst: the overlap path."""
    config = AsyncServeConfig(nranks=NRANKS, pool_capacity=4,
                              workers=WORKERS)

    def run():
        engine = AsyncServingEngine(catalog, config, FIFOScheduler(),
                                    store_factory=_sharded)
        return engine.serve(burst_requests)

    outcome = benchmark.pedantic(run, iterations=1, rounds=5)
    assert (len(outcome.records) + len(outcome.update_records)
            == len(burst_requests))
    assert outcome.aggregates["max_concurrency"] > 1


def test_serial_burst(benchmark, catalog, burst_requests):
    """The serial baseline the cooperative loop's overhead is judged by."""
    config = ServeConfig(nranks=NRANKS, pool_capacity=4)

    def run():
        engine = ServingEngine(catalog, config, FIFOScheduler(),
                               store_factory=_sharded)
        return engine.serve(burst_requests)

    outcome = benchmark.pedantic(run, iterations=1, rounds=5)
    assert (len(outcome.records) + len(outcome.update_records)
            == len(burst_requests))


def test_interleaving_parity_round(benchmark, catalog):
    """One parity round: seeded interleaving + oracle digest comparison."""
    spec = WorkloadSpec(
        n_queries=40, arrival_rate=2000.0, n_tenants=8,
        graphs=tuple(catalog), kernels=("lcc",), seed=23, update_mix=0.3)
    requests = generate_workload(spec, catalog)
    serial = ServingEngine(
        catalog, ServeConfig(nranks=NRANKS, pool_capacity=4),
        FIFOScheduler()).serve(requests)
    config = AsyncServeConfig(nranks=NRANKS, pool_capacity=4,
                              workers=WORKERS)

    def run():
        coop = AsyncServingEngine(
            catalog, config, InterleaveScheduler(seed=5)).serve(requests)
        return answers_identical(serial, coop)

    identical = benchmark.pedantic(run, iterations=1, rounds=5)
    assert identical
