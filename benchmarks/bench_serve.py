"""Serving-layer benchmarks: scheduler policies under contended pools.

Wall-clock timings of the query-serving engine draining the standard
Zipf-skewed workload through each scheduler.  The simulated-clock
comparison (throughput, latency, warm fractions) is recorded per PR in
``BENCH_serve.json`` by ``repro bench serve``; here we watch the real
cost of the serving loop itself — the affinity batching also makes the
*simulation* cheaper, because warm queries ride the batched cache replay.
"""

import pytest

from repro.analysis.serving import bench_serve_config, bench_workload_spec
from repro.serve import ServingEngine, default_catalog, generate_workload, make_scheduler
from repro.serve.workload import WorkloadSpec


@pytest.fixture(scope="module")
def catalog():
    return default_catalog(scale=0.5)


@pytest.fixture(scope="module")
def skewed_requests(catalog):
    return generate_workload(bench_workload_spec(tuple(catalog), quick=True))


@pytest.fixture(scope="module")
def uniform_requests(catalog):
    return generate_workload(
        bench_workload_spec(tuple(catalog), quick=True).uniform())


@pytest.mark.parametrize("scheduler", ["fifo", "affinity"])
def test_serve_zipf_workload(benchmark, catalog, skewed_requests, scheduler):
    engine = ServingEngine(catalog, bench_serve_config(),
                           make_scheduler(scheduler))
    outcome = benchmark.pedantic(engine.serve, args=(skewed_requests,),
                                 iterations=1, rounds=3)
    assert outcome.aggregates["n_queries"] == len(skewed_requests)


@pytest.mark.parametrize("scheduler", ["fifo", "affinity"])
def test_serve_uniform_workload(benchmark, catalog, uniform_requests,
                                scheduler):
    engine = ServingEngine(catalog, bench_serve_config(),
                           make_scheduler(scheduler))
    outcome = benchmark.pedantic(engine.serve, args=(uniform_requests,),
                                 iterations=1, rounds=3)
    assert outcome.aggregates["n_queries"] == len(uniform_requests)


def test_workload_generation(benchmark, catalog):
    """Generating a large trace is pure NumPy and should stay cheap."""
    spec = WorkloadSpec(n_queries=20000, arrival_rate=5000.0, n_tenants=64,
                        graphs=tuple(catalog), seed=3)
    requests = benchmark(generate_workload, spec)
    assert len(requests) == 20000
