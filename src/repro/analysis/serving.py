"""Serving benchmark: FIFO vs cache-affinity scheduling, recorded.

``repro bench serve`` (and :func:`run_serving_bench`) replays the same
deterministic multi-tenant workload through both schedulers, on the
Zipf-skewed popularity the paper targets and on the uniform contrast, and
writes ``BENCH_serve.json`` at the repo root.  The committed report is
the serving layer's gated record: it must show

* **bit-identical per-query answers** between schedulers (scheduling
  changes order and timing, never results), and
* the **cache-affinity scheduler beating FIFO on aggregate throughput**
  for the skewed workload — the paper's per-query reuse effect turned
  into a system-level win.

The simulated numbers (throughput, latency, warm fractions, pool churn)
are deterministic for a given seed; only the ``wall_clock_s`` fields vary
across machines.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.analysis.benchsuite import SCHEMA_VERSION, BenchSuite, Gate
from repro.serve.engine import (
    ServeConfig,
    ServeOutcome,
    ServingEngine,
    answers_identical,
)
from repro.serve.scheduler import make_scheduler
from repro.serve.workload import WorkloadSpec, default_catalog, generate_workload

#: The two popularity regimes the committed report contrasts.
WORKLOAD_NAMES = ("zipf", "uniform")


def serve_fifo_vs_affinity(catalog, requests, config: ServeConfig,
                           store_factory=None
                           ) -> tuple[ServeOutcome, ServeOutcome, bool]:
    """One trace under both schedulers: ``(fifo, affinity, identical)``.

    ``identical`` is the scheduler-independence contract every serving
    scenario gates: per-query answer digests (with observed versions) and
    per-graph version histories equal between the two runs.
    """
    fifo, affinity = (
        ServingEngine(catalog, config, make_scheduler(name),
                      store_factory=store_factory).serve(requests)
        for name in ("fifo", "affinity"))
    return fifo, affinity, answers_identical(fifo, affinity)


def bench_workload_spec(graphs: tuple[str, ...],
                        quick: bool = False) -> WorkloadSpec:
    """The recorded workload: saturating Poisson traffic, Zipf popularity."""
    if quick:
        return WorkloadSpec(n_queries=48, arrival_rate=2000.0, n_tenants=8,
                            graphs=graphs, seed=7)
    return WorkloadSpec(n_queries=240, arrival_rate=2000.0, n_tenants=16,
                        graphs=graphs, seed=7)


def bench_serve_config() -> ServeConfig:
    """Contended pool: fewer resident slots than distinct session keys."""
    return ServeConfig(nranks=8, threads=4, pool_capacity=3)


def run_serving_bench(quick: bool = False) -> dict[str, Any]:
    """Produce the full serving report dict (see module docstring)."""
    catalog = default_catalog(scale=0.4 if quick else 1.0)
    config = bench_serve_config()
    spec = bench_workload_spec(tuple(catalog), quick)
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "quick": quick,
        "serve_config": {
            "nranks": config.nranks,
            "threads": config.threads,
            "pool_capacity": config.pool_capacity,
            "pool_policy": config.pool_policy,
        },
        "catalog": {name: {"vertices": g.n, "edges": g.m}
                    for name, g in catalog.items()},
        "workloads": {},
    }
    for wname in WORKLOAD_NAMES:
        wspec = spec if wname == "zipf" else spec.uniform()
        fifo, aff, identical = serve_fifo_vs_affinity(
            catalog, generate_workload(wspec), config)
        report["workloads"][wname] = {
            "n_queries": wspec.n_queries,
            "arrival_rate_qps": wspec.arrival_rate,
            "n_tenants": wspec.n_tenants,
            "tenant_skew": wspec.tenant_skew,
            "graph_skew": wspec.graph_skew,
            "seed": wspec.seed,
            "schedulers": {"fifo": fifo.aggregates,
                           "affinity": aff.aggregates},
            "results_identical": identical,
            "throughput_ratio": (aff.aggregates["throughput_qps"]
                                 / fifo.aggregates["throughput_qps"]),
            "latency_mean_ratio": (aff.aggregates["latency_mean_s"]
                                   / fifo.aggregates["latency_mean_s"]),
        }
    return report


def _headline(report: Mapping[str, Any]) -> dict[str, Any]:
    workloads = report["workloads"]
    return {
        "zipf_throughput_ratio": float(
            workloads["zipf"]["throughput_ratio"]),
        "uniform_throughput_ratio": float(
            workloads["uniform"]["throughput_ratio"]),
        "results_identical": all(
            row["results_identical"] is True for row in workloads.values()),
    }


SUITE = BenchSuite(
    name="serve",
    doc="FIFO vs cache-affinity on the Zipf and uniform workloads: "
        "per-query answers bit-identical between schedulers, and affinity "
        "beats FIFO on aggregate throughput for the skewed workload",
    run=run_serving_bench,
    keys=("schema_version", "quick", "serve_config", "catalog", "workloads"),
    gates=(
        Gate("workloads.*.results_identical", "is", True,
             "per-query answers are not proven identical between "
             "schedulers (both fifo and affinity must run)"),
        Gate("workloads.zipf.throughput_ratio", ">", 1.0,
             "cache-affinity must beat FIFO on the skewed workload"),
        Gate("workloads.uniform.throughput_ratio", ">", 0.0,
             "the uniform contrast workload must be recorded"),
    ),
    headline=_headline,
)
