"""Async-serving benchmark: overlap, tail latency, and the parity proof.

``repro bench async`` (and :func:`run_async_bench`) records the
cooperative runtime's committed report, ``BENCH_async.json``:

* **steady** — the same steady Zipf+Poisson read/write mix served by the
  serial :class:`~repro.serve.engine.ServingEngine` and the cooperative
  :class:`~repro.serve.engine.AsyncServingEngine`; the committed gate
  requires bit-identical answers/version histories *and* an async p99
  no worse than 1.1 × the serial p99 — the
  cooperative runtime must never buy throughput with tail latency on
  well-behaved traffic;
* **burst** — a bursty, update-heavy mix over the sharded store with
  shard-set-annotated updates (the disjoint-update regime the fence was
  built for): overlapped update application + queries must reach
  ≥ 1.3 × the serial engine's throughput, with
  answers still bit-identical and real overlap measured
  (``overlap_fraction`` > 0);
* **backpressure** — admission control on the simulated clock: shedding
  is deterministic run-to-run, shed qids never appear in the digests,
  and the ``defer`` policy (bounded run queue, nothing dropped) keeps
  full parity with the unbounded run;
* **interleavings** — the headline proof, benched: one workload driven
  through :data:`ASYNC_SEEDS` seeded random cooperative interleavings
  (:class:`~repro.serve.scheduler.InterleaveScheduler`), every one
  pinned bit-identical to the serial oracle.

:data:`SUITE` declares the gate; CI re-runs it on ``--quick`` sizes.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.analysis.benchreport import BENCH_THREADS
from repro.analysis.benchsuite import (
    SCHEMA_VERSION,
    BenchSuite,
    Gate,
)
from repro.serve.engine import (
    AsyncServeConfig,
    AsyncServingEngine,
    ServeConfig,
    ServingEngine,
    answers_identical,
)
from repro.serve.scheduler import FIFOScheduler, InterleaveScheduler
from repro.serve.workload import WorkloadSpec, default_catalog, generate_workload
from repro.shardstore import ShardedGraphStore, annotate_shard_sets

ASYNC_NRANKS = 8
ASYNC_WORKERS = 6

#: Interleaving seeds the parity scenario drives (quick uses a prefix).
ASYNC_SEEDS = tuple(range(8))

ASYNC_SEED = 17

#: Shard geometry for the disjoint-update burst (updates annotated with
#: their touched shard sets so disjoint writers overlap).
ASYNC_NSHARDS = 4


def _serial_config(pool_capacity: int = 4) -> ServeConfig:
    return ServeConfig(nranks=ASYNC_NRANKS, threads=BENCH_THREADS,
                       pool_capacity=pool_capacity)


def _async_config(pool_capacity: int = 4, **kw) -> AsyncServeConfig:
    return AsyncServeConfig(nranks=ASYNC_NRANKS, threads=BENCH_THREADS,
                            pool_capacity=pool_capacity,
                            workers=kw.pop("workers", ASYNC_WORKERS), **kw)


def _pick(aggs: Mapping[str, Any], *keys: str) -> dict[str, Any]:
    return {k: aggs[k] for k in keys if k in aggs}


_AGG_KEYS = ("throughput_qps", "makespan_s", "latency_p50_s",
             "latency_p95_s", "latency_p99_s", "latency_mean_s",
             "warm_fraction", "updates_coalesced", "mean_concurrency",
             "max_concurrency", "overlap_fraction", "n_deferred",
             "n_rejected", "query_slo_attainment")


def bench_steady(quick: bool = False) -> dict[str, Any]:
    """Serial vs cooperative on a steady Zipf+Poisson read/write mix."""
    catalog = default_catalog(scale=0.25 if quick else 0.4)
    spec = WorkloadSpec(
        n_queries=48 if quick else 160, arrival_rate=1500.0,
        n_tenants=8, graphs=tuple(catalog), kernels=("lcc", "tc"),
        seed=ASYNC_SEED, update_mix=0.2)
    requests = generate_workload(spec, catalog)
    serial = ServingEngine(catalog, _serial_config(),
                           scheduler=FIFOScheduler()).serve(requests)
    coop = AsyncServingEngine(catalog, _async_config(),
                              scheduler=FIFOScheduler()).serve(requests)
    p99_serial = serial.aggregates["latency_p99_s"]
    p99_async = coop.aggregates["latency_p99_s"]
    return {
        "n_requests": len(requests),
        "results_identical": answers_identical(serial, coop),
        "p99_serial_s": p99_serial,
        "p99_async_s": p99_async,
        "p99_ratio": p99_async / p99_serial if p99_serial else 0.0,
        "serial": _pick(serial.aggregates, *_AGG_KEYS),
        "async": _pick(coop.aggregates, *_AGG_KEYS),
    }


def bench_burst(quick: bool = False) -> dict[str, Any]:
    """The disjoint-update burst mix: overlapped writers vs the fence.

    Bursty arrivals pile a deep queue; updates carry their touched-shard
    sets against a :class:`~repro.shardstore.sharded.ShardedGraphStore`,
    so disjoint writers — and queries on *other* graphs — overlap
    instead of serializing.  Throughput is the gate; bit-identity stays
    mandatory.
    """
    catalog = default_catalog(scale=0.25 if quick else 0.4)
    spec = WorkloadSpec(
        n_queries=48 if quick else 160, arrival_rate=2500.0,
        n_tenants=10, graphs=tuple(catalog), kernels=("lcc", "tc"),
        seed=ASYNC_SEED, update_mix=0.35, update_edges=8,
        ).bursty(factor=8.0, fraction=0.5)
    requests = generate_workload(spec, catalog)

    def sharded(c):
        return ShardedGraphStore(c, nshards=ASYNC_NSHARDS,
                                 nranks=ASYNC_NRANKS)

    annotated = annotate_shard_sets(requests, sharded(catalog))
    serial = ServingEngine(catalog, _serial_config(), FIFOScheduler(),
                           store_factory=sharded).serve(annotated)
    coop = AsyncServingEngine(catalog, _async_config(), FIFOScheduler(),
                              store_factory=sharded).serve(annotated)
    t_serial = serial.aggregates["throughput_qps"]
    t_async = coop.aggregates["throughput_qps"]
    return {
        "n_requests": len(requests),
        "disjoint_updates": sum(1 for r in annotated
                                if r.is_update and r.shards is not None),
        "results_identical": answers_identical(serial, coop),
        "throughput_serial_qps": t_serial,
        "throughput_async_qps": t_async,
        "throughput_ratio": t_async / t_serial if t_serial else 0.0,
        "p99_serial_s": serial.aggregates["latency_p99_s"],
        "p99_async_s": coop.aggregates["latency_p99_s"],
        "serial": _pick(serial.aggregates, *_AGG_KEYS),
        "async": _pick(coop.aggregates, *_AGG_KEYS),
    }


def bench_backpressure(quick: bool = False) -> dict[str, Any]:
    """Admission control on the simulated clock, pinned three ways."""
    catalog = default_catalog(scale=0.2 if quick else 0.3)
    spec = WorkloadSpec(
        n_queries=40 if quick else 100, arrival_rate=4000.0,
        n_tenants=8, graphs=tuple(catalog), kernels=("lcc",),
        seed=ASYNC_SEED, update_mix=0.2).flash_crowd()
    requests = generate_workload(spec, catalog)
    unbounded = AsyncServingEngine(catalog, _async_config()).serve(requests)
    deferred = AsyncServingEngine(catalog, _async_config(
        max_queue=6, overflow="defer")).serve(requests)
    shed_a = AsyncServingEngine(catalog, _async_config(
        workers=2, max_queue=4, overflow="shed")).serve(requests)
    shed_b = AsyncServingEngine(catalog, _async_config(
        workers=2, max_queue=4, overflow="shed")).serve(requests)
    served_arrival_latency_ok = all(
        abs((r.finish - r.arrival) - r.latency) < 1e-12 and r.start >= r.arrival
        for r in deferred.records)
    return {
        "n_requests": len(requests),
        "defer_identical": answers_identical(unbounded, deferred),
        "n_deferred": deferred.aggregates["n_deferred"],
        "shed_deterministic": (shed_a.rejected_qids() == shed_b.rejected_qids()
                               and shed_a.digests() == shed_b.digests()),
        "n_rejected": len(shed_a.rejected),
        "rejected_absent_from_digests": not (
            shed_a.rejected_qids() & set(shed_a.digests())),
        "deferred_keep_arrival_accounting": bool(served_arrival_latency_ok),
        "defer": _pick(deferred.aggregates, *_AGG_KEYS),
        "shed": _pick(shed_a.aggregates, *_AGG_KEYS),
    }


def bench_interleavings(quick: bool = False) -> dict[str, Any]:
    """The parity battery, benched: seeded interleavings vs the oracle."""
    catalog = default_catalog(scale=0.2 if quick else 0.3)
    spec = WorkloadSpec(
        n_queries=32 if quick else 80, arrival_rate=3000.0,
        n_tenants=6, graphs=tuple(catalog), kernels=("lcc", "tc"),
        seed=ASYNC_SEED, update_mix=0.3)
    requests = generate_workload(spec, catalog)
    serial = ServingEngine(catalog, _serial_config(),
                           scheduler=FIFOScheduler()).serve(requests)
    seeds = ASYNC_SEEDS[:4] if quick else ASYNC_SEEDS
    identical = {}
    overlap = []
    for seed in seeds:
        coop = AsyncServingEngine(
            catalog, _async_config(),
            scheduler=InterleaveScheduler(seed)).serve(requests)
        identical[str(seed)] = answers_identical(serial, coop)
        overlap.append(coop.aggregates["overlap_fraction"])
    return {
        "n_requests": len(requests),
        "seeds": list(seeds),
        "identical": identical,
        "all_identical": all(identical.values()),
        "overlap_fraction_min": min(overlap),
    }


def run_async_bench(quick: bool = False) -> dict[str, Any]:
    """Produce the full async report dict (see module docstring)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "quick": quick,
        "nranks": ASYNC_NRANKS,
        "threads": BENCH_THREADS,
        "workers": ASYNC_WORKERS,
        "steady": bench_steady(quick),
        "burst": bench_burst(quick),
        "backpressure": bench_backpressure(quick),
        "interleavings": bench_interleavings(quick),
    }


def _headline(report: Mapping[str, Any]) -> dict[str, Any]:
    return {
        "burst_speedup": float(report["burst"]["throughput_ratio"]),
        "steady_p99_ratio": float(report["steady"]["p99_ratio"]),
        "overlap_fraction": float(
            report["burst"]["async"]["overlap_fraction"]),
        "interleavings_identical":
            report["interleavings"]["all_identical"] is True,
    }


SUITE = BenchSuite(
    name="async",
    doc="cooperative/serial answer bit-identity in every scenario (incl. "
        "the seeded-interleaving battery); steady-traffic p99 ceiling "
        "(async <= 1.1x serial); 1.3x throughput floor on the "
        "disjoint-update burst mix with measured overlap; deterministic "
        "backpressure (shed qids absent from the digests)",
    run=run_async_bench,
    keys=("schema_version", "quick", "nranks", "threads", "workers",
          "steady", "burst", "backpressure", "interleavings"),
    gates=(
        Gate("steady.results_identical", "is", True,
             "cooperative answers diverged from the serial oracle"),
        Gate("steady.p99_ratio", "<=", 1.1,
             "async p99 is above the ceiling over serial (tail latency "
             "bought with concurrency)"),
        Gate("burst.results_identical", "is", True,
             "cooperative answers diverged from the serial oracle"),
        Gate("burst.throughput_ratio", ">=", 1.3,
             "overlapped throughput over serial is below the floor"),
        Gate("burst.async.overlap_fraction", ">", 0.0,
             "no overlap was measured (the cooperative engine served "
             "serially)"),
        *(Gate(f"backpressure.{field}", "is", True,
               f"backpressure: {field} is false")
          for field in ("defer_identical", "shed_deterministic",
                        "rejected_absent_from_digests",
                        "deferred_keep_arrival_accounting")),
        Gate("interleavings.all_identical", "is", True,
             "an interleaving diverged from the serial oracle"),
        Gate("interleavings.identical.*", "is", True,
             "this seed's interleaving diverged from the serial oracle"),
        Gate("interleavings.seeds", "len>=", 2,
             "fewer than 2 seeds exercised (no battery)"),
    ),
    headline=_headline,
)
