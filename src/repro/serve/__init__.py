"""Multi-tenant query serving over resident :class:`~repro.session.Session`s.

The paper's caching effect is per query: a warm CLaMPI cache makes a
repeated remote-access pattern cheap.  This package turns that into a
system-level property: a bounded pool of resident simulated clusters
(:mod:`repro.serve.pool`), a synthetic multi-tenant query workload with
Poisson arrivals and Zipf-skewed popularity (:mod:`repro.serve.workload`),
pluggable schedulers that decide which queued query runs next
(:mod:`repro.serve.scheduler`), and a serving engine that executes the
workload and accounts per-query latency and aggregate throughput on the
simulated clock (:mod:`repro.serve.engine`).

Quickstart::

    from repro.serve import (CacheAffinityScheduler, ServeConfig,
                             ServingEngine, WorkloadSpec, default_catalog,
                             generate_workload)

    catalog = default_catalog()
    workload = generate_workload(
        WorkloadSpec(n_queries=200, arrival_rate=200.0, n_tenants=12,
                     graphs=tuple(catalog), seed=7))
    engine = ServingEngine(catalog, ServeConfig(pool_capacity=3),
                           scheduler=CacheAffinityScheduler())
    outcome = engine.serve(workload)
    print(outcome.aggregates["throughput_qps"])

``repro bench serve`` runs the same loop on the command line:
``analysis/serving.py`` records the FIFO-vs-affinity comparison in the
committed ``BENCH_serve.json``.
"""

from repro.serve.engine import (
    AsyncServeConfig,
    AsyncServingEngine,
    ServeConfig,
    ServingEngine,
)
from repro.serve.pool import PoolStats, SessionPool
from repro.serve.records import (
    AsyncServeOutcome,
    QueryRecord,
    RejectRecord,
    ServeOutcome,
    UpdateRecord,
    answers_identical,
    concurrency_profile,
    summarize,
)
from repro.serve.request import (
    QueryRequest,
    SessionKey,
    UpdateRequest,
    arrival_order,
)
from repro.serve.scheduler import (
    SCHEDULERS,
    CacheAffinityScheduler,
    FIFOScheduler,
    InterleaveScheduler,
    Scheduler,
    coalescible_updates,
    eligible_requests,
    make_scheduler,
)
from repro.serve.tasks import Task
from repro.serve.workload import (
    WorkloadSpec,
    default_catalog,
    generate_workload,
    zipf_weights,
)

__all__ = [
    "AsyncServeConfig",
    "AsyncServeOutcome",
    "AsyncServingEngine",
    "CacheAffinityScheduler",
    "FIFOScheduler",
    "InterleaveScheduler",
    "PoolStats",
    "QueryRecord",
    "QueryRequest",
    "RejectRecord",
    "SCHEDULERS",
    "Scheduler",
    "ServeConfig",
    "ServeOutcome",
    "ServingEngine",
    "SessionKey",
    "SessionPool",
    "Task",
    "UpdateRecord",
    "UpdateRequest",
    "WorkloadSpec",
    "answers_identical",
    "arrival_order",
    "coalescible_updates",
    "concurrency_profile",
    "default_catalog",
    "eligible_requests",
    "generate_workload",
    "make_scheduler",
    "summarize",
    "zipf_weights",
]
