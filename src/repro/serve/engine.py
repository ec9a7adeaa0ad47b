"""The serving engines: serial oracle and cooperative async runtime.

Two engines share one vocabulary (:mod:`repro.serve.records`), one task
model boundary and one commit path:

* :class:`ServingEngine` — the **serial oracle**.  One request at a
  time on the simulated clock; every answer digest and version history
  it produces is the reference the async engine is pinned against.
* :class:`AsyncServingEngine` — the **cooperative runtime**.  Requests
  become resumable tasks (:mod:`repro.serve.tasks`) multiplexed over
  ``workers`` logical workers by a discrete-event loop on the simulated
  clock: queries against disjoint (graph, shard-set) keys overlap with
  update application instead of serializing behind the per-graph fence.
  It adds the adaptive **coalescing window** (an admitted update leader
  holds for a bounded window to absorb rider updates — never past its
  deadline), **admission control + backpressure** (bounded run queue
  with a shed-or-defer overflow policy), and starvation-bounded
  dispatch.

Time is accounted on two clocks at once:

* the **simulated clock** advances by each request's simulated job time
  (:attr:`DistributedRunResult.time` — the paper's longest-rank metric),
  so queueing latency, overlap and throughput are properties of the
  modeled cluster, not of the Python interpreter;
* **wall time** is measured per request too, because the repo's batched
  replay makes warm queries cheaper *to simulate* as well.

Python execution stays sequential — overlap is a property of the
simulated timeline.  That is what makes the safety argument airtight:
the event loop processes completions in deterministic simulated order,
so for a fixed workload and scheduler the run is bit-reproducible, and
the per-(graph, shard-set) fences guarantee any interleaving observes
the same versions and returns the same bits as the serial oracle (the
property suite drives randomized interleavings to pin exactly that).

**Updates** are writes against the
:class:`~repro.graphstore.store.GraphStore`, not against any one
session: an :class:`~repro.serve.request.UpdateRequest` commits its edge
batch to the store — advancing the graph's single
:class:`~repro.graphstore.store.GraphVersion` — and the resulting delta
is propagated to **every** resident session of that graph (any variant),
each resyncing surgically (touched 1D slices, touched 2D blocks,
targeted CLaMPI invalidation + rekeying).  Consecutive queued updates
for one graph are **coalesced**: each still commits its own version (so
the history is scheduler-independent), but the expensive resident resync
runs once, on the merged delta of a single
:class:`~repro.dynamic.delta.DeltaBuffer` flush — pinned equal to
sequential application.  The queue is pre-filtered through the
per-graph update fences (:func:`~repro.serve.scheduler
.eligible_requests`) before any scheduler pick, and update digests are
the store's *chained* history digests — so the identical-answers check
proves every scheduler serialized each graph's reads and writes, and
its version history, the same way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro.core.config import CacheSpec, LCCConfig
from repro.dynamic.delta import DeltaBuffer, UpdateBatch, apply_delta
from repro.graph.csr import CSRGraph
from repro.graphstore.store import GraphStore, graph_digest
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import activate
from repro.obs.trace import span as obs_span
from repro.serve.pool import SessionPool
from repro.serve.records import (
    AsyncServeOutcome,
    QueryRecord,
    RejectRecord,
    ServeOutcome,
    UpdateRecord,
    answers_identical,
    concurrency_profile,
    result_digest,
    summarize,
)
from repro.serve.request import QueryRequest, UpdateRequest, arrival_order
from repro.serve.scheduler import (
    FIFOScheduler,
    Scheduler,
    coalescible_updates,
    eligible_requests,
)
from repro.serve.tasks import (
    Acquire,
    Commit,
    Committed,
    Executed,
    Hold,
    Run,
    Task,
    effect_name,
    make_task,
)
from repro.utils.errors import ConfigError, SimulationError

__all__ = [
    "AsyncServeConfig",
    "AsyncServingEngine",
    "QueryRecord",
    "RejectRecord",
    "ServeConfig",
    "ServeOutcome",
    "AsyncServeOutcome",
    "ServingEngine",
    "UpdateRecord",
    "answers_identical",
    "summarize",
]


@dataclass(frozen=True)
class ServeConfig:
    """Cluster shape + pool sizing every served query shares."""

    nranks: int = 8
    threads: int = 4
    cache_offsets_fraction: float = 0.5   # of each graph's CSR bytes
    cache_adj_fraction: float = 1.0
    pool_capacity: int = 3
    pool_policy: str = "lru"

    def __post_init__(self) -> None:
        if self.cache_offsets_fraction < 0 or self.cache_adj_fraction < 0:
            raise ConfigError("cache fractions must be >= 0")

    def session_config(self, graph: CSRGraph, overrides: dict) -> LCCConfig:
        """The LCCConfig a resident session for ``graph`` is built with."""
        cache = None
        if self.cache_offsets_fraction or self.cache_adj_fraction:
            cache = CacheSpec.relative(graph.nbytes,
                                       self.cache_offsets_fraction,
                                       self.cache_adj_fraction)
        return LCCConfig(nranks=self.nranks, threads=self.threads,
                         cache=cache, **overrides)


@dataclass(frozen=True)
class AsyncServeConfig(ServeConfig):
    """Cooperative-runtime knobs on top of the shared cluster shape.

    * ``workers`` — logical concurrency: how many tasks may occupy the
      simulated timeline at once.  ``workers=1`` degenerates to serial
      service order (a useful sanity anchor for the parity tests).
    * ``max_queue`` / ``overflow`` — admission control: a request
      arriving while ``max_queue`` admitted requests wait is either
      **deferred** (admitted later, keeping arrival-order latency
      accounting — latency still counts from its true arrival) or
      **shed** (rejected outright; it never executes, never commits and
      never appears in the answer digests).  ``max_queue=0`` disables
      the bound.
    * ``coalesce_window_s`` / ``adaptive_window`` — group commit: an
      admitted update leader holds for a bounded window to absorb rider
      updates into one resident resync.  The window never extends past
      ``arrival + slo_update_s`` (the deadline bound the fairness tests
      pin) and closes early when a query on the graph arrives.  The
      adaptive controller halves the window after an empty hold and
      re-doubles it (capped at the configured base) after an absorbing
      one, so idle graphs stop paying hold latency.
    * ``starvation_limit`` — fairness: a runnable request passed over
      this many dispatch decisions is dispatched before any other,
      whatever the policy says, bounding every admitted request's wait
      in scheduler steps.
    """

    workers: int = 4
    max_queue: int = 0                 # 0 = unbounded run queue
    overflow: str = "defer"            # "defer" | "shed"
    coalesce_window_s: float = 0.01
    adaptive_window: bool = True
    slo_query_s: float = 0.5
    slo_update_s: float = 0.05
    starvation_limit: int = 64

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.max_queue < 0:
            raise ConfigError(f"max_queue must be >= 0, got {self.max_queue}")
        if self.overflow not in ("defer", "shed"):
            raise ConfigError(f"unknown overflow policy {self.overflow!r}; "
                              "expected 'defer' or 'shed'")
        if self.coalesce_window_s < 0:
            raise ConfigError("coalesce_window_s must be >= 0, got "
                              f"{self.coalesce_window_s}")
        if self.slo_query_s <= 0 or self.slo_update_s <= 0:
            raise ConfigError("SLO bounds must be > 0")
        if self.starvation_limit < 1:
            raise ConfigError("starvation_limit must be >= 1, got "
                              f"{self.starvation_limit}")


def _commit_update_group(store, pool: SessionPool,
                         group: list[UpdateRequest]
                         ) -> tuple[list, dict, float]:
    """Commit a coalesced run of updates for one graph.

    Every member advances the store by its own version (the history is
    per-request, hence scheduler-independent), but the resident resync
    runs once: the group's operations merge through a single
    :class:`~repro.dynamic.delta.DeltaBuffer` flush whose last-
    writer-wins result is pinned equal to the sequential chain, and that
    one merged delta propagates to every resident session of the graph.
    Shared by both engines.  Returns ``(store updates, combined outcome
    fields, simulated service seconds)``.
    """
    name = group[0].graph
    pre_graph = store.graph(name)
    updates = []
    for req in group:
        batch = UpdateBatch.build(req.inserts, req.deletes,
                                  n=pre_graph.n,
                                  directed=pre_graph.directed)
        updates.append(store.apply(name, batch,
                                   coalesced=len(group) - 1))
    final = store.graph(name)
    if len(group) == 1:
        combined = updates[0].delta
    else:
        buffer = DeltaBuffer(pre_graph.n, pre_graph.directed)
        for req in group:
            if req.inserts is not None:
                buffer.insert_edges(req.inserts)
            if req.deletes is not None:
                buffer.delete_edges(req.deletes)
        combined = apply_delta(pre_graph, buffer.freeze(), strict=False)
        if graph_digest(combined.graph) != graph_digest(final):
            # Coalesced == sequential is a structural invariant (the
            # property suite pins it); serving stale resident slices
            # would be silent corruption, so fail loudly.
            raise SimulationError(
                f"coalesced flush for {name!r} diverged from the "
                "sequential version chain")
        # Resync resident state to the chain's own head snapshot so
        # sessions and store share one graph object.
        combined.graph = final
    outcomes = [session.sync_to(combined)
                for _, session in pool.sessions_of(name)]
    service = max((o.time for o in outcomes), default=0.0)
    fields = {
        "n_affected": int(combined.affected.shape[0]),
        "invalidated_entries": sum(o.invalidated_entries
                                   for o in outcomes),
        "retained_entries": sum(o.retained_entries for o in outcomes),
        "rekeyed_entries": sum(o.rekeyed_entries for o in outcomes),
        "sessions_synced": len(outcomes),
    }
    return updates, fields, service


class ServingEngine:
    """Drain workloads against a catalog with one scheduler and one pool.

    The serial oracle: one request at a time, per-graph fences enforced
    before every pick.  Its digests and version histories define what
    "correct" means for the cooperative engine.
    """

    def __init__(self, catalog: dict[str, CSRGraph],
                 config: ServeConfig | None = None,
                 scheduler: Scheduler | None = None,
                 store_factory=None):
        self.catalog = catalog
        self.config = config or ServeConfig()
        self.scheduler = scheduler or FIFOScheduler()
        #: ``catalog -> store``; defaults to a plain GraphStore.  A
        #: sharded serving run passes e.g. ``lambda c:
        #: ShardedGraphStore(c, nshards=4)`` — any store duck-typing the
        #: GraphStore surface (graph/apply/version/digest/names) works.
        self.store_factory = store_factory

    def _make_store(self):
        if self.store_factory is not None:
            return self.store_factory(self.catalog)
        return GraphStore(self.catalog)

    def _commit_updates(self, store, pool: SessionPool,
                        group: list[UpdateRequest]) -> tuple[list, Any, float]:
        return _commit_update_group(store, pool, group)

    def serve(self, requests: list[QueryRequest]) -> ServeOutcome:
        """Serve every request; returns records + aggregates.

        The graph store and pool are fresh per call (a serving run is
        self-contained), the scheduler is reset, and the loop is fully
        deterministic for a deterministic workload — wall-clock fields
        aside.
        """
        if not requests:
            raise ConfigError("cannot serve an empty workload")
        config, scheduler = self.config, self.scheduler
        scheduler.reset()
        records: list[QueryRecord] = []
        update_records: list[UpdateRecord] = []
        updates_coalesced = 0
        pending = sorted(requests, key=arrival_order)
        queue: list = []
        clock = 0.0
        last_key = None
        t_run = time.perf_counter()
        store = self._make_store()
        with SessionPool(store, config.session_config,
                         capacity=config.pool_capacity,
                         policy=config.pool_policy) as pool:
            while pending or queue:
                if not queue:               # idle server: jump to next arrival
                    clock = max(clock, pending[0].arrival)
                while pending and pending[0].arrival <= clock:
                    queue.append(pending.pop(0))
                # Per-graph update fences are enforced here, before any
                # policy runs: no scheduler can reorder a graph's reads
                # around its writes.
                req = scheduler.pick(eligible_requests(queue), last_key, pool)
                t0 = time.perf_counter()
                if req.is_update:
                    group = [req] + coalescible_updates(queue, req)
                    for member in group:
                        queue.remove(member)
                    updates_coalesced += len(group) - 1
                    updates, fields, service = self._commit_updates(
                        store, pool, group)
                    wall = time.perf_counter() - t0
                    start = max(clock, req.arrival)
                    finish = start + service
                    clock = finish
                    last_key = req.session_key
                    for i, (r, u) in enumerate(zip(group, updates)):
                        head = i == 0
                        update_records.append(UpdateRecord(
                            qid=r.qid, tenant=r.tenant, graph=r.graph,
                            arrival=r.arrival, start=start, finish=finish,
                            service_s=service if head else 0.0,
                            wall_s=wall if head else 0.0,
                            n_inserted=u.delta.n_inserted,
                            n_deleted=u.delta.n_deleted,
                            version=u.version.version,
                            digest=u.digest,
                            coalesced=not head,
                            **(fields if head else {
                                "n_affected": int(u.delta.affected.shape[0]),
                                "invalidated_entries": 0,
                                "retained_entries": 0,
                                "rekeyed_entries": 0,
                                "sessions_synced": 0,
                            })))
                    continue
                queue.remove(req)
                session, built = pool.acquire(req.session_key)
                result = session.run(req.kernel, keep_cache=True)
                wall = time.perf_counter() - t0
                service = float(result.time)
                start = max(clock, req.arrival)
                finish = start + service
                clock = finish
                last_key = req.session_key
                stats = result.adj_cache_stats
                version = store.version(req.graph).version
                records.append(QueryRecord(
                    qid=req.qid, tenant=req.tenant, graph=req.graph,
                    kernel=req.kernel, arrival=req.arrival, start=start,
                    finish=finish, service_s=service, wall_s=wall,
                    warm_cache=result.warm_cache, built_session=built,
                    adj_hit_rate=(None if stats is None
                                  else float(stats["hit_rate"])),
                    version=version,
                    digest=result_digest(result, version)))
            pool_stats = pool.stats.as_dict()
        wall_clock = time.perf_counter() - t_run
        records.sort(key=lambda r: r.qid)
        update_records.sort(key=lambda r: r.qid)
        outcome = ServeOutcome(
            scheduler=scheduler.name, records=records,
            pool_stats=pool_stats, wall_clock_s=wall_clock,
            update_records=update_records,
            graph_versions={name: (store.version(name).version,
                                   store.digest(name))
                            for name in store.names()})
        outcome.aggregates = summarize(records, pool_stats, wall_clock,
                                       update_records, updates_coalesced)
        return outcome


class _Inflight:
    """A task occupying a worker until a simulated completion time."""

    __slots__ = ("task", "finish", "worker", "payload")

    def __init__(self, task: Task, finish: float, worker: int, payload):
        self.task = task
        self.finish = finish
        self.worker = worker
        self.payload = payload


class _Holding:
    """An update-leader task holding its coalescing window open.

    ``planned`` keeps the close time the window was opened with;
    ``close`` may later be pulled earlier by a query arrival, and the
    journal derives the close *reason* from the difference.
    """

    __slots__ = ("task", "close", "worker", "start", "planned")

    def __init__(self, task: Task, close: float, worker: int, start: float,
                 planned: float | None = None):
        self.task = task
        self.close = close
        self.worker = worker
        self.start = start
        self.planned = close if planned is None else planned


class AsyncServingEngine(ServingEngine):
    """Cooperative multi-worker serving on the simulated clock.

    A discrete-event loop multiplexes resumable tasks over ``workers``
    logical workers.  Each iteration: admit arrivals (applying the
    backpressure policy), close due coalescing windows, retire due
    completions, dispatch while workers are free, then advance the
    clock to the next event.  Dispatch admits only requests the
    per-(graph, shard-set) fences allow **against everything known** —
    waiting, deferred, holding and running requests alike — so no task
    can start ahead of a conflicting earlier-arrival request, which is
    the whole bit-identity argument: a query's answer depends only on
    the store version its arrival order dictates, and warm caches
    change timing, never answers.
    """

    def __init__(self, catalog: dict[str, CSRGraph],
                 config: AsyncServeConfig | None = None,
                 scheduler: Scheduler | None = None,
                 store_factory=None, observation=None):
        super().__init__(catalog, config or AsyncServeConfig(),
                         scheduler, store_factory)
        if not isinstance(self.config, AsyncServeConfig):
            raise ConfigError(
                "AsyncServingEngine needs an AsyncServeConfig "
                f"(got {type(self.config).__name__})")
        #: Optional :class:`repro.obs.Observation`: a span tracer and/or
        #: decision journal to populate during :meth:`serve`.  ``None``
        #: (the default) keeps the plain fast path — tracing costs
        #: nothing it doesn't collect, and never changes answers.
        self.observation = observation

    # -- event-loop state is per-serve(), threaded through explicitly ------

    def serve(self, requests: list[QueryRequest]) -> AsyncServeOutcome:
        if not requests:
            raise ConfigError("cannot serve an empty workload")
        cfg: AsyncServeConfig = self.config
        scheduler = self.scheduler
        scheduler.reset()
        t_run = time.perf_counter()
        store = self._make_store()

        pending = sorted(requests, key=arrival_order)
        waiting: list[Task] = []       # admitted, runnable (the run queue)
        deferred: list[Task] = []      # known, waiting for a queue slot
        running: list[_Inflight] = []
        holding: list[_Holding] = []
        free_workers = list(range(cfg.workers))
        locks: set = set()             # session keys owned by running queries

        records: list[QueryRecord] = []
        update_records: list[UpdateRecord] = []
        rejected: list[RejectRecord] = []
        window_s = cfg.coalesce_window_s
        clock = 0.0
        last_key = None

        obs = self.observation
        tracer = getattr(obs, "tracer", None)
        journal = getattr(obs, "journal", None)
        registry = MetricsRegistry()
        c_decisions = registry.counter(
            "engine.decisions", "dispatch decisions the event loop made")
        c_queue_steps = registry.counter(
            "engine.queue_steps", "times a runnable task was passed over")
        c_admitted = registry.counter(
            "engine.admitted", "requests that entered the run queue")
        c_deferred = registry.counter(
            "engine.deferred", "arrivals parked by a full run queue")
        c_shed = registry.counter(
            "engine.shed", "arrivals rejected outright")
        c_starved = registry.counter(
            "engine.starvation_overrides",
            "dispatches forced by the starvation limit")
        c_windows = registry.counter(
            "engine.windows_opened", "coalescing windows opened")
        c_riders = registry.counter(
            "engine.updates_coalesced", "updates that rode another's flush")
        c_commits = registry.counter(
            "engine.commits", "update groups committed to the store")
        h_held = registry.histogram(
            "engine.window_held_s", "simulated hold before each commit")

        def jot(ev: str, **fields) -> None:
            """Journal one decision at the engine's current clock."""
            if journal is not None:
                journal.append(ev, clock, **fields)

        def tick(t: float) -> None:
            """Move the tracer's simulated 'now' with the engine."""
            if tracer is not None:
                tracer.now = t

        def inflight_requests():
            """Everything the fence must see beyond the run queue."""
            return ([t.request for t in deferred]
                    + [r.task.request for r in running]
                    + [h.task.request for h in holding])

        def admit() -> bool:
            """Move due arrivals into the run queue (or shed/defer them)."""
            nonlocal clock
            changed = False
            while pending and pending[0].arrival <= clock:
                req = pending.pop(0)
                if cfg.max_queue and len(waiting) >= cfg.max_queue:
                    if cfg.overflow == "shed":
                        rejected.append(RejectRecord(
                            qid=req.qid, tenant=req.tenant, graph=req.graph,
                            arrival=req.arrival, is_update=req.is_update,
                            queue_depth=len(waiting)))
                        c_shed.inc()
                        jot("shed", qid=req.qid, graph=req.graph,
                            queue_depth=len(waiting))
                        changed = True
                        continue
                    task = make_task(req)
                    task.deferred = True
                    deferred.append(task)
                    c_deferred.inc()
                    jot("defer", qid=req.qid, graph=req.graph,
                        queue_depth=len(waiting))
                else:
                    waiting.append(make_task(req))
                    c_admitted.inc()
                    jot("admit", qid=req.qid, graph=req.graph,
                        is_update=req.is_update, arrival=req.arrival)
                # A freshly-arrived query closes any open window on its
                # graph: the leader must commit before the query can
                # observe its version, so holding longer only adds
                # latency without any chance of another rider.
                if not req.is_update:
                    for h in holding:
                        if h.task.request.graph == req.graph:
                            h.close = min(h.close, clock)
                changed = True
            # Refill freed run-queue slots in arrival order.
            while deferred and (not cfg.max_queue
                                or len(waiting) < cfg.max_queue):
                task = deferred.pop(0)
                waiting.append(task)
                c_admitted.inc()
                jot("admit", qid=task.request.qid,
                    graph=task.request.graph,
                    is_update=task.request.is_update,
                    arrival=task.request.arrival, promoted=True)
                changed = True
            return changed

        def gather_riders(leader_task: Task) -> list[Task]:
            """Waiting updates forming a contiguous arrival-order run
            behind the leader on its graph.

            The run walks every *uncommitted* known same-graph request —
            waiting, deferred, and other holding leaders — in arrival
            order and stops at the first one that is not an update
            sitting in the run queue: riding over a deferred request, a
            queued query or another open window would reorder its commit
            or version observation.  If any same-graph request *older*
            than the leader is still uncommitted (a disjoint-shard
            leader may overtake one), the merge set is empty — exactly
            :func:`~repro.serve.scheduler.coalescible_updates`'s gap
            rule.
            """
            leader = leader_task.request
            uncommitted = (waiting + deferred
                           + [h.task for h in holding
                              if h.task is not leader_task])
            known = sorted(
                (t for t in uncommitted
                 if t.request.graph == leader.graph),
                key=lambda t: arrival_order(t.request))
            riders = []
            for t in known:
                if arrival_order(t.request) < arrival_order(leader):
                    return []
                if not t.request.is_update or t not in waiting:
                    break
                riders.append(t)
            return riders

        def close_window(h: _Holding) -> None:
            """Commit a leader plus whatever riders its window absorbed."""
            nonlocal window_s
            leader = h.task.request
            riders = gather_riders(h.task)
            rider_qids = [t.request.qid for t in riders]
            jot("window_close", qid=leader.qid, graph=leader.graph,
                close=h.close, riders=rider_qids,
                reason=("deadline" if h.close >= h.planned
                        else "query_arrival"))
            for t in riders:
                waiting.remove(t)
            h.task.resume([t.request for t in riders])
            effect = h.task.effect
            if not isinstance(effect, Commit):  # pragma: no cover - guard
                raise SimulationError("update task must commit after its hold")
            t0 = time.perf_counter()
            group = [effect.leader, *effect.riders]
            tick(h.close)
            with obs_span("commit", cat="task", worker=h.worker,
                          qid=leader.qid, graph=leader.graph,
                          group=len(group)) as commit_span:
                updates, fields, service = _commit_update_group(store, pool,
                                                                group)
                finish = h.close + service
                commit_span.end_at(finish)
            wall = time.perf_counter() - t0
            c_riders.inc(len(riders))
            c_commits.inc()
            h_held.observe(h.close - h.start)
            if tracer is not None:
                tracer.emit("hold", cat="task", t0=h.start, t1=h.close,
                            worker=h.worker, qid=leader.qid,
                            graph=leader.graph, riders=len(riders))
            jot("commit", qid=leader.qid, graph=leader.graph,
                riders=rider_qids,
                versions=[u.version.version for u in updates],
                digest=updates[-1].digest, finish=finish)
            if cfg.adaptive_window:
                adapted = (min(cfg.coalesce_window_s, window_s * 2)
                           if riders else window_s / 2)
                if adapted != window_s:
                    window_s = adapted
                    jot("window_adapt", qid=leader.qid,
                        graph=leader.graph, window_s=window_s)
            h.task.resume(Committed(
                updates=tuple(updates), fields=fields, start=h.start,
                commit_at=h.close, finish=finish, service_s=service,
                wall_s=wall, worker=h.worker))
            # The commit occupies the leader's worker for the resync's
            # simulated time; riders retire with it.
            running.append(_Inflight(h.task, finish, h.worker, None))

        def retire(r: _Inflight) -> None:
            task = r.task
            if not task.done:  # pragma: no cover - structural guard
                raise SimulationError("inflight task retired before completion")
            jot("retire", qid=task.request.qid, worker=r.worker,
                finish=r.finish)
            if task.request.is_update:
                for rec in task.value:
                    rec.deferred = task.deferred or rec.deferred
                    rec.queue_steps = max(rec.queue_steps, task.queue_steps)
                update_records.extend(task.value)
            else:
                rec = task.value
                rec.deferred = task.deferred
                rec.queue_steps = task.queue_steps
                records.append(rec)
                locks.discard(task.request.session_key)
                pool.unpin(task.request.session_key)
            free_workers.append(r.worker)
            free_workers.sort()

        def dispatchable() -> list[Task]:
            """Fence-eligible waiting tasks whose resources are free."""
            eligible = eligible_requests([t.request for t in waiting],
                                         inflight=inflight_requests())
            by_qid = {t.request.qid: t for t in waiting}
            out = []
            for req in eligible:
                task = by_qid[req.qid]
                if req.is_update:
                    out.append(task)
                    continue
                if req.session_key in locks:
                    continue
                if not pool.can_admit(req.session_key):
                    continue
                out.append(task)
            return out

        def dispatch() -> bool:
            """Start runnable tasks while workers are free."""
            nonlocal clock, last_key
            started = False
            while free_workers:
                ready = dispatchable()
                if not ready:
                    break
                c_decisions.inc()
                starved = [t for t in ready
                           if t.queue_steps >= cfg.starvation_limit]
                if starved:
                    # Fairness override: a request passed over too many
                    # times dispatches before any policy preference.
                    task = min(starved,
                               key=lambda t: arrival_order(t.request))
                else:
                    by_qid = {t.request.qid: t for t in ready}
                    picked = scheduler.pick([t.request for t in ready],
                                            last_key, pool)
                    task = by_qid[picked.qid]
                last_key = task.request.session_key
                for other in ready:
                    if other is not task:
                        other.queue_steps += 1
                c_queue_steps.inc(len(ready) - 1)
                if starved:
                    c_starved.inc()
                waiting.remove(task)
                worker = free_workers.pop(0)
                req = task.request
                jot("dispatch", qid=req.qid, graph=req.graph,
                    is_update=req.is_update, worker=worker,
                    starved=bool(starved), eligible=len(ready),
                    effect=effect_name(task.effect))
                tick(clock)
                if req.is_update:
                    if not isinstance(task.effect, Hold):  # pragma: no cover
                        raise SimulationError("update task must hold first")
                    # Window close: bounded by the adaptive window and
                    # by the leader's own deadline — a hold never pushes
                    # the commit past arrival + slo_update_s.
                    deadline = req.arrival + cfg.slo_update_s
                    planned = clock + max(0.0, min(window_s,
                                                   deadline - clock))
                    close = planned
                    # An already-waiting query on the graph means no
                    # rider can be absorbed ahead of it: commit now.
                    if any(not t.request.is_update
                           and t.request.graph == req.graph
                           for t in waiting + deferred):
                        close = clock
                    c_windows.inc()
                    jot("window_open", qid=req.qid, graph=req.graph,
                        close=close, window_s=window_s)
                    h = _Holding(task, close, worker, clock,
                                 planned=planned)
                    holding.append(h)
                    if close <= clock:
                        holding.remove(h)
                        close_window(h)
                else:
                    if not isinstance(task.effect, Acquire):  # pragma: no cover
                        raise SimulationError("query task must acquire first")
                    t0 = time.perf_counter()
                    session, built = pool.acquire(req.session_key)
                    pool.pin(req.session_key)
                    locks.add(req.session_key)
                    task.resume((session, built))
                    if not isinstance(task.effect, Run):  # pragma: no cover
                        raise SimulationError("query task must run after acquire")
                    result = session.run(req.kernel, keep_cache=True)
                    wall = time.perf_counter() - t0
                    version = store.version(req.graph).version
                    finish = clock + float(result.time)
                    if tracer is not None:
                        tracer.emit("run", cat="task", t0=clock, t1=finish,
                                    worker=worker, qid=req.qid,
                                    graph=req.graph, kernel=req.kernel,
                                    version=version,
                                    warm=bool(result.warm_cache),
                                    wall_s=wall)
                    task.resume(Executed(
                        result=result, version=version, start=clock,
                        finish=finish, wall_s=wall, worker=worker,
                        built_session=built))
                    running.append(_Inflight(task, finish, worker, None))
                started = True
            return started

        with activate(tracer), \
                SessionPool(store, cfg.session_config,
                            capacity=cfg.pool_capacity,
                            policy=cfg.pool_policy) as pool:
            while pending or waiting or deferred or running or holding:
                # Fixpoint at the current clock: admissions can unblock
                # dispatches, completions free workers and locks, closed
                # windows turn into commits.
                progress = True
                while progress:
                    progress = admit()
                    due_runs = sorted(
                        (r for r in running if r.finish <= clock),
                        key=lambda r: (r.finish, r.task.request.qid))
                    for r in due_runs:
                        running.remove(r)
                        retire(r)
                        progress = True
                    due_holds = sorted(
                        (h for h in holding if h.close <= clock),
                        key=lambda h: (h.close, h.task.request.qid))
                    for h in due_holds:
                        holding.remove(h)
                        close_window(h)
                        progress = True
                    progress = dispatch() or progress
                if not (pending or waiting or deferred or running
                        or holding):
                    break
                # Advance to the next event on the simulated clock.
                horizon = [r.finish for r in running]
                horizon += [h.close for h in holding]
                if pending:
                    horizon.append(pending[0].arrival)
                if not horizon:  # pragma: no cover - structural guard
                    # Unreachable: the globally earliest waiting request
                    # is always fence-eligible and, with no task in
                    # flight, all locks and workers are free.
                    raise SimulationError("cooperative scheduler deadlock")
                clock = max(clock, min(horizon))
                tick(clock)
            pool_stats = pool.stats.as_dict()

        wall_clock = time.perf_counter() - t_run
        records.sort(key=lambda r: r.qid)
        update_records.sort(key=lambda r: r.qid)
        rejected.sort(key=lambda r: r.qid)
        outcome = AsyncServeOutcome(
            scheduler=scheduler.name, records=records,
            pool_stats=pool_stats, wall_clock_s=wall_clock,
            update_records=update_records,
            graph_versions={name: (store.version(name).version,
                                   store.digest(name))
                            for name in store.names()},
            rejected=rejected, workers=cfg.workers,
            metrics=registry.snapshot())
        aggs = summarize(records, pool_stats, wall_clock,
                         update_records, int(c_riders.value))
        aggs.update(concurrency_profile(records, update_records))
        aggs["n_rejected"] = len(rejected)
        aggs["n_deferred"] = int(sum(r.deferred for r in records)
                                 + sum(u.deferred for u in update_records
                                       if not u.coalesced))
        if records:
            aggs["query_slo_attainment"] = float(
                sum(r.latency <= cfg.slo_query_s for r in records)
                / len(records))
        outcome.aggregates = aggs
        return outcome
