"""Serving records, outcomes and aggregation — shared by both engines.

The serial :class:`~repro.serve.engine.ServingEngine`, the
cooperative :class:`~repro.serve.engine.AsyncServingEngine` and the
replica read path (:meth:`~repro.shardstore.replica.ReplicaSet
.serve_reads`) build every record through :func:`query_record` and
:func:`update_records`, digest answers the same way, and summarize into
the same report rows — that shared vocabulary is what makes the async
engine's bit-identity claim *checkable*: two outcomes compare through
:func:`answers_identical` regardless of which engine produced them.

A query digest is SHA-1 over the result arrays prefixed with the graph
version the query observed; an update digest is the store's *chained*
history digest at the version the commit advanced the graph to.  Equal
digest dicts therefore prove every query returned the same bits while
observing the same version, and every graph went through the same
version history — the repo's signature invariant, extended to
concurrency.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.utils.errors import ConfigError, SimulationError


@dataclass
class QueryRecord:
    """One served query, on both clocks."""

    qid: int
    tenant: int
    graph: str
    kernel: str
    arrival: float        # simulated
    start: float          # simulated (>= arrival)
    finish: float         # simulated (start + service)
    service_s: float      # simulated job time of the kernel run
    wall_s: float         # real seconds spent executing the query
    warm_cache: bool      # served against carried-over CLaMPI contents
    built_session: bool   # paid a cold partition (pool miss)
    adj_hit_rate: float | None
    digest: str           # SHA-1 over (observed graph version, answers)
    version: int = 0      # store version of the graph this query observed
    worker: int = 0       # logical worker that ran it (0 on the serial engine)
    deferred: bool = False    # waited out a full run queue before admission
    queue_steps: int = 0  # dispatch decisions it sat runnable before picked

    @property
    def latency(self) -> float:
        """Simulated end-to-end latency (queueing + service)."""
        return self.finish - self.arrival


@dataclass
class ReadRecord(QueryRecord):
    """One query served by one read replica of a
    :class:`~repro.shardstore.replica.ReplicaSet`."""

    replica: str = ""     # which replica the router placed it on


@dataclass
class UpdateRecord:
    """One committed update batch, on both clocks.

    When several queued updates for one graph were coalesced into a
    single resident resync, every member still gets its own record (and
    its own store version/digest); the shared resync cost is charged to
    the group head (``service_s``), the riders retire at the same finish
    with ``service_s == 0`` and ``coalesced=True``.  On the cooperative
    engine a head may additionally have *held* for a coalescing window
    before committing (``held_s``), never past its deadline.
    """

    qid: int
    tenant: int
    graph: str
    arrival: float
    start: float
    finish: float
    service_s: float      # simulated cost of resync + invalidation
    wall_s: float
    n_inserted: int
    n_deleted: int
    n_affected: int       # vertices whose results may have changed
    invalidated_entries: int
    retained_entries: int
    rekeyed_entries: int
    digest: str           # the store's chained history digest at `version`
    version: int = 0      # store version this commit advanced the graph to
    sessions_synced: int = 0  # resident sessions the commit propagated to
    coalesced: bool = False   # rode along in another update's flush
    worker: int = 0
    deferred: bool = False
    queue_steps: int = 0
    held_s: float = 0.0   # coalescing-window hold before the commit started
    riders: int = 0       # updates this head absorbed during its hold

    @property
    def latency(self) -> float:
        return self.finish - self.arrival


@dataclass
class RejectRecord:
    """A request shed by admission control — never served, never digested.

    Only the cooperative engine in ``overflow="shed"`` mode produces
    these; a rejected request leaves no answer, no version and no digest,
    which the backpressure tests pin (shed qids are absent from
    :meth:`ServeOutcome.digests`).
    """

    qid: int
    tenant: int
    graph: str
    arrival: float        # simulated rejection time == arrival time
    is_update: bool
    queue_depth: int      # run-queue occupancy that triggered the shed


@dataclass
class ServeOutcome:
    """Everything one (workload, scheduler) serving run produced."""

    scheduler: str
    records: list[QueryRecord]
    pool_stats: dict
    wall_clock_s: float
    aggregates: dict = field(default_factory=dict)
    update_records: list[UpdateRecord] = field(default_factory=list)
    graph_versions: dict = field(default_factory=dict)  # name -> (v, digest)

    def digests(self) -> dict[int, str]:
        """qid -> answer/history digest (scheduler-order independent).

        Covers queries *and* updates: equal dicts prove that every query
        returned the same bits while observing the same graph version,
        and that every graph went through the same version history.
        """
        d = {r.qid: r.digest for r in self.records}
        d.update({r.qid: r.digest for r in self.update_records})
        return d


@dataclass
class AsyncServeOutcome(ServeOutcome):
    """A cooperative serving run: adds shed records and overlap metrics.

    ``metrics`` is the engine's :class:`~repro.obs.metrics
    .MetricsRegistry` snapshot — every event-loop counter under one
    roof.  The historical ad-hoc counters (``decisions``,
    ``queue_steps``) remain available as properties reading that
    snapshot, so nothing downstream changed shape when they moved into
    the registry.
    """

    rejected: list[RejectRecord] = field(default_factory=list)
    workers: int = 1
    metrics: dict = field(default_factory=dict)

    @property
    def decisions(self) -> int:
        """Dispatch decisions the event loop made (registry-backed)."""
        return int(self.metrics.get("engine.decisions", 0))

    @property
    def queue_steps(self) -> int:
        """Total times runnable tasks were passed over (registry-backed)."""
        return int(self.metrics.get("engine.queue_steps", 0))

    def rejected_qids(self) -> set[int]:
        return {r.qid for r in self.rejected}


def answers_identical(a: ServeOutcome, b: ServeOutcome) -> bool:
    """Did two serving runs produce bit-identical per-query answers —
    and leave every graph with the same final version history?"""
    return (a.digests() == b.digests()
            and a.graph_versions == b.graph_versions)


def result_digest(result: Any, version: int) -> str:
    """SHA-1 over a kernel result, prefixed with the observed version."""
    h = hashlib.sha1()
    h.update(f"v{version}|".encode())
    h.update(str(int(result.global_triangles)).encode())
    for arr in (result.lcc, result.triangles_per_vertex):
        h.update(b"|")
        if arr is not None:
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def query_record(req, result, *, version: int, start: float, finish: float,
                 service_s: float, wall_s: float, built_session: bool,
                 worker: int = 0, replica: str | None = None) -> QueryRecord:
    """The record of one served query, on every serving path.

    ``service_s`` is the caller's, not ``finish - start`` recomputed: the
    serial paths charge ``float(result.time)``, the cooperative engine
    its ``finish - start``, and each keeps its own bits.  A ``replica``
    makes it the :class:`ReadRecord` of a routed read.
    """
    stats = result.adj_cache_stats
    fields = dict(
        qid=req.qid, tenant=req.tenant, graph=req.graph, kernel=req.kernel,
        arrival=req.arrival, start=start, finish=finish,
        service_s=service_s, wall_s=wall_s, warm_cache=result.warm_cache,
        built_session=built_session,
        adj_hit_rate=(None if stats is None else float(stats["hit_rate"])),
        version=version, digest=result_digest(result, version),
        worker=worker)
    if replica is not None:
        return ReadRecord(**fields, replica=replica)
    return QueryRecord(**fields)


def update_records(group, updates, fields: dict, *, start: float,
                   commit_at: float, finish: float, service_s: float,
                   wall_s: float, worker: int = 0) -> list[UpdateRecord]:
    """The records of one committed update group, leader first.

    ``updates`` holds the store's update per member, ``fields`` the
    propagation counters of the one resident resync.  The head carries
    the group's cost: ``service_s``, ``wall_s``, its hold before the
    commit (``commit_at - start``), its riders and ``fields``.  Each
    rider keeps its own version and digest, starts at ``commit_at`` and
    retires at the shared ``finish`` at no cost.  The serial engine
    commits at once (``commit_at == start``).
    """
    if len(updates) != len(group):
        raise SimulationError("commit returned a mismatched update group")
    records = []
    for i, (req, upd) in enumerate(zip(group, updates)):
        head = i == 0
        records.append(UpdateRecord(
            qid=req.qid, tenant=req.tenant, graph=req.graph,
            arrival=req.arrival, start=start if head else commit_at,
            finish=finish, service_s=service_s if head else 0.0,
            wall_s=wall_s if head else 0.0,
            n_inserted=upd.delta.n_inserted, n_deleted=upd.delta.n_deleted,
            version=upd.version.version, digest=upd.digest,
            coalesced=not head, worker=worker,
            held_s=commit_at - start if head else 0.0,
            riders=len(group) - 1 if head else 0,
            **(fields if head else {
                "n_affected": int(upd.delta.affected.shape[0]),
                "invalidated_entries": 0,
                "retained_entries": 0,
                "rekeyed_entries": 0,
                "sessions_synced": 0,
            })))
    return records


def concurrency_profile(records: list[QueryRecord],
                        update_records: list[UpdateRecord] = ()
                        ) -> dict[str, float]:
    """How overlapped a run was, from its retired records alone.

    Sweeps the simulated busy intervals (a query's ``[start, finish]``;
    an update head's commit ``[start + held_s, finish]`` — the hold is a
    wait, not work) and reports the time-weighted mean/max number of
    concurrently-executing tasks plus the fraction of busy time with two
    or more in flight.  The serial engine always profiles to
    ``max_concurrency == 1`` / ``overlap_fraction == 0`` — the
    cooperative engine's overlap tests assert the opposite.
    """
    intervals = [(r.start, r.finish) for r in records if r.finish > r.start]
    intervals += [(u.start + u.held_s, u.finish) for u in update_records
                  if not u.coalesced and u.finish > u.start + u.held_s]
    if not intervals:
        return {"mean_concurrency": 0.0, "max_concurrency": 0.0,
                "overlap_fraction": 0.0}
    events = sorted([(t0, 1) for t0, _ in intervals]
                    + [(t1, -1) for _, t1 in intervals])
    busy = overlapped = weighted = 0.0
    depth, prev = 0, events[0][0]
    for t, delta in events:
        span = t - prev
        if depth > 0:
            busy += span
            weighted += depth * span
            if depth > 1:
                overlapped += span
        depth += delta
        prev = t
    return {
        "mean_concurrency": float(weighted / busy) if busy else 0.0,
        "max_concurrency": float(max(np.cumsum([d for _, d in events]))),
        "overlap_fraction": float(overlapped / busy) if busy else 0.0,
    }


def summarize(records: list[QueryRecord], pool_stats: dict,
              wall_clock_s: float,
              update_records: list[UpdateRecord] = (),
              updates_coalesced: int = 0) -> dict[str, Any]:
    """Aggregate one serving run into the report row the benches commit."""
    if not records and not update_records:
        raise ConfigError("cannot summarize an empty serving run")
    update_aggs: dict[str, Any] = {"n_updates": len(update_records),
                                   "updates_coalesced": updates_coalesced}
    if update_records:
        ulat = np.array([u.latency for u in update_records])
        update_aggs.update({
            "update_latency_mean_s": float(ulat.mean()),
            "update_latency_p95_s": float(np.percentile(ulat, 95)),
            "update_service_total_s": float(
                sum(u.service_s for u in update_records)),
            "edges_inserted": int(sum(u.n_inserted for u in update_records)),
            "edges_deleted": int(sum(u.n_deleted for u in update_records)),
            "invalidated_entries": int(
                sum(u.invalidated_entries for u in update_records)),
            "rekeyed_entries": int(
                sum(u.rekeyed_entries for u in update_records)),
            "retained_entries_mean": float(np.mean(
                [u.retained_entries for u in update_records])),
        })
    if not records:
        # A pure-write trace: no query aggregates, but the work done is
        # still reported rather than thrown away.
        return {
            **update_aggs,
            "n_queries": 0,
            "makespan_s": float(max(u.finish for u in update_records)),
            "session_builds": pool_stats["builds"],
            "session_evictions": pool_stats["evictions"],
            "session_reuses": pool_stats["reuses"],
            "wall_clock_s": float(wall_clock_s),
        }
    lat = np.array([r.latency for r in records])
    # Updates share the simulated server clock, so a trace ending in an
    # update really ends there — makespan covers both record kinds.
    makespan = max(r.finish for r in (*records, *update_records))
    return {
        **update_aggs,
        "n_queries": len(records),
        "makespan_s": float(makespan),
        "throughput_qps": float(len(records) / makespan),
        "total_service_s": float(sum(r.service_s for r in records)),
        "latency_mean_s": float(lat.mean()),
        "latency_p50_s": float(np.percentile(lat, 50)),
        "latency_p95_s": float(np.percentile(lat, 95)),
        "latency_p99_s": float(np.percentile(lat, 99)),
        "latency_max_s": float(lat.max()),
        "warm_fraction": float(np.mean([r.warm_cache for r in records])),
        "mean_adj_hit_rate": float(np.mean(
            [r.adj_hit_rate for r in records if r.adj_hit_rate is not None]
            or [0.0])),
        "session_builds": pool_stats["builds"],
        "session_evictions": pool_stats["evictions"],
        "session_reuses": pool_stats["reuses"],
        "wall_clock_s": float(wall_clock_s),
    }
