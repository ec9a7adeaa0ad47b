"""Resumable serving tasks: requests as generators yielding effects.

The cooperative engine does not call blocking functions — it *steps
tasks*.  A task is a Python generator that yields **effect** objects
(the Spawn/Wait idiom: each ``yield`` is a suspension point on the
simulated clock) and receives the effect's outcome back through
``send``.  The runtime decides *when* each effect resolves; the task
only describes *what happens next*:

* a query task acquires its resident session (:class:`Acquire`), runs
  its kernel (:class:`Run` — suspended for the kernel's simulated job
  time), and retires with a :class:`~repro.serve.records.QueryRecord`;
* an update-leader task holds for its coalescing window
  (:class:`Hold` — suspended until the window closes, absorbing rider
  updates that arrive meanwhile), then commits the whole group
  (:class:`Commit` — suspended for the resync's simulated cost) and
  retires with one :class:`~repro.serve.records.UpdateRecord` per group
  member.

Because every interaction with shared state (pool, store, fences) goes
through an effect, the interleaving of tasks is fully owned by the
event loop — which is exactly what lets the property suite drive the
same workload through arbitrary seeded interleavings and compare
answers against the serial oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.serve.records import QueryRecord, UpdateRecord, result_digest
from repro.serve.request import QueryRequest, SessionKey, UpdateRequest
from repro.utils.errors import SimulationError

# -- effects: what a suspended task is waiting on ---------------------------


@dataclass(frozen=True)
class Acquire:
    """Wait for (and pin) the request's resident session."""

    key: SessionKey


@dataclass(frozen=True)
class Run:
    """Execute the query's kernel; suspend for its simulated job time."""

    request: QueryRequest


@dataclass(frozen=True)
class Hold:
    """Hold an admitted update leader open for its coalescing window."""

    request: UpdateRequest


@dataclass(frozen=True)
class Commit:
    """Commit the leader plus its absorbed riders as one store flush."""

    leader: UpdateRequest
    riders: tuple


# -- payloads the runtime sends back into a resumed task --------------------


@dataclass(frozen=True)
class Executed:
    """What a :class:`Run` effect resolved to."""

    result: Any           # the kernel's DistributedRunResult
    version: int          # store version the query observed
    start: float
    finish: float
    wall_s: float
    worker: int
    built_session: bool


@dataclass(frozen=True)
class Committed:
    """What a :class:`Commit` effect resolved to."""

    updates: tuple        # one StoreUpdate per group member, arrival order
    fields: dict          # head-only propagation counters
    start: float          # dispatch time (hold began)
    commit_at: float      # window close (commit began)
    finish: float         # commit_at + simulated resync service
    service_s: float
    wall_s: float
    worker: int


def effect_name(effect) -> str:
    """The decision journal's label for a pending effect.

    The journal's ``dispatch`` events name what the task model is about
    to do (``"acquire"`` for a query, ``"hold"`` for an update leader)
    in the task vocabulary rather than the request vocabulary — the
    suspension point, not the payload.  ``"done"`` labels a completed
    task (never dispatched, but reachable from debug tooling).
    """
    return "done" if effect is None else type(effect).__name__.lower()


class Task:
    """One request's resumable execution state inside the event loop."""

    __slots__ = ("request", "_gen", "effect", "done", "value",
                 "deferred", "queue_steps")

    def __init__(self, request, gen: Iterator):
        self.request = request
        self._gen = gen
        self.effect = None
        self.done = False
        self.value = None
        self.deferred = False     # stamped by admission control
        self.queue_steps = 0      # stamped by the dispatcher

    def start(self) -> None:
        """Advance to the first suspension point."""
        self.effect = next(self._gen)

    def resume(self, payload) -> None:
        """Deliver an effect's outcome; advances to the next suspension
        point or to completion (``done`` + ``value``)."""
        try:
            self.effect = self._gen.send(payload)
        except StopIteration as stop:
            self.effect, self.done, self.value = None, True, stop.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else type(self.effect).__name__
        return f"Task(qid={self.request.qid}, {state})"


def query_task(req: QueryRequest) -> Iterator:
    """The life of a served query, as effects."""
    session, built = yield Acquire(req.session_key)
    del session, built  # the runtime runs the kernel; Acquire pins the key
    done: Executed = yield Run(req)
    stats = done.result.adj_cache_stats
    return QueryRecord(
        qid=req.qid, tenant=req.tenant, graph=req.graph, kernel=req.kernel,
        arrival=req.arrival, start=done.start, finish=done.finish,
        service_s=done.finish - done.start, wall_s=done.wall_s,
        warm_cache=done.result.warm_cache, built_session=done.built_session,
        adj_hit_rate=(None if stats is None else float(stats["hit_rate"])),
        version=done.version, digest=result_digest(done.result, done.version),
        worker=done.worker)


def update_task(req: UpdateRequest) -> Iterator:
    """The life of an update leader: hold, absorb riders, commit."""
    riders = yield Hold(req)
    done: Committed = yield Commit(req, tuple(riders))
    group = (req, *riders)
    if len(done.updates) != len(group):
        raise SimulationError("commit returned a mismatched update group")
    records = []
    for i, (member, upd) in enumerate(zip(group, done.updates)):
        head = i == 0
        records.append(UpdateRecord(
            qid=member.qid, tenant=member.tenant, graph=member.graph,
            arrival=member.arrival,
            start=done.start if head else done.commit_at,
            finish=done.finish,
            service_s=done.service_s if head else 0.0,
            wall_s=done.wall_s if head else 0.0,
            n_inserted=upd.delta.n_inserted, n_deleted=upd.delta.n_deleted,
            version=upd.version.version, digest=upd.digest,
            coalesced=not head, worker=done.worker,
            held_s=done.commit_at - done.start if head else 0.0,
            riders=len(riders) if head else 0,
            **(done.fields if head else {
                "n_affected": int(upd.delta.affected.shape[0]),
                "invalidated_entries": 0,
                "retained_entries": 0,
                "rekeyed_entries": 0,
                "sessions_synced": 0,
            })))
    return records


def make_task(req) -> Task:
    """Wrap a request in its task generator, advanced to the first effect."""
    gen = update_task(req) if req.is_update else query_task(req)
    task = Task(req, gen)
    task.start()
    return task
