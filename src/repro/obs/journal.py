"""The decision journal: every engine choice as a typed, replayable event.

The async engine's correctness argument rests on its per-(graph,
shard-set) fences, but until now a finished run kept no evidence of the
*decisions* — which dispatch pick let a rider coalesce, which query sat
``queue_steps`` long enough to trip the starvation override, when a
window closed early because a query arrived.  The journal records each
of those as one typed JSONL event on the simulated clock.

Two properties make it more than a log:

* **Determinism** — events carry only simulated times, qids, graph
  names, versions and store digests; never wall-clock readings.  For a
  fixed workload, scheduler and seed the journal is byte-identical
  across runs, so it can be diffed, hashed and committed like any other
  artifact (the CI gate does exactly that).
* **Replayability** — :func:`replay_journal` re-drives
  :func:`~repro.serve.scheduler.eligible_requests` over the journal,
  reconstructing the waiting/deferred/inflight sets event by event and
  proving every recorded dispatch was fence-legal, every rider set
  matches the engine's coalescing rule, and every request was accounted
  for exactly once.  A journal that passes replay is a machine-checked
  proof that the recorded run respected the ordering contract.

Event vocabulary (the ``ev`` field):

``admit``
    A request entered the run queue (``promoted`` marks a deferred
    request finally getting a slot).
``defer`` / ``shed``
    Admission control bounced an arrival: deferred requests wait for a
    slot, shed requests are gone for good.
``dispatch``
    The engine started a task on a worker (``starved`` marks the
    fairness override; ``eligible`` counts the fence-admitted set the
    pick chose from).
``window_open`` / ``window_close``
    An update leader's coalescing window: planned close on open; actual
    riders and close ``reason`` (``"deadline"`` — ran its bounded
    course, or ``"query_arrival"`` — cut short by a query) on close.
``window_adapt``
    The adaptive controller changed the window width.
``commit``
    A leader (plus riders) committed: per-member store versions and the
    graph's chained history digest.
``retire``
    A task left its worker at its simulated finish time.

This vocabulary is the event log ROADMAP item 3's event-sourced
durability will persist; ``replay_journal`` is its read-side verifier.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.serve.request import arrival_order
from repro.serve.scheduler import eligible_requests

__all__ = [
    "DecisionJournal",
    "EVENT_KINDS",
    "ReplayReport",
    "replay_journal",
]

#: Every event kind the journal may contain, in lifecycle order.
EVENT_KINDS = (
    "admit", "defer", "shed", "dispatch",
    "window_open", "window_close", "window_adapt",
    "commit", "retire",
)


class DecisionJournal:
    """An append-only, JSONL-serializable sequence of decision events."""

    def __init__(self) -> None:
        self.events: List[dict] = []

    def append(self, ev: str, t: float, **fields: object) -> dict:
        """Record one event at simulated time ``t``.

        Field values must be JSON-serializable and deterministic —
        wall-clock readings are the caller's bug, not the journal's.
        """
        if ev not in EVENT_KINDS:
            raise ValueError(f"unknown journal event kind {ev!r}; "
                             f"expected one of {EVENT_KINDS}")
        event = {"ev": ev, "t": float(t), **fields}
        self.events.append(event)
        return event

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def of_kind(self, ev: str) -> List[dict]:
        return [e for e in self.events if e["ev"] == ev]

    # -- serialization -------------------------------------------------------
    def to_jsonl(self) -> str:
        """One event per line, keys sorted — byte-stable per seed."""
        return "".join(json.dumps(e, sort_keys=True) + "\n"
                       for e in self.events)

    def digest(self) -> str:
        """SHA-1 over the JSONL bytes: one hash names the whole run."""
        return hashlib.sha1(self.to_jsonl().encode()).hexdigest()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())

    @classmethod
    def loads(cls, text: str) -> "DecisionJournal":
        journal = cls()
        for line in text.splitlines():
            line = line.strip()
            if line:
                journal.events.append(json.loads(line))
        return journal

    @classmethod
    def load(cls, path) -> "DecisionJournal":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.loads(fh.read())


@dataclass
class ReplayReport:
    """What replaying a journal against its workload established."""

    ok: bool
    problems: List[str] = field(default_factory=list)
    n_events: int = 0
    n_dispatches: int = 0
    n_commits: int = 0
    n_sheds: int = 0
    n_deferred: int = 0
    n_starvation_overrides: int = 0

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "problems": list(self.problems),
            "n_events": self.n_events,
            "n_dispatches": self.n_dispatches,
            "n_commits": self.n_commits,
            "n_sheds": self.n_sheds,
            "n_deferred": self.n_deferred,
            "n_starvation_overrides": self.n_starvation_overrides,
        }


def replay_journal(journal: DecisionJournal | Sequence[dict],
                   requests: Sequence) -> ReplayReport:
    """Re-drive the fences over a journal: was the recorded run legal?

    Reconstructs the engine's waiting / deferred / holding / running
    sets from the event stream and, at every ``dispatch``, recomputes
    :func:`~repro.serve.scheduler.eligible_requests` over that state —
    the recorded pick must be in the fence-admitted set.  At every
    ``window_close`` the recorded riders must equal the engine's
    contiguous-run coalescing rule recomputed from the same state, and
    at every ``commit`` the member versions must extend the graph's
    chain by exactly one each.  A clean report is a machine-checked
    proof that the run observed the ordering contract the bit-identity
    argument depends on.
    """
    events = list(journal.events if isinstance(journal, DecisionJournal)
                  else journal)
    by_qid = {r.qid: r for r in requests}
    report = ReplayReport(ok=True, n_events=len(events))
    problems = report.problems

    waiting: List[int] = []       # run queue, in admission order
    deferred: List[int] = []
    holding: List[int] = []       # dispatched update leaders, window open
    running: List[int] = []       # dispatched, occupying a worker
    done: set = set()
    shed: set = set()
    busy_workers: Dict[int, int] = {}   # worker -> qid
    last_t = float("-inf")
    last_version: Dict[str, int] = {}

    def req(qid: int):
        r = by_qid.get(qid)
        if r is None:
            problems.append(f"event references unknown qid {qid}")
        return r

    def expected_riders(leader_qid: int) -> Optional[List[int]]:
        """The engine's gather_riders rule, recomputed from replay state."""
        leader = by_qid.get(leader_qid)
        if leader is None:
            return None
        uncommitted = ([by_qid[q] for q in waiting if q in by_qid]
                       + [by_qid[q] for q in deferred if q in by_qid]
                       + [by_qid[q] for q in holding
                          if q != leader_qid and q in by_qid])
        known = sorted((r for r in uncommitted if r.graph == leader.graph),
                       key=arrival_order)
        riders: List[int] = []
        for r in known:
            if arrival_order(r) < arrival_order(leader):
                return []
            if not r.is_update or r.qid not in waiting:
                break
            riders.append(r.qid)
        return riders

    for i, e in enumerate(events):
        ev, t = e.get("ev"), e.get("t", 0.0)
        qid = e.get("qid")
        where = f"event {i} ({ev} qid={qid} t={t})"
        if ev not in EVENT_KINDS:
            problems.append(f"{where}: unknown event kind")
            continue
        if t < last_t - 1e-12:
            problems.append(f"{where}: time runs backwards "
                            f"({t} < {last_t})")
        last_t = max(last_t, t)

        if ev == "admit":
            if e.get("promoted"):
                if qid in deferred:
                    deferred.remove(qid)
                else:
                    problems.append(f"{where}: promoted but never deferred")
            elif qid in waiting or qid in deferred or qid in done:
                problems.append(f"{where}: admitted twice")
            if req(qid) is not None:
                waiting.append(qid)
        elif ev == "defer":
            if req(qid) is not None:
                deferred.append(qid)
            report.n_deferred += 1
        elif ev == "shed":
            shed.add(qid)
            report.n_sheds += 1
        elif ev == "dispatch":
            report.n_dispatches += 1
            if e.get("starved"):
                report.n_starvation_overrides += 1
            r = req(qid)
            if qid not in waiting:
                problems.append(f"{where}: dispatched while not waiting")
                continue
            if r is not None:
                inflight = ([by_qid[q] for q in deferred if q in by_qid]
                            + [by_qid[q] for q in running if q in by_qid]
                            + [by_qid[q] for q in holding if q in by_qid])
                legal = eligible_requests(
                    [by_qid[q] for q in waiting if q in by_qid],
                    inflight=inflight)
                if r not in legal:
                    problems.append(
                        f"{where}: dispatch violates the per-(graph, "
                        f"shard-set) fence — {r.graph!r} blocked by an "
                        "earlier conflicting request")
            worker = e.get("worker")
            if worker in busy_workers:
                problems.append(
                    f"{where}: worker {worker} already busy with "
                    f"qid {busy_workers[worker]}")
            if worker is not None:
                busy_workers[worker] = qid
            waiting.remove(qid)
            if r is not None and r.is_update:
                holding.append(qid)
            else:
                running.append(qid)
        elif ev == "window_open":
            if qid not in holding:
                problems.append(f"{where}: window opened by a "
                                "non-holding task")
        elif ev == "window_close":
            if qid not in holding:
                problems.append(f"{where}: window closed but never held")
                continue
            riders = list(e.get("riders", ()))
            expected = expected_riders(qid)
            if expected is not None and riders != expected:
                problems.append(
                    f"{where}: riders {riders} violate the contiguous-"
                    f"run coalescing rule (expected {expected})")
            for rider in riders:
                if rider in waiting:
                    waiting.remove(rider)
                    done.add(rider)
                else:
                    problems.append(
                        f"{where}: rider {rider} was not waiting")
            holding.remove(qid)
            running.append(qid)
        elif ev == "commit":
            report.n_commits += 1
            if qid not in running:
                problems.append(f"{where}: commit by a task that is "
                                "not running its commit slot")
            r = req(qid)
            versions = list(e.get("versions", ()))
            graph = e.get("graph", r.graph if r is not None else "?")
            expect_n = 1 + len(e.get("riders", ()))
            if len(versions) != expect_n:
                problems.append(
                    f"{where}: {len(versions)} versions for "
                    f"{expect_n} group members")
            head = last_version.get(graph, 0)
            for v in versions:
                if v != head + 1:
                    problems.append(
                        f"{where}: version {v} does not extend "
                        f"{graph!r}'s chain at v{head}")
                head = v
            last_version[graph] = head
        elif ev == "retire":
            if qid in running:
                running.remove(qid)
                done.add(qid)
            else:
                problems.append(f"{where}: retired while not running")
            worker = e.get("worker")
            if worker is not None:
                if busy_workers.get(worker) == qid:
                    del busy_workers[worker]
                else:
                    problems.append(
                        f"{where}: worker {worker} was not running "
                        f"qid {qid}")
        # window_adapt carries no state transition.

    for name, leftovers in (("waiting", waiting), ("deferred", deferred),
                            ("holding", holding), ("running", running)):
        if leftovers:
            problems.append(f"journal ends with {name} tasks: {leftovers}")
    expected_done = {r.qid for r in requests} - shed
    if done != expected_done:
        missing = sorted(expected_done - done)
        extra = sorted(done - expected_done)
        if missing:
            problems.append(f"requests never completed: {missing}")
        if extra:
            problems.append(f"completions for unexpected qids: {extra}")
    overlap = done & shed
    if overlap:
        problems.append(f"shed requests also completed: {sorted(overlap)}")

    report.ok = not problems
    return report
