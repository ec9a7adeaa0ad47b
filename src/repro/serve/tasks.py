"""The cooperative engine's per-request state.

:class:`~repro.serve.engine.AsyncServingEngine` keeps one :class:`Task`
per known request and moves it between its sets: the run queue, the
deferred queue (a full run queue parked it), ``holding`` (an update
leader's open coalescing window) and ``running`` (a query's kernel run,
or a group's commit, occupying a worker until ``finish``).  The engine
acquires, runs and commits directly; a task only says where its request
stands on the simulated clock and, once served, carries its record(s).
"""

from __future__ import annotations


class Task:
    """One request's place in the event loop."""

    __slots__ = ("request", "deferred", "queue_steps", "worker", "start",
                 "close", "planned", "finish", "value")

    def __init__(self, request, *, deferred: bool = False):
        self.request = request
        self.deferred = deferred  # waited out a full run queue
        self.queue_steps = 0      # dispatch decisions it was passed over
        self.worker = -1          # the logical worker it was dispatched to
        self.start = 0.0          # simulated dispatch time
        # An update leader's window close: ``close`` may be pulled
        # earlier by a query arrival, ``planned`` keeps the close it
        # opened with (the journal derives the close reason from both).
        self.close = self.planned = 0.0
        self.finish = 0.0         # simulated time its worker frees
        self.value: list = []     # its served record(s)

    def resume(self, value: list) -> None:
        """Hand the served task its records — one for a query, one per
        group member (leader first) for an update — stamped with what
        only the event loop knows: admission deferral and queue steps."""
        for rec in value:
            rec.deferred = self.deferred
            rec.queue_steps = self.queue_steps
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Task(qid={self.request.qid}, worker={self.worker})"
