"""Span tracing on the simulated clock, zero-cost when disabled.

A span is one timed region of the serving stack — a query's kernel
execution (``run``), an update leader holding its coalescing window
(``hold``), a store commit, a shard ``barrier``, a session ``resync``,
a cache ``invalidate``.  Spans carry *simulated* timestamps (the async
engine's clock), so a trace lines up with the engine's own timeline and
is deterministic per seed; real elapsed time, where measured, rides
along as a ``wall_s`` attribute and never enters the simulated axis.

Two integration styles:

* the engine owns a :class:`SpanTracer` and emits its own worker-loop
  spans explicitly (it knows simulated start/finish times that bracket
  *future* simulated work);
* deep layers (:class:`~repro.serve.pool.SessionPool`,
  :class:`~repro.graphstore.store.GraphStore`,
  :class:`~repro.clampi.cache.ClampiCache`, ...) call the module-level
  :func:`span` helper, which resolves the process-wide *active* tracer
  installed by :func:`activate`.  When no tracer is active the helper
  returns one shared no-op context manager — the disabled cost is a
  single global load and ``None`` check, no allocation.

Parenting is lexical: spans opened while another span's context is
entered become its children, which is exactly the engine's synchronous
call structure (``commit`` → store ``commit``/``barrier`` → ``resync``
→ ``invalidate``/``rekey``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

__all__ = [
    "Span",
    "SpanTracer",
    "activate",
    "active_tracer",
    "check_spans",
    "span",
]


@dataclass
class Span:
    """One closed region on the simulated timeline."""

    sid: int                      # unique id within one tracer
    parent: Optional[int]         # parent sid, or None for a root
    name: str                     # taxonomy name: run, hold, commit, ...
    cat: str                      # layer: task, engine, pool, store, ...
    t0: float                     # simulated start (seconds)
    t1: float                     # simulated end (seconds); >= t0
    worker: Optional[int] = None  # engine worker slot, when applicable
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class _LiveSpan:
    """Handle for an open context-manager span."""

    __slots__ = ("sid", "name", "_end_at", "attrs")

    def __init__(self, sid: int, name: str):
        self.sid = sid
        self.name = name
        self._end_at: Optional[float] = None
        self.attrs: Dict[str, object] = {}

    def end_at(self, t1: float) -> None:
        """Pin the span's simulated end time (default: tracer ``now``)."""
        self._end_at = t1

    def note(self, **attrs: object) -> None:
        self.attrs.update(attrs)


class _NoopSpan:
    """The shared disabled-path span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def end_at(self, t1: float) -> None:
        return None

    def note(self, **attrs: object) -> None:
        return None


_NOOP = _NoopSpan()


class SpanTracer:
    """Collects spans against a simulated clock.

    ``now`` is the tracer's notion of current simulated time; the engine
    advances it as its event loop advances.  Context-manager spans open
    at ``now`` and close at ``now`` unless pinned via
    :meth:`_LiveSpan.end_at`; nested layer spans therefore land *inside*
    whatever engine interval is currently on the stack.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_sid = 0

    # -- explicit emission (engine-level, knows its own interval) ------------
    def emit(self, name: str, *, cat: str, t0: float, t1: float,
             worker: Optional[int] = None,
             parent: Optional[int] = None,
             **attrs: object) -> Span:
        """Record a complete span whose interval is already known."""
        if parent is None and self._stack:
            parent = self._stack[-1].sid
        sp = Span(sid=self._next_sid, parent=parent, name=name, cat=cat,
                  t0=t0, t1=max(t0, t1), worker=worker, attrs=dict(attrs))
        self._next_sid += 1
        self.spans.append(sp)
        return sp

    # -- lexical nesting (layer-level, brackets a synchronous call) ----------
    @contextmanager
    def span(self, name: str, *, cat: str, t0: Optional[float] = None,
             worker: Optional[int] = None,
             **attrs: object) -> Iterator[_LiveSpan]:
        """Open a span around a synchronous region.

        The span's simulated interval defaults to ``[now, now]`` — an
        instant on the simulated axis — because a synchronous Python
        call consumes no simulated time unless the caller pins an end
        with :meth:`_LiveSpan.end_at`.  Real elapsed time is always
        measured and attached as ``wall_s``.
        """
        start = self.now if t0 is None else t0
        parent = self._stack[-1].sid if self._stack else None
        sp = Span(sid=self._next_sid, parent=parent, name=name, cat=cat,
                  t0=start, t1=start, worker=worker, attrs=dict(attrs))
        self._next_sid += 1
        self._stack.append(sp)
        live = _LiveSpan(sp.sid, name)
        wall0 = time.perf_counter()
        try:
            yield live
        finally:
            wall1 = time.perf_counter()
            self._stack.pop()
            end = live._end_at if live._end_at is not None else self.now
            sp.t1 = max(sp.t0, end)
            sp.attrs.update(live.attrs)
            sp.attrs["wall_s"] = wall1 - wall0
            self.spans.append(sp)

    def __len__(self) -> int:
        return len(self.spans)


# -- the process-wide active tracer ------------------------------------------
_ACTIVE: Optional[SpanTracer] = None


def active_tracer() -> Optional[SpanTracer]:
    """The tracer installed by :func:`activate`, or ``None``."""
    return _ACTIVE


@contextmanager
def activate(tracer: Optional[SpanTracer]) -> Iterator[Optional[SpanTracer]]:
    """Install ``tracer`` as the active tracer for the enclosed region.

    ``activate(None)`` is a no-op context, so callers can write
    ``with activate(obs.tracer if obs else None):`` unconditionally.
    Activations nest; the previous tracer is restored on exit.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


def span(name: str, *, cat: str, worker: Optional[int] = None,
         **attrs: object):
    """Open a span on the active tracer, or do nothing.

    The disabled path — no active tracer — returns one shared no-op
    context manager: no allocation, no string work, one global load.
    """
    tracer = _ACTIVE
    if tracer is None:
        return _NOOP
    return tracer.span(name, cat=cat, worker=worker, **attrs)


# -- well-formedness ----------------------------------------------------------
def check_spans(spans: Sequence[Span]) -> List[str]:
    """Structural problems in a span set; empty means well-formed.

    Checks: unique sids; no orphan parents; parents enclose children on
    the simulated axis; no negative durations; and no two ``task``-
    category spans overlapping on one worker (a worker slot executes one
    task at a time, so overlap means the trace lies about the engine).
    """
    problems: List[str] = []
    by_sid: Dict[int, Span] = {}
    for sp in spans:
        if sp.sid in by_sid:
            problems.append(f"duplicate sid {sp.sid} ({sp.name})")
        by_sid[sp.sid] = sp
    for sp in spans:
        if sp.t1 < sp.t0:
            problems.append(
                f"span {sp.sid} ({sp.name}) ends before it starts: "
                f"{sp.t1:.6f} < {sp.t0:.6f}")
        if sp.parent is not None:
            parent = by_sid.get(sp.parent)
            if parent is None:
                problems.append(
                    f"span {sp.sid} ({sp.name}) has orphan parent "
                    f"{sp.parent}")
            elif not (parent.t0 <= sp.t0 and sp.t1 <= parent.t1):
                problems.append(
                    f"span {sp.sid} ({sp.name}) "
                    f"[{sp.t0:.6f}, {sp.t1:.6f}] escapes parent "
                    f"{parent.sid} ({parent.name}) "
                    f"[{parent.t0:.6f}, {parent.t1:.6f}]")
    per_worker: Dict[int, List[Span]] = {}
    for sp in spans:
        if sp.cat == "task" and sp.worker is not None:
            per_worker.setdefault(sp.worker, []).append(sp)
    for worker, group in per_worker.items():
        group.sort(key=lambda s: (s.t0, s.t1))
        for prev, cur in zip(group, group[1:]):
            if cur.t0 < prev.t1 - 1e-12:
                problems.append(
                    f"worker {worker}: span {cur.sid} ({cur.name}) starts "
                    f"at {cur.t0:.6f} before span {prev.sid} ({prev.name}) "
                    f"ends at {prev.t1:.6f}")
    return problems
