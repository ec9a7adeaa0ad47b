"""Unified observability: spans, metrics, and the decision journal.

One package instruments the whole serving/store stack:

* :mod:`repro.obs.trace` — span tracing on the simulated clock,
  zero-cost when disabled (:func:`~repro.obs.trace.span` resolves the
  process-wide tracer installed by :func:`~repro.obs.trace.activate`);
* :mod:`repro.obs.metrics` — typed counters/gauges/histograms behind a
  :class:`~repro.obs.metrics.MetricsRegistry` whose ``snapshot()`` the
  serve engine's ``AsyncServeOutcome`` delegates to, byte-identically;
* :mod:`repro.obs.journal` — every engine decision (admit/defer/shed,
  dispatch, window open/close, commit, retire) as deterministic JSONL,
  plus :func:`~repro.obs.journal.replay_journal`, which re-drives the
  scheduling fences over a journal and proves the recorded run was
  fence-legal;
* :mod:`repro.obs.export` — Chrome ``trace_event`` timelines and the
  per-(graph, shard-set) utilization report.

The engine takes one :class:`Observation` bundle: pass
``Observation.enabled()`` to collect everything, or leave it ``None``
(the default everywhere) for the plain fast path.

Import discipline: :mod:`~repro.obs.trace` and
:mod:`~repro.obs.metrics` depend only on the stdlib, because the deep
layers (the graph store, the cache, the session pool) import them at
module load.  The journal and the exporters depend on
:mod:`repro.serve` and are therefore exposed *lazily* here — importing
``repro.obs`` from inside a serve-stack module must not re-enter the
serve package mid-initialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import TYPE_CHECKING, Optional

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import (
    Span,
    SpanTracer,
    activate,
    active_tracer,
    check_spans,
    span,
)

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.obs.journal import DecisionJournal

__all__ = [
    "Counter",
    "DecisionJournal",
    "EVENT_KINDS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observation",
    "ReplayReport",
    "Span",
    "SpanTracer",
    "activate",
    "active_tracer",
    "chrome_trace",
    "check_spans",
    "replay_journal",
    "span",
    "utilization_report",
]

#: Serve-stack-dependent names, resolved on first attribute access.
_LAZY = {
    "DecisionJournal": "repro.obs.journal",
    "EVENT_KINDS": "repro.obs.journal",
    "ReplayReport": "repro.obs.journal",
    "replay_journal": "repro.obs.journal",
    "chrome_trace": "repro.obs.export",
    "utilization_report": "repro.obs.export",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


@dataclass
class Observation:
    """What one serving run should collect; ``None`` fields collect nothing."""

    tracer: Optional[SpanTracer] = None
    journal: Optional["DecisionJournal"] = None

    @classmethod
    def enabled(cls) -> "Observation":
        """Fresh tracer + journal, everything on."""
        from repro.obs.journal import DecisionJournal
        return cls(tracer=SpanTracer(), journal=DecisionJournal())
