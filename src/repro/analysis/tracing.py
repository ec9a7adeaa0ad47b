"""Traced serving runs: the ``trace`` bench suite.

``repro bench trace`` serves one pinned workload through the cooperative
:class:`~repro.serve.engine.AsyncServingEngine` with the full
:class:`~repro.obs.Observation` bundle on, and gates the whole
observability layer (:func:`check_traced_run` measures, :data:`SUITE`
declares the rows):

* **parity** — a traced run and an untraced run of the same workload
  must produce bit-identical answers and store digests (observability
  may never perturb the simulation);
* **replay** — the recorded journal must replay fence-legal, and be
  byte-identical across two traced runs;
* **spans** — the span tree must be well-formed (no orphans, no
  same-worker task overlaps);
* **artifacts** — every ``BENCH_*.json`` in the working directory must
  pass schema validation.

The report also records ``overhead_ratio``, min-of-:data:`OVERHEAD_REPEATS`
traced over untraced wall clock, as a number, not a gate row; the ledger's
``obs.enabled_overhead_frac`` is the recorded cost of tracing.

The run leaves the artifacts of its last traced repeat in the working
directory:

* the **decision journal** as JSONL (``TRACE_journal.jsonl``) — every
  admit/dispatch/window/commit decision, byte-deterministic per seed;
* the **span timeline** as Chrome ``trace_event`` JSON
  (``TRACE_events.json``) — open it in ``chrome://tracing`` or
  https://ui.perfetto.dev.
"""

from __future__ import annotations

import glob
import json
import time
from typing import Any, List, Mapping, Optional

from repro.analysis.benchreport import BENCH_THREADS
from repro.analysis.benchsuite import (
    SCHEMA_VERSION,
    BenchSuite,
    Gate,
    validate_file,
    violations,
)
from repro.obs import Observation
from repro.obs.export import chrome_trace
from repro.obs.journal import replay_journal
from repro.obs.trace import check_spans
from repro.serve.engine import (
    AsyncServeConfig,
    AsyncServingEngine,
    answers_identical,
)
from repro.serve.scheduler import FIFOScheduler
from repro.serve.workload import WorkloadSpec, default_catalog, generate_workload
from repro.shardstore import ShardedGraphStore, annotate_shard_sets

TRACE_NRANKS = 8
TRACE_WORKERS = 6
TRACE_NSHARDS = 4
TRACE_SEED = 23

#: Min-of-N repeats for the overhead measurement (shared runners jitter
#: far more than the instrumentation costs; the minimum is the signal).
OVERHEAD_REPEATS = 3

#: Artifact paths in the working directory (gitignored; CI uploads them).
JOURNAL_PATH = "TRACE_journal.jsonl"
CHROME_TRACE_PATH = "TRACE_events.json"


def trace_workload(quick: bool = False):
    """The pinned trace workload: update-heavy, shard-annotated.

    Updates carry their touched-shard sets over a sharded store so the
    journal and utilization report exercise the finest fence domains
    (``graph[s0,s1]``), including ``barrier``/``reseed`` spans.
    """
    catalog = default_catalog(scale=0.2 if quick else 0.3)
    spec = WorkloadSpec(
        n_queries=36 if quick else 90, arrival_rate=2500.0,
        n_tenants=8, graphs=tuple(catalog), kernels=("lcc", "tc"),
        seed=TRACE_SEED, update_mix=0.3, update_edges=6)

    def store_factory(c):
        return ShardedGraphStore(c, nshards=TRACE_NSHARDS,
                                 nranks=TRACE_NRANKS)
    requests = annotate_shard_sets(generate_workload(spec, catalog),
                                   store_factory(catalog))
    return catalog, requests, store_factory


def _serve(catalog, requests, store_factory, *,
           observation: Optional[Observation] = None):
    """One cooperative run; returns ``(outcome, wall_clock_s)``."""
    engine = AsyncServingEngine(
        catalog,
        AsyncServeConfig(nranks=TRACE_NRANKS, threads=BENCH_THREADS,
                         pool_capacity=4, workers=TRACE_WORKERS),
        scheduler=FIFOScheduler(),
        store_factory=store_factory, observation=observation)
    t0 = time.perf_counter()
    outcome = engine.serve(requests)
    return outcome, time.perf_counter() - t0


def _write_artifacts(obs: Observation) -> None:
    obs.journal.write(JOURNAL_PATH)
    with open(CHROME_TRACE_PATH, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(obs.tracer.spans,
                               label=f"repro bench trace (seed {TRACE_SEED})"),
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


def check_traced_run(quick: bool = False,
                     repeats: int = OVERHEAD_REPEATS) -> dict[str, Any]:
    """Measure the observability gate's clauses (see module docstring).

    The report's ``problems``/``ok`` are :data:`SUITE`'s own verdict on
    it, recorded so the artifact is readable on its own.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    catalog, requests, store_factory = trace_workload(quick)

    plain_walls: List[float] = []
    plain_outcome = None
    for _ in range(repeats):
        plain_outcome, wall = _serve(catalog, requests, store_factory)
        plain_walls.append(wall)

    traced_walls: List[float] = []
    traced_outcome, obs = None, None
    digests: List[str] = []
    for _ in range(max(2, repeats)):
        obs = Observation.enabled()
        traced_outcome, wall = _serve(catalog, requests, store_factory,
                                      observation=obs)
        traced_walls.append(wall)
        digests.append(obs.journal.digest())
    _write_artifacts(obs)

    floor = min(plain_walls)
    report = {
        "schema_version": SCHEMA_VERSION,
        "quick": quick,
        "seed": TRACE_SEED,
        "n_requests": len(requests),
        "digests_identical": answers_identical(plain_outcome,
                                               traced_outcome),
        "journal_deterministic": len(set(digests)) == 1,
        "journal_digest": digests[0],
        "replay": replay_journal(obs.journal, requests).as_dict(),
        "span_problems": check_spans(obs.tracer.spans),
        "n_spans": len(obs.tracer.spans),
        "n_events": len(obs.journal),
        "wall_untraced_s": floor,
        "wall_traced_s": min(traced_walls),
        "overhead_ratio": (min(traced_walls) / floor) if floor > 0 else 0.0,
        "artifact_problems": [
            problem for path in sorted(glob.glob("BENCH_*.json"))
            for problem in validate_file(path)],
    }
    report["problems"] = [p for _, p in violations(SUITE, report)]
    report["ok"] = not report["problems"]
    return report


def _headline(report: Mapping[str, Any]) -> dict[str, Any]:
    return {
        "overhead_ratio": float(report["overhead_ratio"]),
        "n_events": int(report["n_events"]),
        "n_spans": int(report["n_spans"]),
        "replay_ok": report["replay"]["ok"] is True,
    }


SUITE = BenchSuite(
    name="trace",
    doc="tracing never perturbs the simulation (traced == untraced "
        "answers/digests); the decision journal is byte-deterministic and "
        "replays fence-legal; the span tree is well-formed; every "
        "`BENCH_*.json` in the working directory is schema-valid",
    run=check_traced_run,
    keys=("schema_version", "quick", "n_requests", "digests_identical",
          "journal_deterministic", "replay", "span_problems",
          "overhead_ratio", "artifact_problems", "ok"),
    gates=(
        Gate("digests_identical", "is", True,
             "tracing perturbed the run: traced answers/digests diverged "
             "from the untraced run"),
        Gate("journal_deterministic", "is", True,
             "the journal digest differs between traced runs"),
        Gate("replay.ok", "is", True,
             "journal replay found the run fence-illegal"),
        Gate("span_problems", "len==", 0, "span tree malformed"),
        Gate("artifact_problems", "len==", 0,
             "artifact schema: a BENCH_*.json fails validation"),
    ),
    headline=_headline,
)
