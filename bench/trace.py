"""Outside-in span tracer for the traced benchmark repeat.

The program under ``src/`` is not edited: :class:`Tracer` wraps the
layers' public entry points at run time (class attributes are swapped on
the class, module functions in every ``repro``/``bench`` module that
imported them by name) and restores them on :meth:`Tracer.uninstall`.
Spans are stack-based — name, start, end, parent index, request ``qid``
— kept in memory, and a layer's self time is its span minus the part its
child spans cover.

Nothing called more than ~3x10^5 times per run is wrapped
(``HashIndex.*``, AVL nodes): a prototype that did inflated wall by 57%.
``ClampiCache.access`` (~10^5 calls per run) is the finest grain.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, namedtuple
from contextlib import contextmanager
from importlib import import_module

Span = namedtuple("Span", "name start end parent qid")

#: span name -> entry points ("module:attr" or "module:Class.method").
#: Several entry points may share one span name (one layer boundary).
TARGETS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("graph.generate", ("repro.graph.generators:rmat",
                        "repro.graph.generators:erdos_renyi",
                        "repro.graph.generators:powerlaw_configuration")),
    ("graph.distribute", ("repro.graph.distributed:DistributedCSR.__init__",)),
    ("clampi.access_batch", ("repro.clampi.cache:ClampiCache.access_batch",)),
    # The scalar per-access fallback every miss/insert/evict drops to.
    ("clampi.miss_path", ("repro.clampi.cache:ClampiCache.access",)),
    ("clampi.invalidate", ("repro.clampi.cache:ClampiCache.invalidate",)),
    ("clampi.rekey", ("repro.clampi.cache:ClampiCache.rekey",)),
    ("core.replay", ("repro.core.replay:execute_lcc_batched",
                     "repro.core.replay:execute_tc_batched")),
    ("core.lcc_fast", ("repro.core.lcc_fast:run_distributed_lcc_fast",)),
    ("core.linalg", ("repro.core.linalg:execute_tc2d_spgemm",
                     "repro.core.linalg:execute_lcc2d",
                     "repro.core.linalg:build_round_streams")),
    ("core.summa_stats", ("repro.core.linalg:summa_stats",)),
    ("core.tc2d", ("repro.core.tc2d:execute_tc2d",)),
    ("core.grid_blocks", ("repro.core.tc2d:build_grid_blocks",)),
    ("session.run", ("repro.session:Session.run",)),
    ("session.sync", ("repro.session:Session.sync_to",)),
    ("dynamic.apply_delta", ("repro.dynamic.delta:apply_delta",)),
    ("dynamic.resync_plan", ("repro.dynamic.invalidate:resync_distributed",)),
    ("graphstore.apply", ("repro.graphstore.store:GraphStore.apply",)),
    ("graphstore.digest", ("repro.graphstore.store:graph_digest",)),
    ("graphstore.acquire", ("repro.graphstore.resident:Cluster1D.acquire",
                            "repro.graphstore.grid2d:GridCluster2D.acquire")),
    ("graphstore.resync", ("repro.graphstore.resident:Cluster1D.resync",
                           "repro.graphstore.grid2d:GridCluster2D.resync")),
    ("graphstore.grid_execute", (
        "repro.graphstore.grid2d:GridCluster2D.execute",
        "repro.graphstore.grid2d:GridCluster2D.execute_spgemm",
        "repro.graphstore.grid2d:GridCluster2D.execute_lcc2d")),
    ("shardstore.apply", ("repro.shardstore.sharded:ShardedGraphStore.apply",)),
    ("shardstore.graph", ("repro.shardstore.sharded:ShardedGraphStore.graph",)),
    ("serve.loop", ("repro.serve.engine:AsyncServingEngine.serve",)),
    ("serve.fence", ("repro.serve.scheduler:eligible_requests",
                     "repro.serve.scheduler:coalescible_updates")),
    ("serve.pick", ("repro.serve.scheduler:CacheAffinityScheduler.pick",)),
    ("serve.pool_acquire", ("repro.serve.pool:SessionPool.acquire",)),
    ("serve.task", ("repro.serve.tasks:Task.resume",)),
    ("serve.digest", ("repro.serve.records:result_digest",)),
)

#: CacheStats snapshot key -> the per-layer count it feeds, harvested
#: from every ``Session.run`` result.
_CACHE_COUNTS = {
    "hits": "clampi.hits",
    "misses": "clampi.misses",
    "capacity_evictions": "clampi.evictions",
    "conflict_evictions": "clampi.evictions",
    "bytes_fetched": "clampi.bytes_fetched",
    "bytes_served_from_cache": "clampi.bytes_from_cache",
}


def _harvest_run(tracer: "Tracer", rec: list, args: tuple, result) -> None:
    """Fold a query's adjacency-cache counters into ``tracer.counters``.

    Cache-less kernels (``adj_cache_stats is None``) contribute nothing,
    so the derived hit rate is over cached kernels only.
    """
    stats = result.adj_cache_stats
    if stats is not None:
        for key, metric in _CACHE_COUNTS.items():
            tracer.counters[metric] += int(stats[key])


def _mark_picked(tracer: "Tracer", rec: list, args: tuple, result) -> None:
    tracer.qid = rec[4] = result.qid


def _mark_task(tracer: "Tracer", rec: list, args: tuple, result) -> None:
    tracer.qid = rec[4] = args[0].request.qid


def _mark_none(tracer: "Tracer", rec: list, args: tuple, result) -> None:
    tracer.qid = rec[4] = None


#: span name -> hook run after the wrapped call returns.  The ``serve.*``
#: hooks give spans their request ``qid`` from outside the engine: the
#: fence runs before a request is chosen (no qid), ``pick`` returns the
#: request about to run, and ``Task.resume`` precedes every commit.
HOOKS = {
    "session.run": _harvest_run,
    "serve.fence": _mark_none,
    "serve.pick": _mark_picked,
    "serve.task": _mark_task,
}


def _resolve(target: str):
    """``"module:Class.method"`` -> ``(owner, attribute name, function)``."""
    module_name, _, path = target.partition(":")
    owner = import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Wrap :data:`TARGETS`, record spans, restore on uninstall."""

    def __init__(self) -> None:
        self.qid = None              # request the next spans belong to
        self.counters: Counter = Counter()
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------------
    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for name, targets in TARGETS:
            for target in targets:
                owner, attr, fn = _resolve(target)
                wrapper = self._wrap(fn, name, HOOKS.get(name))
                if isinstance(owner, type):
                    self._set(owner, attr, fn, wrapper)
                    continue
                # A module function: other modules hold it by name.
                for mod in list(sys.modules.values()):
                    mod_name = getattr(mod, "__name__", "")
                    if mod_name.split(".")[0] not in ("repro", "bench",
                                                      "__main__"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, key, fn, wrapper)

    def _set(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, fn, name: str, hook):
        spans, stack, clock = self._spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.qid]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, rec, args, result)
            return result

        return wrapper

    # -- benchmark-level spans ------------------------------------------------
    @contextmanager
    def span(self, name: str):
        """A root span opened by the benchmark itself (the timed region)."""
        spans, stack = self._spans, self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
        stack.append(len(spans))
        spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def take(self) -> tuple[list[Span], dict]:
        """Hand over the recorded spans and harvested counts; start afresh."""
        if self._stack:
            raise RuntimeError("spans are still open")
        spans = [Span(*rec) for rec in self._spans]
        self._spans.clear()
        counts = dict(self.counters)
        self.counters.clear()
        accesses = counts.get("clampi.hits", 0) + counts.get("clampi.misses", 0)
        if accesses:
            counts["clampi.hit_rate"] = counts["clampi.hits"] / accesses
        return spans, counts


def totals(spans: list[Span]) -> dict[str, tuple[int, float, float]]:
    """Per span name: ``(calls, inclusive seconds, self seconds)``."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    out: dict[str, list] = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s.name, [0, 0.0, 0.0])
        dur = s.end - s.start
        row[0] += 1
        row[1] += dur
        row[2] += dur - covered[i]
    return {name: tuple(row) for name, row in out.items()}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: metric -> (unit, better, source, *span names).  ``incl``/``self``/
#: ``calls`` read the timed region's spans, ``setup_incl`` the set-up's;
#: ``count`` metrics are exact numbers the caller supplies by name
#: (counters the layers export, or run-level ratios).  Layers off every
#: measured path (runtime, analysis, cli, baselines, utils) have no rows.
PER_LAYER: dict[str, tuple] = {
    "graph.generate_s": ("s", "lower", "setup_incl", "graph.generate"),
    "graph.distribute_s": ("s", "lower", "incl", "graph.distribute"),
    "graph.distribute_calls": ("count", "lower", "calls", "graph.distribute"),
    "clampi.access_batch_s": ("s", "lower", "incl", "clampi.access_batch"),
    "clampi.access_batch_self_s": ("s", "lower", "self",
                                   "clampi.access_batch"),
    "clampi.access_batch_calls": ("count", "lower", "calls",
                                  "clampi.access_batch"),
    "clampi.miss_path_s": ("s", "lower", "incl", "clampi.miss_path"),
    "clampi.miss_path_calls": ("count", "lower", "calls", "clampi.miss_path"),
    "clampi.invalidate_s": ("s", "lower", "incl", "clampi.invalidate"),
    "clampi.invalidate_calls": ("count", "lower", "calls",
                                "clampi.invalidate"),
    "clampi.rekey_s": ("s", "lower", "incl", "clampi.rekey"),
    "clampi.rekey_calls": ("count", "lower", "calls", "clampi.rekey"),
    "clampi.hits": ("count", "higher", "count"),
    "clampi.misses": ("count", "lower", "count"),
    "clampi.evictions": ("count", "lower", "count"),
    "clampi.hit_rate": ("ratio", "higher", "count"),
    "clampi.invalidated_entries": ("count", "lower", "count"),
    "clampi.rekeyed_entries": ("count", "higher", "count"),
    "clampi.bytes_fetched": ("B", "lower", "count"),
    "clampi.bytes_from_cache": ("B", "higher", "count"),
    "core.replay_self_s": ("s", "lower", "self", "core.replay"),
    "core.replay_calls": ("count", "lower", "calls", "core.replay"),
    "core.lcc_fast_s": ("s", "lower", "incl", "core.lcc_fast"),
    "core.lcc_fast_calls": ("count", "lower", "calls", "core.lcc_fast"),
    "core.linalg_s": ("s", "lower", "incl", "core.linalg",
                      "core.summa_stats"),
    "core.linalg_calls": ("count", "lower", "calls", "core.linalg",
                          "core.summa_stats"),
    "core.summa_stats_calls": ("count", "lower", "calls", "core.summa_stats"),
    "core.tc2d_s": ("s", "lower", "incl", "core.tc2d", "core.grid_blocks"),
    "core.sim_speedup_4_to_64": ("ratio", "higher", "count"),
    "session.run_s": ("s", "lower", "incl", "session.run"),
    "session.run_self_s": ("s", "lower", "self", "session.run"),
    "session.run_calls": ("count", "lower", "calls", "session.run"),
    "session.sync_s": ("s", "lower", "incl", "session.sync"),
    "session.sync_calls": ("count", "lower", "calls", "session.sync"),
    "dynamic.apply_delta_s": ("s", "lower", "incl", "dynamic.apply_delta"),
    "dynamic.apply_delta_calls": ("count", "lower", "calls",
                                  "dynamic.apply_delta"),
    "dynamic.resync_plan_s": ("s", "lower", "incl", "dynamic.resync_plan"),
    "dynamic.affected_vertices": ("count", "lower", "count"),
    "graphstore.apply_s": ("s", "lower", "incl", "graphstore.apply"),
    "graphstore.apply_calls": ("count", "lower", "calls", "graphstore.apply"),
    "graphstore.digest_s": ("s", "lower", "incl", "graphstore.digest"),
    "graphstore.digest_calls": ("count", "lower", "calls",
                                "graphstore.digest"),
    "graphstore.acquire_s": ("s", "lower", "incl", "graphstore.acquire"),
    "graphstore.cluster_builds": ("count", "lower", "calls",
                                  "graph.distribute", "core.grid_blocks"),
    "graphstore.resync_s": ("s", "lower", "incl", "graphstore.resync"),
    "graphstore.resync_self_s": ("s", "lower", "self", "graphstore.resync"),
    "graphstore.resync_calls": ("count", "lower", "calls",
                                "graphstore.resync"),
    "graphstore.grid_self_s": ("s", "lower", "self",
                               "graphstore.grid_execute"),
    "shardstore.apply_s": ("s", "lower", "incl", "shardstore.apply"),
    "shardstore.apply_calls": ("count", "lower", "calls", "shardstore.apply"),
    "shardstore.graph_s": ("s", "lower", "incl", "shardstore.graph"),
    "shardstore.multi_shard_commits": ("count", "higher", "count"),
    "serve.loop_self_s": ("s", "lower", "self", "serve.loop"),
    "serve.fence_s": ("s", "lower", "incl", "serve.fence"),
    "serve.fence_calls": ("count", "lower", "calls", "serve.fence"),
    "serve.pick_s": ("s", "lower", "incl", "serve.pick"),
    "serve.pool_acquire_s": ("s", "lower", "incl", "serve.pool_acquire"),
    "serve.task_self_s": ("s", "lower", "self", "serve.task"),
    "serve.digest_s": ("s", "lower", "incl", "serve.digest"),
    "serve.pool_builds": ("count", "lower", "count"),
    "serve.pool_evictions": ("count", "lower", "count"),
    "serve.pool_reuses": ("count", "higher", "count"),
    "serve.warm_fraction": ("ratio", "higher", "count"),
    "serve.updates_coalesced": ("count", "higher", "count"),
    "serve.queue_steps": ("count", "lower", "count"),
    "obs.enabled_overhead_frac": ("ratio", "lower", "count"),
    "trace.region_s": ("s", "lower", "incl", "bench.region"),
    "trace.coverage_frac": ("ratio", "higher", "count"),
    "trace.clampi_self_frac": ("ratio", "lower", "count"),
    "trace.overhead_frac": ("ratio", "lower", "count"),
    # End-to-end quantities the contract cannot bound (exact, zero,
    # undefined on some workload, or seed-sensitive beyond any bound);
    # reported from the untraced repeats.
    "e2e.raw_wall_s": ("s", "lower", "count"),
    "e2e.speed_factor": ("ratio", "higher", "count"),
    "e2e.sim_time_s": ("sim_s", "lower", "count"),
    "e2e.failed_frac": ("ratio", "lower", "count"),
    "e2e.query_wall_p50_ms": ("ms", "lower", "count"),
    "e2e.query_wall_p90_ms": ("ms", "lower", "count"),
    "e2e.query_samples": ("count", "higher", "count"),
    "e2e.update_wall_p50_ms": ("ms", "lower", "count"),
    "e2e.update_samples": ("count", "higher", "count"),
}

_COLUMN = {"calls": 0, "incl": 1, "setup_incl": 1, "self": 2}


def layer_metrics(setup_spans: list[Span], region_spans: list[Span],
                  counts: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced repeat.

    ``counts`` supplies the ``count`` metrics by name (missing -> 0);
    the three ``trace.*`` ratios derivable from the spans alone are
    computed here.
    """
    region, setup = totals(region_spans), totals(setup_spans)
    _, wall, uncovered = region["bench.region"]
    clampi_self = sum(row[2] for name, row in region.items()
                      if name.startswith("clampi."))
    counts = {**counts,
              "trace.coverage_frac": 1.0 - uncovered / wall,
              "trace.clampi_self_frac": clampi_self / wall}
    out = {}
    for metric, (_unit, _better, source, *names) in PER_LAYER.items():
        if source == "count":
            out[metric] = counts.get(metric, 0)
        else:
            table = setup if source == "setup_incl" else region
            out[metric] = sum(table.get(n, (0, 0.0, 0.0))[_COLUMN[source]]
                              for n in names)
    return out
