"""The benchmark's workloads, declared as one data table.

Six workloads, each pinned to the regime it claims by :class:`Guard`
rows that abort the run when a resize or a code change silently moves it
(see README.md for why each exists and which ROADMAP item it exercises
or bypasses).  Two kinds:

* :class:`KernelWorkload` — the researcher's view: one
  :class:`~repro.Session` on one R-MAT graph, a fixed list of
  ``Session.run`` operations.
* :class:`ServeWorkload` — the operator's view: a multi-tenant
  read/update trace drained by :class:`~repro.serve.AsyncServingEngine`.
  The trace is open-loop on the *simulated* clock (Poisson, 2000
  sim-qps, saturating); on the wall clock the engine drains it as an
  offline single-threaded batch, so the benchmark reports work per
  wall-second and per-request *service* wall, not a rate ladder.

Inputs are a pure function of ``--seed``: it rewires a tenth of every
graph's edges and, through the graphs, draws every update batch.  What
defines a workload's regime is pinned with it (``STRUCTURE_SEED``): the
graphs' generator draws, because heavy-tailed generators at these sizes
move wall by +-15% between draws (a few hubs carry the wedge count), and
the *shape* of a serve trace (who asks for what, when), because
redrawing a 60-request trace moves its cold-session count by +-40%.
Either would be the seeds' spread, not the program's, and would swamp
any regression bound.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import Session
from repro.core import CacheSpec, LCCConfig
from repro.dynamic import apply_delta, random_update_batch
from repro.graph.generators import rmat
from repro.serve import (
    AsyncServeConfig,
    AsyncServingEngine,
    WorkloadSpec,
    default_catalog,
    generate_workload,
    make_scheduler,
)
from repro.shardstore import ShardedGraphStore, annotate_shard_sets
from repro.utils.rng import derive_seed

#: Seed of what pins a regime: base graph draws and serve trace shapes.
STRUCTURE_SEED = 7

#: Share of each graph's edges ``--seed`` rewires (half deleted, as many
#: uniformly random ones inserted).
REWIRE_FRACTION = 0.10

Op = tuple[str, tuple[tuple[str, Any], ...]]   # (kernel, config overrides)

_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq}


def sig12(x: float) -> float:
    """Round to 12 significant digits: robust to NumPy build differences
    in the last bits, still catches any cost-model drift."""
    return float(f"{float(x):.12g}")


def rewire(graph, seed: int):
    """``graph`` with :data:`REWIRE_FRACTION` of its edges redrawn."""
    batch = random_update_batch(graph, int(REWIRE_FRACTION * graph.m), 0.5,
                                seed=seed)
    return apply_delta(graph, batch, strict=False).graph


@dataclass(frozen=True)
class Guard:
    """One regime assertion: ``counts[key] <op> bound`` must hold.

    ``traced`` guards read numbers only the traced repeat produces.
    """

    key: str
    op: str
    bound: float
    traced: bool = False

    def violated(self, counts: dict) -> str | None:
        value = counts[self.key]
        if _COMPARE[self.op](value, self.bound):
            return None
        return f"{self.key} = {value!r}, expected {self.op} {self.bound!r}"


@dataclass
class Result:
    """One repeat: timings, exact counts and the answers to check."""

    wall_s: float
    n_ops: int
    query_walls: dict           # operation id -> service wall seconds
    update_walls: dict          # update-head qid -> commit wall seconds
    sim_time_s: float
    counts: dict                # exact; guards and per-layer counts read it
    fingerprint: dict           # golden-safe: counts + 12-digit sim times
    answer_digest: str          # exact bits; compared across repeats only
    answers: Any                # what the oracle checks
    errors: int = 0             # operations that raised


# ---------------------------------------------------------------------------
# Kernel workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelWorkload:
    name: str
    why: str
    scale: int                       # R-MAT 2**scale vertices
    quick_scale: int
    ops: tuple[Op, ...]              # the timed region
    cache: tuple[float, float] | None = None   # CacheSpec.relative fractions
    fill: tuple[Op, ...] = ()        # cold fill, part of set-up
    edge_factor: int = 8
    nranks: int = 8
    threads: int = 4
    #: ``--seed`` draws the order of ``ops`` instead of rewiring the graph.
    shuffle_ops: bool = False
    guards: tuple[Guard, ...] = ()
    obs_probe = False

    def input_size(self, quick: bool) -> str:
        scale = self.quick_scale if quick else self.scale
        return (f"rmat({scale}, {self.edge_factor}): {1 << scale} vertices, "
                f"{len(self._ops(quick))} kernel runs")

    def _ops(self, quick: bool) -> tuple[Op, ...]:
        return self.ops[:6] if quick else self.ops

    def prepare(self, seed: int, quick: bool = False) -> dict:
        scale = self.quick_scale if quick else self.scale
        graph = rmat(scale, self.edge_factor,
                     seed=derive_seed(STRUCTURE_SEED, self.name))
        ops = self._ops(quick)
        if self.shuffle_ops:
            order = np.random.default_rng(
                derive_seed(seed, self.name)).permutation(len(ops))
            ops = tuple(ops[i] for i in order)
        else:
            graph = rewire(graph, derive_seed(seed, self.name))
        cache = (None if self.cache is None
                 else CacheSpec.relative(graph.nbytes, *self.cache))
        session = Session(graph, LCCConfig(
            nranks=self.nranks, threads=self.threads, cache=cache))
        for kernel, opts in self.fill:
            session.run(kernel, keep_cache=True, **dict(opts))
        return {"graph": graph, "session": session, "ops": ops}

    def run(self, state: dict, probe=None, observation=None) -> Result:
        session, ops = state["session"], state["ops"]
        keep = self.cache is not None
        results: list = []
        walls: dict = {}
        region = probe.region() if probe else nullcontext()
        t_region = time.perf_counter()
        with region:
            for i, (kernel, opts) in enumerate(ops):
                if probe is not None:
                    probe.op(i)
                t0 = time.perf_counter()
                try:
                    res = session.run(kernel, keep_cache=keep, **dict(opts))
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    res = None
                walls[i] = time.perf_counter() - t0
                results.append(res)
        wall = time.perf_counter() - t_region
        session.close()
        return self._account(state, results, walls, wall)

    def _account(self, state: dict, results: list, walls: dict,
                 wall: float) -> Result:
        ops = state["ops"]
        done = [(op, r) for op, r in zip(ops, results) if r is not None]
        cached = [r.adj_cache_stats for _, r in done
                  if r.adj_cache_stats is not None]
        hits = sum(int(s["hits"]) for s in cached)
        misses = sum(int(s["misses"]) for s in cached)
        capacity = sum(int(s["capacity_evictions"]) for s in cached)
        conflict = sum(int(s["conflict_evictions"]) for s in cached)
        lcc_time = {dict(opts).get("nranks"): float(r.time)
                    for (kernel, opts), r in done if kernel == "lcc"}
        counts = {
            "clampi.hits": hits,
            "clampi.misses": misses,
            "clampi.evictions": capacity + conflict,
            "clampi.capacity_evictions": capacity,
            "clampi.hit_rate": hits / (hits + misses) if cached else 0.0,
            "clampi.cached_ops": len(cached),
            "core.sim_speedup_4_to_64": (
                lcc_time[4] / lcc_time[64]
                if 4 in lcc_time and 64 in lcc_time else 0.0),
        }
        rows = [[kernel, list(map(list, opts)), int(r.global_triangles),
                 sig12(r.time),
                 None if r.adj_cache_stats is None else
                 [int(r.adj_cache_stats[k]) for k in
                  ("hits", "misses", "capacity_evictions",
                   "conflict_evictions")]]
                for (kernel, opts), r in done]
        h = hashlib.sha1()
        for _, r in done:
            h.update(str(int(r.global_triangles)).encode())
            if r.lcc is not None:
                h.update(np.ascontiguousarray(r.lcc).tobytes())
        return Result(
            wall_s=wall, n_ops=len(ops), query_walls=walls, update_walls={},
            sim_time_s=float(sum(r.time for _, r in done)), counts=counts,
            fingerprint={"ops": rows}, answer_digest=h.hexdigest(),
            answers=(state["graph"], results), errors=len(ops) - len(done))


# ---------------------------------------------------------------------------
# Serve workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ServeWorkload:
    name: str
    why: str
    catalog_scale: float
    quick_catalog_scale: float
    n_requests: int
    quick_n_requests: int
    trace: dict = field(default_factory=dict)     # WorkloadSpec overrides
    config: dict = field(default_factory=dict)    # AsyncServeConfig overrides
    nshards: int = 0                 # > 0: ShardedGraphStore + shard fences
    guards: tuple[Guard, ...] = ()
    obs_probe: bool = False          # also measure Observation.enabled()

    def input_size(self, quick: bool) -> str:
        scale = self.quick_catalog_scale if quick else self.catalog_scale
        n = self.quick_n_requests if quick else self.n_requests
        return (f"catalog x{scale:g}, {n} requests "
                f"({self.trace.get('update_mix', 0.0):.0%} updates)")

    def prepare(self, seed: int, quick: bool = False) -> dict:
        scale = self.quick_catalog_scale if quick else self.catalog_scale
        catalog = {name: rewire(graph, derive_seed(seed, name))
                   for name, graph in default_catalog(scale).items()}
        config = AsyncServeConfig(**self.config)
        spec = WorkloadSpec(
            n_queries=self.quick_n_requests if quick else self.n_requests,
            arrival_rate=2000.0, n_tenants=16, graphs=tuple(catalog),
            seed=STRUCTURE_SEED, **self.trace)
        requests = generate_workload(spec, catalog)
        store_factory = None
        if self.nshards:
            nshards, nranks = self.nshards, config.nranks

            def store_factory(c):
                return ShardedGraphStore(c, nshards=nshards, nranks=nranks)

            requests = annotate_shard_sets(requests, store_factory(catalog))
        return {"catalog": catalog, "config": config, "requests": requests,
                "store_factory": store_factory}

    def run(self, state: dict, probe=None, observation=None) -> Result:
        requests = state["requests"]
        outcome = None
        region = probe.region() if probe else nullcontext()
        t0 = time.perf_counter()
        with region:
            try:
                engine = AsyncServingEngine(
                    state["catalog"], state["config"],
                    scheduler=make_scheduler("affinity"),
                    store_factory=state["store_factory"],
                    observation=observation)
                outcome = engine.serve(requests)
            except Exception:
                traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - t0
        if outcome is None:     # the engine has no per-request error path
            return Result(wall_s=wall, n_ops=len(requests), query_walls={},
                          update_walls={}, sim_time_s=0.0, counts={},
                          fingerprint={}, answer_digest="", answers=None,
                          errors=len(requests))
        return self._account(state, outcome, wall)

    def _account(self, state: dict, outcome, wall: float) -> Result:
        requests = state["requests"]
        heads = [u for u in outcome.update_records if not u.coalesced]
        aggs, pool = outcome.aggregates, outcome.pool_stats
        counts = {
            "serve.pool_builds": pool["builds"],
            "serve.pool_evictions": pool["evictions"],
            "serve.pool_reuses": pool["reuses"],
            "serve.warm_fraction": float(aggs["warm_fraction"]),
            "serve.updates_coalesced": int(aggs["updates_coalesced"]),
            "serve.queue_steps": int(outcome.queue_steps),
            "shardstore.multi_shard_commits": sum(
                1 for r in requests
                if r.is_update and r.shards and len(r.shards) > 1),
            "clampi.invalidated_entries": sum(
                u.invalidated_entries for u in heads),
            "clampi.rekeyed_entries": sum(u.rekeyed_entries for u in heads),
            "dynamic.affected_vertices": sum(u.n_affected for u in heads),
        }
        fingerprint = {
            "graph_versions": {name: list(v) for name, v in
                               sorted(outcome.graph_versions.items())},
            "makespan_s": sig12(aggs["makespan_s"]),
            "counts": counts,
        }
        return Result(
            wall_s=wall, n_ops=len(requests),
            query_walls={r.qid: r.wall_s for r in outcome.records},
            update_walls={u.qid: u.wall_s for u in heads},
            sim_time_s=float(aggs["makespan_s"]), counts=counts,
            fingerprint=fingerprint,
            answer_digest=hashlib.sha1(json.dumps(
                sorted(outcome.digests().items())).encode()).hexdigest(),
            answers=(state, outcome))


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

_WARM_VARIANTS = list(itertools.product(("hybrid", "ssi", "binary"),
                                        (True, False)))

_TABLE = (
    KernelWorkload(
        name="kernel1d_pressure",
        why="Small-cache end of the paper's Fig. 7: hit rate < 0.5, every "
            "miss inserts and evicts, so the scalar CLaMPI miss path is "
            "most of the wall (exercises ROADMAP item 2).",
        scale=10, quick_scale=7, cache=(0.125, 0.25),
        ops=(("lcc", ()), ("tc", ()), ("lcc", ()), ("tc", ())),
        guards=(Guard("clampi.hit_rate", "<", 0.5),
                Guard("clampi.evictions", ">", 0)),
    ),
    KernelWorkload(
        name="kernel1d_reuse",
        why="The paper's reuse effect: cold fill is set-up, then warm "
            "queries at hit rate >= 0.99; wall is the vectorized hit-run "
            "path plus the replay fold, so a miss-path change that taxes "
            "hits shows here.",
        scale=12, quick_scale=7, cache=(1.0, 2.0),
        # Any rewiring re-rolls which hot keys collide in the CLaMPI hash
        # table: conflict misses per 40 queries range 125-1631 across
        # seeds and the wall follows them (1.05-1.95 s).  That is the
        # seeds' spread, so here the seed only orders the queries.
        shuffle_ops=True,
        fill=(("lcc", ()), ("tc", ())),
        ops=tuple((("lcc", "tc")[i % 2],
                   (("method", _WARM_VARIANTS[i % 6][0]),
                    ("overlap", _WARM_VARIANTS[i % 6][1])))
                  for i in range(40)),
        guards=(Guard("clampi.hit_rate", ">=", 0.99),
                Guard("clampi.capacity_evictions", "==", 0)),
    ),
    KernelWorkload(
        name="kernel1d_nocache",
        why="The paper's strong-scaling axis (4 vs 64 ranks) with CLaMPI "
            "out of the picture: lcc_fast, replay and partition/distribute "
            "only; bypasses ROADMAP item 2, exercises item 4.",
        scale=13, quick_scale=8, cache=None,
        ops=tuple((kernel, (("nranks", nranks),))
                  for nranks in (4, 64) for kernel in ("lcc", "tc")),
        guards=(Guard("clampi.cached_ops", "==", 0),),
    ),
    ServeWorkload(
        name="serve_mixed",
        why="The production read/update mix: pool evictions force cold "
            "sessions (miss path), affinity batches give warm ones (hit "
            "path), updates resync/invalidate/rekey; every 1D layer works, "
            "none dominates alone.",
        catalog_scale=1.0, quick_catalog_scale=0.25,
        n_requests=60, quick_n_requests=16,
        trace={"update_mix": 0.2},
        guards=(Guard("serve.pool_evictions", ">", 0),
                Guard("serve.pool_reuses", ">", 0),
                Guard("serve.warm_fraction", ">", 0.0)),
        obs_probe=True,
    ),
    ServeWorkload(
        name="serve_update_heavy",
        why="The same layers used the other way, writes beside reads: "
            "apply_delta, sharded commit, resync, invalidate/rekey and "
            "digesting carry the wall; a read-side gain that costs commits "
            "shows here.",
        catalog_scale=1.0, quick_catalog_scale=0.25,
        n_requests=50, quick_n_requests=16,
        trace={"update_mix": 0.6, "update_edges": 32,
               "update_delete_fraction": 0.5},
        nshards=4,
        guards=(Guard("shardstore.multi_shard_commits", ">=", 1),
                Guard("serve.updates_coalesced", ">=", 1)),
    ),
    ServeWorkload(
        name="serve_grid2d",
        why="The 2D/algebraic path: updates retire resident SUMMA panels, "
            "so queries alternate memo replay and full rebuild; the 1D "
            "access_batch path is idle (bypasses ROADMAP item 2, exercises "
            "SUMMA work).",
        catalog_scale=8.0, quick_catalog_scale=0.5,
        n_requests=60, quick_n_requests=16,
        trace={"update_mix": 0.2, "variants": ((),),
               "kernels": ("tc2d_spgemm", "lcc2d", "tc2d")},
        config={"nranks": 9},
        guards=(Guard("trace.clampi_self_frac", "<", 0.08, traced=True),
                Guard("core.summa_stats_calls", ">=", 10, traced=True)),
    ),
)

WORKLOADS = {w.name: w for w in _TABLE}
