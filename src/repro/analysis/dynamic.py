"""Dynamic-graph benchmark: post-update scoring + cache invalidation.

``repro bench dynamic`` (and :func:`run_dynamic_bench`) records the
dynamic subsystem's committed report, ``BENCH_dynamic.json``:

* **incremental** — applying an update batch with
  :func:`~repro.dynamic.delta.apply_delta` and reading the new version's
  score record (:func:`~repro.core.local.vertex_scores`: one oriented
  pass on these undirected graphs) versus the raw full counters on the
  post-update graph, which stay the bit-identity oracle;
* **invalidation** — a warm resident session takes the same batch
  through :meth:`~repro.session.Session.apply_updates`; the report
  records how much of the warm CLaMPI cache survived the targeted
  invalidation (``retained_warm_hits`` counts post-update hits beyond
  what an equally-configured *cold* session gets on the same graph —
  warmth that only exists because invalidation was surgical), and pins
  the post-update cached run bit-identical to a cold full run;
* **serving** — a mixed read/write workload through FIFO and
  cache-affinity scheduling, proving per-query answers and per-key graph
  histories identical between schedulers.

The committed report must show a bit-identical record and nonzero
retained warm hits (:data:`SUITE`); its wall-clock speedup over the raw
counters is recorded, not gated.
"""

from __future__ import annotations

import time
from typing import Any, Mapping

import numpy as np

from repro.analysis.benchreport import (
    BENCH_NRANKS,
    BENCH_THREADS,
    bench_graphs,
)
from repro.analysis.benchsuite import (
    SCHEMA_VERSION,
    BenchSuite,
    Gate,
    Sibling,
)
from repro.analysis.serving import serve_fifo_vs_affinity
from repro.core.config import CacheSpec, LCCConfig
from repro.core.local import (
    lcc_from_triplets,
    triangles_min_vertex,
    triangles_per_vertex_batched,
    vertex_scores,
)
from repro.dynamic import apply_delta, random_update_batch
from repro.graph.csr import CSRGraph
from repro.serve.engine import ServeConfig
from repro.serve.workload import WorkloadSpec, default_catalog, generate_workload
from repro.session import Session
from repro.utils.rng import derive_seed

#: Update-batch shape the recorded benchmark applies.
BENCH_UPDATE_EDGES = 12
BENCH_DELETE_FRACTION = 0.25
BENCH_SEED = 7


def _bench_cache_config(graph: CSRGraph) -> LCCConfig:
    return LCCConfig(nranks=BENCH_NRANKS, threads=BENCH_THREADS,
                     cache=CacheSpec.relative(graph.nbytes, 0.5, 1.0))


def bench_incremental(graph: CSRGraph, *, n_edges: int = BENCH_UPDATE_EDGES,
                      seed: int = BENCH_SEED) -> dict[str, Any]:
    """One update batch and the new version's scores vs the raw counters."""
    batch = random_update_batch(graph, n_edges, BENCH_DELETE_FRACTION,
                                seed=derive_seed(seed, "dyn-inc", graph.name))
    t0 = time.perf_counter()
    res = apply_delta(graph, batch, strict=False)
    tpv = vertex_scores(res.graph, "tpv")
    tmin = vertex_scores(res.graph, "tmin")
    incr_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    full_tpv = triangles_per_vertex_batched(res.graph)
    full_tmin = triangles_min_vertex(res.graph)
    full_wall = time.perf_counter() - t0

    identical = (np.array_equal(full_tpv, tpv)
                 and np.array_equal(full_tmin, tmin))
    return {
        "incremental_wall_s": incr_wall,
        "full_wall_s": full_wall,
        "speedup": full_wall / incr_wall,
        "bit_identical": bool(identical),
        "n_affected": int(res.affected.shape[0]),
        "n_vertices": graph.n,
        "edges_inserted": res.n_inserted,
        "edges_deleted": res.n_deleted,
    }


def bench_invalidation(graph: CSRGraph, *, n_edges: int = BENCH_UPDATE_EDGES,
                       seed: int = BENCH_SEED) -> dict[str, Any]:
    """Warm-cache retention through one update on a resident session.

    ``retained_warm_hits`` is exact and deterministic: post-update hits
    minus the hits an identically-configured cold session scores on the
    same (updated) graph — i.e. hits served by entries that survived the
    invalidation.  ``post_update_bit_identical`` pins correctness: the
    cached post-update answer equals the cold fresh one, bit for bit —
    and the raw counters', since both sessions read one score record.

    The update is applied twice on twin sessions — with rekeying of
    shifted-but-unchanged adjacency entries (the default) and without —
    so the report shows the warmth the remap retains on top of plain
    positional invalidation (``retained_by_rekey_hits``, and the two
    post-update hit rates).
    """
    config = _bench_cache_config(graph)
    batch = random_update_batch(graph, n_edges, BENCH_DELETE_FRACTION,
                                seed=derive_seed(seed, "dyn-inv", graph.name))

    def run(rekey: bool):
        with Session(graph, config) as session:
            session.run("lcc", keep_cache=True)
            warm = session.run("lcc", keep_cache=True)
            outcome = session.apply_updates(batch, rekey=rekey)
            post = session.run("lcc", keep_cache=True)
        return warm, outcome, post

    warm, outcome, post = run(rekey=True)
    _, outcome_nr, post_nr = run(rekey=False)
    with Session(outcome.graph, config) as fresh:
        cold = fresh.run("lcc", keep_cache=True)

    warm_stats, post_stats, cold_stats = (
        warm.adj_cache_stats, post.adj_cache_stats, cold.adj_cache_stats)
    raw_tpv = triangles_per_vertex_batched(outcome.graph)
    identical = (np.array_equal(post.lcc, cold.lcc)
                 and np.array_equal(post.triangles_per_vertex,
                                    cold.triangles_per_vertex)
                 and int(post.global_triangles) == int(cold.global_triangles)
                 and np.array_equal(post.triangles_per_vertex, raw_tpv)
                 and np.array_equal(
                     post.lcc, lcc_from_triplets(outcome.graph, raw_tpv)))
    return {
        "warm_hit_rate": float(warm_stats["hit_rate"]),
        "post_update_hit_rate": float(post_stats["hit_rate"]),
        "post_update_hit_rate_no_rekey": float(
            post_nr.adj_cache_stats["hit_rate"]),
        "cold_hit_rate": float(cold_stats["hit_rate"]),
        "retained_warm_hits": int(post_stats["hits"]) - int(cold_stats["hits"]),
        "retained_by_rekey_hits": int(post_stats["hits"])
                                  - int(post_nr.adj_cache_stats["hits"]),
        "invalidated_entries": outcome.invalidated_entries,
        "invalidated_entries_no_rekey": outcome_nr.invalidated_entries,
        "rekeyed_entries": outcome.rekeyed_entries,
        "retained_entries": outcome.retained_entries,
        "touched_ranks": len(outcome.touched_ranks),
        "update_time_s": outcome.time,
        "post_update_bit_identical": bool(identical),
    }


def bench_mixed_serving(quick: bool = False) -> dict[str, Any]:
    """FIFO vs affinity on an update-mixed workload (barrier validation)."""
    catalog = default_catalog(scale=0.3 if quick else 0.5)
    spec = WorkloadSpec(
        n_queries=48 if quick else 150, arrival_rate=2000.0,
        n_tenants=8 if quick else 12, graphs=tuple(catalog),
        seed=BENCH_SEED, update_mix=0.25, update_edges=8)
    requests = generate_workload(spec, catalog)
    config = ServeConfig(nranks=BENCH_NRANKS, threads=BENCH_THREADS,
                         pool_capacity=3)
    fifo, aff, identical = serve_fifo_vs_affinity(catalog, requests, config)
    return {
        "n_requests": len(requests),
        "n_updates": fifo.aggregates["n_updates"],
        "update_mix": spec.update_mix,
        "results_identical": identical,
        "throughput_ratio": (aff.aggregates["throughput_qps"]
                             / fifo.aggregates["throughput_qps"]),
        "schedulers": {name: {
            "throughput_qps": o.aggregates["throughput_qps"],
            "warm_fraction": o.aggregates["warm_fraction"],
            "update_latency_mean_s": o.aggregates.get(
                "update_latency_mean_s", 0.0),
            "invalidated_entries": o.aggregates.get("invalidated_entries", 0),
            "retained_entries_mean": o.aggregates.get(
                "retained_entries_mean", 0.0),
        } for name, o in (("fifo", fifo), ("affinity", aff))},
    }


def run_dynamic_bench(quick: bool = False) -> dict[str, Any]:
    """Produce the full dynamic report dict (see module docstring)."""
    graphs = bench_graphs(quick)
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "quick": quick,
        "nranks": BENCH_NRANKS,
        "threads": BENCH_THREADS,
        "update_edges": BENCH_UPDATE_EDGES,
        "graphs": {name: {"vertices": g.n, "edges": g.m}
                   for name, g in graphs.items()},
        "incremental": {},
        "invalidation": {},
        "serving": bench_mixed_serving(quick),
    }
    for gname, graph in graphs.items():
        report["incremental"][gname] = bench_incremental(graph)
        report["invalidation"][gname] = bench_invalidation(graph)
    return report


def _headline(report: Mapping[str, Any]) -> dict[str, Any]:
    return {
        "min_incremental_speedup": min(
            float(row["speedup"]) for row in report["incremental"].values()),
        "min_post_update_hit_rate": min(
            float(row["post_update_hit_rate"])
            for row in report["invalidation"].values()),
        "retained_warm_hits": int(sum(
            row["retained_warm_hits"]
            for row in report["invalidation"].values())),
        "serving_identical": report["serving"]["results_identical"] is True,
    }


SUITE = BenchSuite(
    name="dynamic",
    doc="post-update score record bit-identical to the raw counters (its "
        "wall-clock speedup recorded, not gated); the "
        "post-update cached answer equals a cold run with warm hits "
        "retained by targeted invalidation + rekeying; mixed read/write "
        "serving scheduler-independent",
    run=run_dynamic_bench,
    keys=("schema_version", "quick", "nranks", "threads", "graphs",
          "incremental", "invalidation", "serving"),
    gates=(
        Gate("incremental.*.bit_identical", "is", True,
             "post-update scores are not bit-identical to the raw "
             "counters"),
        Gate("invalidation.*.post_update_bit_identical", "is", True,
             "post-update cached answer differs from a cold full "
             "recompute"),
        Gate("invalidation.*.retained_warm_hits", ">", 0,
             "no warm hits retained after invalidation (cache effectively "
             "flushed)"),
        Gate("invalidation.*.invalidated_entries", ">", 0,
             "update invalidated nothing (stale entries would serve wrong "
             "data)"),
        Gate("invalidation.*.rekeyed_entries", ">", 0,
             "update rekeyed nothing (shifted adjacency entries should "
             "have been remapped)"),
        Gate("invalidation.*.post_update_hit_rate", ">=",
             Sibling("post_update_hit_rate_no_rekey"),
             "rekeying lowered the post-update hit rate"),
        Gate("serving.results_identical", "is", True,
             "mixed read/write answers are not proven identical between "
             "schedulers (update barrier broken?)"),
    ),
    headline=_headline,
)


# ---------------------------------------------------------------------------
# One-off CLI runs (``repro update``)
# ---------------------------------------------------------------------------

def one_off_update_run(graph: CSRGraph, *, nranks: int = 8, threads: int = 4,
                       n_edges: int = 16, delete_fraction: float = 0.25,
                       seed: int = 0) -> dict[str, Any]:
    """Apply one random batch to a warm resident session; report everything."""
    config = LCCConfig(nranks=nranks, threads=threads,
                       cache=CacheSpec.relative(graph.nbytes, 0.5, 1.0))
    batch = random_update_batch(graph, n_edges, delete_fraction, seed=seed)
    with Session(graph, config) as session:
        session.run("lcc", keep_cache=True)
        warm = session.run("lcc", keep_cache=True)
        t0 = time.perf_counter()
        outcome = session.apply_updates(batch)
        t0_inc = time.perf_counter()
        vertex_scores(outcome.graph, "tpv")
        incr_wall = time.perf_counter() - t0_inc
        post = session.run("lcc", keep_cache=True)
        apply_wall = t0_inc - t0
    # Against the raw counters: the query reads the version's own score
    # record, so comparing it with that record would pass a wrong one.
    raw_tpv = triangles_per_vertex_batched(outcome.graph)
    raw_lcc = lcc_from_triplets(outcome.graph, raw_tpv)
    raw_triangles = int(raw_tpv.sum()) // (1 if graph.directed else 6)
    identical = (np.array_equal(post.lcc, raw_lcc)
                 and int(post.global_triangles) == raw_triangles)
    return {
        "graph": graph.name, "vertices": graph.n, "edges": graph.m,
        "nranks": nranks,
        "edges_inserted": outcome.delta.n_inserted,
        "edges_deleted": outcome.delta.n_deleted,
        "affected_vertices": int(outcome.affected.shape[0]),
        "touched_ranks": len(outcome.touched_ranks),
        "update_simulated_time_s": outcome.time,
        "update_wall_s": apply_wall,
        "incremental_wall_s": incr_wall,
        "invalidated_entries": outcome.invalidated_entries,
        "retained_entries": outcome.retained_entries,
        "warm_hit_rate": float(warm.adj_cache_stats["hit_rate"]),
        "post_update_hit_rate": float(post.adj_cache_stats["hit_rate"]),
        "incremental_matches_query": bool(identical),
        "global_triangles": int(post.global_triangles),
    }
