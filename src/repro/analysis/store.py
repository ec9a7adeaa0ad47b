"""GraphStore benchmark: resident 2D grids, versioned update propagation.

``repro bench store`` (and :func:`run_store_bench`) records the
graph-store subsystem's trajectory point, ``BENCH_store.json``:

* **tc2d** — serving ``tc2d`` warm from a resident
  :class:`~repro.graphstore.grid2d.GridCluster2D` versus the legacy
  per-call rebuild path (:func:`~repro.core.tc2d.run_distributed_tc_2d`,
  the scalar loop on a throwaway grid), per bench graph, with the
  rebuild path kept as the bit-identity oracle (same triangles *and*
  same per-rank simulated clocks).  The warm wall-clock speedup is
  recorded, not gated — in practice the resident panel replay makes the
  warm query orders of magnitude faster;
* **versions** — a mixed read/write serving run through FIFO and
  cache-affinity scheduling over the store: per-query answers (prefixed
  with the observed :class:`~repro.graphstore.store.GraphVersion`),
  per-update chained history digests and the final per-graph version
  histories must all be scheduler-independent, proving that an update
  advances one version visible to *every* session of its graph no
  matter who schedules it; the row also records how many consecutive
  queued updates each scheduler coalesced into single store flushes;
* **delete_heavy** — the deletion-dominated scenario (>= 75% deletes
  per batch, sustained across rounds until degrees collapse below the
  min-degree preprocessing threshold): every version's score record
  must stay bit-identical to the raw full counters, and a delete-heavy
  serving workload must stay scheduler-independent.

:data:`SUITE` declares the gate a recorded report must pass; CI re-runs
it on ``--quick`` sizes.
"""

from __future__ import annotations

import time
from typing import Any, Mapping

import numpy as np

from repro.analysis.benchreport import BENCH_THREADS, bench_graphs
from repro.analysis.benchsuite import (
    SCHEMA_VERSION,
    BenchSuite,
    Gate,
    Sibling,
)
from repro.analysis.serving import serve_fifo_vs_affinity
from repro.core.config import LCCConfig
from repro.core.tc2d import run_distributed_tc_2d
from repro.dynamic import apply_delta, random_update_batch
from repro.graph.csr import CSRGraph
from repro.core.local import (
    triangles_min_vertex,
    triangles_per_vertex_batched,
    vertex_scores,
)
from repro.serve.engine import ServeConfig
from repro.serve.workload import WorkloadSpec, default_catalog, generate_workload
from repro.session import Session
from repro.utils.rng import derive_seed

#: The 2D bench runs a square grid (3 x 3) so the SUMMA-style kernel —
#: not the rectangular fallback — is what gets measured.
STORE_NRANKS = 9

STORE_SEED = 11

#: Deletion-heavy scenario shape: >= 75% of every batch deletes edges.
DELETE_HEAVY_FRACTION = 0.8


def bench_tc2d_resident(graph: CSRGraph, *, repeats: int = 3
                        ) -> dict[str, Any]:
    """Warm resident ``tc2d`` vs the per-call rebuild path on one graph.

    Both paths are timed on their steady state: the rebuild path's
    second-and-later calls (it has no warm state, every call pays the
    full split + pack + count), the resident path's second-and-later
    queries (grid built once, warm queries replay).  ``bit_identical``
    covers triangles *and* per-rank simulated clocks.
    """
    config = LCCConfig(nranks=STORE_NRANKS, threads=BENCH_THREADS)
    rebuild_first = run_distributed_tc_2d(graph, config)
    t0 = time.perf_counter()
    for _ in range(repeats):
        rebuild = run_distributed_tc_2d(graph, config)
    rebuild_warm = (time.perf_counter() - t0) / repeats

    with Session(graph, config) as session:
        cold = session.run("tc2d")
        t0 = time.perf_counter()
        for _ in range(repeats):
            warm = session.run("tc2d")
        resident_warm = (time.perf_counter() - t0) / repeats
        grid_builds = session.grid_builds

    identical = (
        int(warm.global_triangles) == int(rebuild.global_triangles)
        and warm.outcome.clocks == rebuild.outcome.clocks
        and int(cold.global_triangles) == int(rebuild_first.global_triangles)
        and cold.outcome.clocks == rebuild_first.outcome.clocks)
    return {
        "rebuild_warm_wall_s": rebuild_warm,
        "resident_warm_wall_s": resident_warm,
        "warm_speedup": rebuild_warm / resident_warm,
        "bit_identical": bool(identical),
        "global_triangles": int(warm.global_triangles),
        "simulated_time_s": float(warm.time),
        "grid_builds": grid_builds,
        "nranks": STORE_NRANKS,
    }


def bench_version_propagation(quick: bool = False) -> dict[str, Any]:
    """Mixed read/write serving over the store, FIFO vs affinity.

    The scheduler-independence contract now covers three layers at once:
    per-query answer bytes, the graph version each query *observed*, and
    each graph's chained version-history digest — all folded into the
    per-request digests :func:`~repro.serve.engine.answers_identical`
    compares.  The workload mixes ``lcc`` (1D resident cluster) with
    ``tc2d`` (resident 2D grid), so one committed update propagates into
    both partitionings of the same stored graph.
    """
    catalog = default_catalog(scale=0.3 if quick else 0.5)
    spec = WorkloadSpec(
        n_queries=48 if quick else 150, arrival_rate=2000.0,
        n_tenants=8 if quick else 12, graphs=tuple(catalog),
        kernels=("lcc", "tc2d"), seed=STORE_SEED,
        update_mix=0.3, update_edges=8)
    requests = generate_workload(spec, catalog)
    config = ServeConfig(nranks=8, threads=BENCH_THREADS, pool_capacity=3)
    fifo, aff, identical = serve_fifo_vs_affinity(catalog, requests, config)
    return {
        "n_requests": len(requests),
        "n_updates": fifo.aggregates["n_updates"],
        "update_mix": spec.update_mix,
        "results_identical": identical,
        "version_histories_identical": fifo.graph_versions == aff.graph_versions,
        "final_versions": {name: v for name, (v, _) in
                           sorted(fifo.graph_versions.items())},
        "schedulers": {name: {
            "throughput_qps": o.aggregates["throughput_qps"],
            "warm_fraction": o.aggregates["warm_fraction"],
            "updates_coalesced": o.aggregates["updates_coalesced"],
            "rekeyed_entries": o.aggregates.get("rekeyed_entries", 0),
            "invalidated_entries": o.aggregates.get("invalidated_entries", 0),
        } for name, o in (("fifo", fifo), ("affinity", aff))},
    }


def bench_delete_heavy(graph: CSRGraph, *, rounds: int = 6,
                       seed: int = STORE_SEED) -> dict[str, Any]:
    """Sustained shrinkage: delete-dominated batches, round after round.

    Each round applies a batch that is >= 75% deletes and cross-checks
    the shrunken graph's score record bit-identically against the raw
    full counters; degrees are tracked so the report shows the collapse
    below the min-degree-2 preprocessing threshold (vertices that can no
    longer be in any triangle).
    """
    current = graph
    identical = True
    batch_edges = max(8, graph.m // 20)
    for r in range(rounds):
        batch = random_update_batch(
            current, batch_edges, DELETE_HEAVY_FRACTION,
            seed=derive_seed(seed, "store-del", graph.name, r))
        current = apply_delta(current, batch, strict=False).graph
        identical = identical and (
            np.array_equal(triangles_per_vertex_batched(current),
                           vertex_scores(current, "tpv"))
            and np.array_equal(triangles_min_vertex(current),
                               vertex_scores(current, "tmin")))
    degrees = current.degrees()
    return {
        "rounds": rounds,
        "delete_fraction": DELETE_HEAVY_FRACTION,
        "edges_before": int(graph.m),
        "edges_after": int(current.m),
        "bit_identical": bool(identical),
        "collapsed_below_min_degree": int((degrees < 2).sum()),
    }


def bench_delete_heavy_serving(quick: bool = False) -> dict[str, Any]:
    """A delete-dominated serving trace must stay scheduler-independent."""
    catalog = default_catalog(scale=0.25 if quick else 0.4)
    spec = WorkloadSpec(
        n_queries=32 if quick else 80, arrival_rate=2000.0,
        n_tenants=6, graphs=tuple(catalog), seed=STORE_SEED,
        update_mix=0.35, update_edges=10).delete_heavy()
    requests = generate_workload(spec, catalog)
    config = ServeConfig(nranks=8, threads=BENCH_THREADS, pool_capacity=3)
    fifo, _, identical = serve_fifo_vs_affinity(catalog, requests, config)
    return {
        "n_requests": len(requests),
        "n_updates": fifo.aggregates["n_updates"],
        "delete_fraction": spec.update_delete_fraction,
        "edges_deleted": fifo.aggregates.get("edges_deleted", 0),
        "edges_inserted": fifo.aggregates.get("edges_inserted", 0),
        "results_identical": identical,
    }


def run_store_bench(quick: bool = False) -> dict[str, Any]:
    """Produce the full store report dict (see module docstring)."""
    graphs = bench_graphs(quick)
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "quick": quick,
        "nranks": STORE_NRANKS,
        "threads": BENCH_THREADS,
        "graphs": {name: {"vertices": g.n, "edges": g.m}
                   for name, g in graphs.items()},
        "tc2d": {},
        "versions": bench_version_propagation(quick),
        "delete_heavy": {"serving": bench_delete_heavy_serving(quick)},
    }
    for gname, graph in graphs.items():
        report["tc2d"][gname] = bench_tc2d_resident(graph)
        report["delete_heavy"][gname] = bench_delete_heavy(graph)
    return report


def _headline(report: Mapping[str, Any]) -> dict[str, Any]:
    versions = report["versions"]
    return {
        "min_tc2d_warm_speedup": min(
            float(row["warm_speedup"]) for row in report["tc2d"].values()),
        "version_histories_identical":
            versions["version_histories_identical"] is True,
        "updates_coalesced": {
            name: int(agg["updates_coalesced"])
            for name, agg in versions["schedulers"].items()},
        "delete_heavy_edges_removed": int(sum(
            row["edges_before"] - row["edges_after"]
            for gname, row in report["delete_heavy"].items()
            if gname != "serving")),
    }


SUITE = BenchSuite(
    name="store",
    doc="resident-vs-rebuild `tc2d` answers and clocks bit-identical, the "
        "grid built once (the warm wall-clock speedup recorded, not gated); "
        "scheduler- and version-history-independent mixed serving; "
        "delete-heavy shrinkage bit-identical to full recomputes",
    run=run_store_bench,
    keys=("schema_version", "quick", "nranks", "threads", "graphs", "tc2d",
          "versions", "delete_heavy"),
    gates=(
        Gate("tc2d.*.bit_identical", "is", True,
             "resident grid answers/clocks differ from the per-call "
             "rebuild path"),
        Gate("tc2d.*.grid_builds", "==", 1,
             "grid was rebuilt (the resident path must build once)"),
        Gate("versions.results_identical", "is", True,
             "mixed read/write answers are not proven identical between "
             "schedulers (graph fence or propagation broken?)"),
        Gate("versions.version_histories_identical", "is", True,
             "per-graph version histories differ between schedulers "
             "(store commits are scheduler-dependent?)"),
        Gate("versions.n_updates", ">", 0,
             "the serving run exercised no updates"),
        Gate("delete_heavy.serving.results_identical", "is", True,
             "answers are not scheduler-independent under deletion-heavy "
             "traffic"),
        Gate("delete_heavy.*.bit_identical", "is", True,
             "score record diverged from the raw counters under "
             "sustained shrinkage", skip=("serving",)),
        Gate("delete_heavy.*.edges_after", "<", Sibling("edges_before"),
             "the graph did not shrink (scenario is not "
             "deletion-dominated)", skip=("serving",)),
    ),
    headline=_headline,
)


# ---------------------------------------------------------------------------
# One-off CLI runs (``repro store``)
# ---------------------------------------------------------------------------

def one_off_store_run(graph: CSRGraph, *, nranks: int = STORE_NRANKS,
                      threads: int = BENCH_THREADS, n_edges: int = 16,
                      delete_fraction: float = 0.25, seed: int = 0
                      ) -> dict[str, Any]:
    """Resident-vs-rebuild tc2d plus one versioned update; report everything."""
    from repro.graphstore import GraphStore

    config = LCCConfig(nranks=nranks, threads=threads)
    name = graph.name or "graph"
    store = GraphStore({name: graph})
    batch = random_update_batch(graph, n_edges, delete_fraction, seed=seed)
    # Time the rebuild oracle on the SAME (pre-update) graph the warm
    # query serves — the update may change the graph size materially.
    t0 = time.perf_counter()
    run_distributed_tc_2d(graph, config)
    rebuild_wall = time.perf_counter() - t0
    with Session(graph, config) as session:
        cold = session.run("tc2d")
        t0 = time.perf_counter()
        warm = session.run("tc2d")
        warm_wall = time.perf_counter() - t0
        update = store.apply(name, batch)
        outcome = session.sync_to(update.delta)
        post = session.run("tc2d")
    ref = run_distributed_tc_2d(store.graph(name), config)
    return {
        "graph": name, "vertices": graph.n, "edges": graph.m,
        "nranks": nranks,
        "version": str(update.version),
        "history_digest": update.digest[:12],
        "edges_inserted": update.delta.n_inserted,
        "edges_deleted": update.delta.n_deleted,
        "touched_blocks": len(outcome.touched_blocks),
        "update_simulated_time_s": outcome.time,
        "cold_triangles": int(cold.global_triangles),
        "post_update_triangles": int(post.global_triangles),
        "post_update_matches_rebuild": bool(
            int(post.global_triangles) == int(ref.global_triangles)
            and post.outcome.clocks == ref.outcome.clocks),
        "warm_wall_s": warm_wall,
        "rebuild_wall_s": rebuild_wall,
        "warm_speedup": rebuild_wall / warm_wall if warm_wall else 0.0,
        "warm_matches_cold": bool(
            int(warm.global_triangles) == int(cold.global_triangles)),
    }
