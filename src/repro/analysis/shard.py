"""Shardstore benchmark: bit-identity, read scaling, failover.

``repro bench shard`` (and :func:`run_shard_bench`) records the
distribution layer's committed report, ``BENCH_shard.json``:

* **bit_identity** — per bench graph, a :class:`~repro.shardstore
  .sharded.ShardedGraphStore` and a plain :class:`~repro.graphstore
  .store.GraphStore` apply the *same* random batch sequence; every
  round's logical heads must match byte-for-byte (``graph_digest``),
  multi-shard commits must actually occur, the version vector must
  re-derive from the commit log, and **every registered kernel** run on
  both final heads must digest identically — the "sharded == unsharded"
  contract, measured rather than assumed;
* **read_scaling** — the same query-only burst served by a
  :class:`~repro.shardstore.replica.ReplicaSet` of 1 vs
  ``SHARD_REPLICAS`` read replicas routed by consistent hashing; the
  gate requires ≥ 1.5 × simulated throughput at the full replica count
  *and* bit-identical answer digests (placement may change latency,
  never answers);
* **updates** — cross-shard vs single-shard commit latency, plus a
  mixed read/write serving run through the sharded store with
  shard-set-annotated updates (the per-(graph, shard-set) fence): FIFO
  and cache-affinity must stay answer-identical, and sharded query
  answers must equal the unsharded engine's;
* **failover** — the drill: kill a replica mid-burst (resident
  sessions closed, keys re-routed), re-seed it from the primary,
  rejoin — query digests must equal an undisturbed run's, with exactly
  one re-seed;
* **replication** — convergence proved by chained history digests
  across commits, plus the detect → evict → re-seed → re-converge path
  for an injected divergence.

:data:`SUITE` declares the gate; CI re-runs it on ``--quick`` sizes.
"""

from __future__ import annotations

import math
import time
from typing import Any, Mapping

import numpy as np

from repro.analysis.benchreport import BENCH_THREADS, bench_graphs
from repro.analysis.benchsuite import (
    SCHEMA_VERSION,
    BenchSuite,
    Gate,
)
from repro.analysis.serving import serve_fifo_vs_affinity
from repro.core.config import LCCConfig
from repro.dynamic import UpdateBatch, random_update_batch
from repro.graph.csr import CSRGraph
from repro.graphstore import GraphStore, graph_digest
from repro.serve.engine import ServeConfig, ServingEngine
from repro.serve.records import result_digest
from repro.serve.scheduler import make_scheduler
from repro.serve.workload import WorkloadSpec, default_catalog, generate_workload
from repro.session import get_kernel, kernel_names, run_kernel
from repro.shardstore import ReplicaSet, ShardedGraphStore, annotate_shard_sets
from repro.utils.errors import SimulationError
from repro.utils.rng import derive_seed

#: Shard geometry every bench cell runs with: 4 shards grouping an
#: 8-rank 1D partition (2 ranks per shard, so resident acquisition is
#: provably shard-local).
SHARD_NRANKS = 8
SHARD_NSHARDS = 4

#: Replica count the read-scaling and failover scenarios run at.
SHARD_REPLICAS = 3

SHARD_SEED = 13

#: Config-variant pool for the routed read burst: enough distinct
#: session keys that the ring spreads load across every replica.
READ_VARIANTS = ((), (("method", "ssi"),), (("method", "binary"),))


def _sharded(catalog) -> ShardedGraphStore:
    return ShardedGraphStore(catalog, nshards=SHARD_NSHARDS,
                             nranks=SHARD_NRANKS)


def bench_bit_identity(graph: CSRGraph, gname: str, *,
                       rounds: int = 6) -> dict[str, Any]:
    """Sharded vs unsharded application of one random batch sequence.

    Both stores start from the same graph and apply identical batches;
    each round's logical heads are compared byte-for-byte, and after the
    last round every registered kernel runs on both heads with its
    digests compared — including across multi-shard commits, which the
    row counts to prove the barrier path was actually exercised.
    """
    name = graph.name or gname
    sharded = _sharded({name: graph})
    plain = GraphStore({name: graph})
    heads_identical = True
    multi_shard_commits = 0
    n_edges = max(8, graph.m // 25)
    for r in range(rounds):
        batch = random_update_batch(
            plain.graph(name), n_edges, 0.3,
            seed=derive_seed(SHARD_SEED, "shard-bit", gname, r))
        su = sharded.apply(name, batch)
        uu = plain.apply(name, batch)
        heads_identical = heads_identical and (
            graph_digest(su.graph) == graph_digest(uu.graph))
        if len(su.shards) > 1:
            multi_shard_commits += 1
    version = sharded.version(name).version
    config = LCCConfig(nranks=SHARD_NRANKS, threads=BENCH_THREADS)
    kernels_identical = True
    kernels_checked = 0
    for kernel in kernel_names():
        spec = get_kernel(kernel)
        if spec.undirected_only and graph.directed:
            continue
        if spec.square_grid_only and \
                math.isqrt(SHARD_NRANKS) ** 2 != SHARD_NRANKS:
            continue  # SUMMA kernels need a square grid

        rs = run_kernel(kernel, sharded.graph(name), config)
        ru = run_kernel(kernel, plain.graph(name), config)
        kernels_identical = kernels_identical and (
            result_digest(rs, version) == result_digest(ru, version))
        kernels_checked += 1
    return {
        "rounds": rounds,
        "nshards": sharded.plan(name).nshards,
        "multi_shard_commits": multi_shard_commits,
        "heads_identical": bool(heads_identical),
        "kernels_checked": kernels_checked,
        "kernels_identical": bool(kernels_identical),
        "version_vector": list(sharded.version_vector(name)),
        "version_vector_ok": sharded.check_version_vector(name) == [],
        "final_version": version,
    }


def _read_burst(quick: bool) -> list:
    catalog = default_catalog(scale=0.3 if quick else 0.5)
    spec = WorkloadSpec(
        n_queries=36 if quick else 120, arrival_rate=4000.0,
        n_tenants=9, graphs=tuple(catalog), kernels=("lcc", "tc2d"),
        seed=SHARD_SEED, update_mix=0.0, variants=READ_VARIANTS)
    return catalog, generate_workload(spec, catalog)


def bench_read_scaling(quick: bool = False) -> dict[str, Any]:
    """The same routed read burst at 1 vs ``SHARD_REPLICAS`` replicas.

    Replicas hold bit-identical graphs, so the digests must match run to
    run; what scales is throughput — each replica drains its ring-owned
    keys on its own clock with its own resident pool.
    """
    catalog, requests = _read_burst(quick)
    config = ServeConfig(nranks=SHARD_NRANKS, threads=BENCH_THREADS,
                         pool_capacity=3)
    outcomes = {}
    for n in (1, SHARD_REPLICAS):
        replicas = ReplicaSet(catalog, replicas=n, nshards=SHARD_NSHARDS,
                              nranks=SHARD_NRANKS)
        outcomes[n] = replicas.serve_reads(requests, config)
    one, many = outcomes[1], outcomes[SHARD_REPLICAS]
    return {
        "n_queries": len(requests),
        "replicas": SHARD_REPLICAS,
        "throughput_1_qps": one.throughput_qps,
        "throughput_n_qps": many.throughput_qps,
        "read_scaling": many.throughput_qps / one.throughput_qps,
        "digests_identical": one.digests() == many.digests(),
        "replica_counts": {rid: count for rid, count
                           in sorted(many.replica_counts.items())},
    }


def bench_update_latency(graph: CSRGraph, gname: str, *,
                         repeats: int = 3) -> dict[str, Any]:
    """Single-shard vs cross-shard commit latency on one graph.

    Single-shard batches draw both endpoints from shard 0's vertex
    range (one sub-batch, no other chain advances); cross-shard batches
    draw uniformly (typically touching every shard, paying the k-way
    split + barrier + digest proof).  Fresh random batches per repeat so
    the mean is not a cache artifact.
    """
    name = graph.name or gname
    store = _sharded({name: graph})
    plan = store.plan(name)
    lo, hi = plan.range_of(0)
    rng = np.random.default_rng(
        derive_seed(SHARD_SEED, "shard-lat", gname))
    n_edges = max(8, graph.m // 25)

    def committed(edges) -> float:
        batch = UpdateBatch.build(edges, None, n=graph.n,
                                  directed=graph.directed)
        t0 = time.perf_counter()
        update = store.apply(name, batch)
        wall = time.perf_counter() - t0
        return wall, len(update.shards)

    single_walls, cross_walls, cross_touched = [], [], []
    for _ in range(repeats):
        wall, touched = committed(rng.integers(lo, hi, size=(n_edges, 2)))
        if touched > 1:
            raise SimulationError(
                f"a batch inside shard 0's range touched {touched} shards")
        single_walls.append(wall)
        wall, touched = committed(rng.integers(0, graph.n,
                                               size=(n_edges, 2)))
        cross_walls.append(wall)
        cross_touched.append(touched)
    single = float(np.mean(single_walls))
    cross = float(np.mean(cross_walls))
    return {
        "edges_per_batch": n_edges,
        "single_shard_wall_s": single,
        "cross_shard_wall_s": cross,
        "cross_to_single_latency": cross / single if single else 0.0,
        "cross_shards_touched_mean": float(np.mean(cross_touched)),
        "version_vector_ok": store.check_version_vector(name) == [],
    }


def bench_sharded_serving(quick: bool = False) -> dict[str, Any]:
    """Mixed read/write serving through the sharded store.

    Updates are annotated with their touched-shard sets, so the engine's
    fence narrows to per-(graph, shard-set); FIFO vs cache-affinity must
    stay answer-identical, and sharded query digests must equal the
    unsharded engine's on the same trace (same answers, same observed
    versions).
    """
    catalog = default_catalog(scale=0.25 if quick else 0.4)
    spec = WorkloadSpec(
        n_queries=32 if quick else 80, arrival_rate=2000.0,
        n_tenants=6, graphs=tuple(catalog), kernels=("lcc", "tc2d"),
        seed=SHARD_SEED, update_mix=0.3, update_edges=8)
    requests = generate_workload(spec, catalog)
    annotated = annotate_shard_sets(requests, _sharded(catalog))
    multi_shard_updates = sum(
        1 for r in annotated
        if r.is_update and r.shards is not None and len(r.shards) > 1)
    config = ServeConfig(nranks=SHARD_NRANKS, threads=BENCH_THREADS,
                         pool_capacity=3)
    fifo, aff, identical = serve_fifo_vs_affinity(
        catalog, annotated, config, store_factory=_sharded)
    unsharded = ServingEngine(catalog, config,
                              make_scheduler("fifo")).serve(requests)
    return {
        "n_requests": len(requests),
        "n_updates": fifo.aggregates["n_updates"],
        "multi_shard_updates": multi_shard_updates,
        "results_identical": identical,
        "matches_unsharded_queries": (
            {r.qid: r.digest for r in fifo.records}
            == {r.qid: r.digest for r in unsharded.records}),
        "schedulers": {sched: {
            "throughput_qps": o.aggregates["throughput_qps"],
            "warm_fraction": o.aggregates["warm_fraction"],
            "updates_coalesced": o.aggregates["updates_coalesced"],
        } for sched, o in (("fifo", fifo), ("affinity", aff))},
    }


def bench_failover(quick: bool = False) -> dict[str, Any]:
    """The drill: kill a replica mid-burst, re-route, re-seed, rejoin.

    The faulted run's per-query digests must equal an undisturbed run's
    — killing a replica moves queries (and their warm/cold timing),
    never their answers — and the killed replica must come back digest-
    converged after exactly one re-seed.
    """
    catalog, requests = _read_burst(quick)
    config = ServeConfig(nranks=SHARD_NRANKS, threads=BENCH_THREADS,
                         pool_capacity=3)

    def fresh() -> ReplicaSet:
        return ReplicaSet(catalog, replicas=SHARD_REPLICAS,
                          nshards=SHARD_NSHARDS, nranks=SHARD_NRANKS)

    ordered = sorted(requests)
    kill_at = ordered[len(ordered) // 3].qid
    rejoin_at = ordered[(2 * len(ordered)) // 3].qid
    plain = fresh().serve_reads(requests, config)
    victim = max(plain.replica_counts, key=lambda rid:
                 (plain.replica_counts[rid], rid))
    replicas = fresh()
    faulted = replicas.serve_reads(requests, config, kill_replica=victim,
                                   kill_at=kill_at, rejoin_at=rejoin_at)
    return {
        "n_queries": len(requests),
        "killed_replica": victim,
        "kill_at_qid": kill_at,
        "rejoin_at_qid": rejoin_at,
        "digests_identical": plain.digests() == faulted.digests(),
        "reseeds": replicas.reseeds,
        "rejoined_converged": replicas.verify() == [],
        "throughput_plain_qps": plain.throughput_qps,
        "throughput_faulted_qps": faulted.throughput_qps,
        "replica_counts_faulted": {rid: count for rid, count
                                   in sorted(faulted.replica_counts.items())},
    }


def bench_replication(graph: CSRGraph, gname: str, *,
                      commits: int = 4) -> dict[str, Any]:
    """Convergence by digest, then the detect → heal path for divergence."""
    name = graph.name or gname
    replicas = ReplicaSet({name: graph}, replicas=SHARD_REPLICAS,
                          nshards=SHARD_NSHARDS, nranks=SHARD_NRANKS)
    n_edges = max(8, graph.m // 25)
    for r in range(commits):
        replicas.commit(name, random_update_batch(
            replicas.primary.graph(name), n_edges, 0.3,
            seed=derive_seed(SHARD_SEED, "shard-rep", gname, r)))
    converged = replicas.verify() == []
    # Inject divergence: a write that bypasses the set hits one replica.
    rogue = replicas.live_ids()[0]
    replicas.replica(rogue).apply(name, UpdateBatch.build(
        [[0, graph.n - 1]], None, n=graph.n, directed=graph.directed))
    detected = replicas.divergent() == [rogue]
    healed = replicas.heal() == [rogue]
    # Convergence must be provable again on the next commit.
    replicas.commit(name, random_update_batch(
        replicas.primary.graph(name), n_edges, 0.3,
        seed=derive_seed(SHARD_SEED, "shard-rep", gname, "post")))
    return {
        "commits": commits,
        "replicas": SHARD_REPLICAS,
        "converged": bool(converged),
        "divergence_detected": bool(detected),
        "healed": bool(healed),
        "converged_after_heal": replicas.verify() == [],
        "reseeds": replicas.reseeds,
    }


def run_shard_bench(quick: bool = False) -> dict[str, Any]:
    """Produce the full shard report dict (see module docstring)."""
    graphs = bench_graphs(quick)
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "quick": quick,
        "nranks": SHARD_NRANKS,
        "nshards": SHARD_NSHARDS,
        "replicas": SHARD_REPLICAS,
        "threads": BENCH_THREADS,
        "graphs": {name: {"vertices": g.n, "edges": g.m}
                   for name, g in graphs.items()},
        "bit_identity": {},
        "read_scaling": bench_read_scaling(quick),
        "updates": {"serving": bench_sharded_serving(quick)},
        "failover": bench_failover(quick),
        "replication": {},
    }
    rounds = 4 if quick else 6
    for gname, graph in graphs.items():
        report["bit_identity"][gname] = bench_bit_identity(
            graph, gname, rounds=rounds)
        report["updates"][gname] = bench_update_latency(graph, gname)
        report["replication"][gname] = bench_replication(graph, gname)
    return report


def _headline(report: Mapping[str, Any]) -> dict[str, Any]:
    latencies = [float(row["cross_to_single_latency"])
                 for gname, row in report["updates"].items()
                 if gname != "serving"]
    return {
        "read_scaling": float(report["read_scaling"]["read_scaling"]),
        "multi_shard_commits": int(sum(
            row["multi_shard_commits"]
            for row in report["bit_identity"].values())),
        "cross_to_single_latency_mean": (
            float(np.mean(latencies)) if latencies else 0.0),
        "failover_digests_identical":
            report["failover"]["digests_identical"] is True,
    }


SUITE = BenchSuite(
    name="shard",
    doc="sharded == unsharded bit-identity across every kernel with "
        "multi-shard commits exercised and version vectors re-derivable; "
        "1.5x simulated read-throughput floor at 3 replicas with "
        "placement-independent answers; scheduler-"
        "independent sharded serving matching the unsharded engine; the "
        "failover drill (exactly one re-seed, digests unchanged) and "
        "divergence detect -> heal",
    run=run_shard_bench,
    keys=("schema_version", "quick", "nranks", "nshards", "replicas",
          "threads", "graphs", "bit_identity", "read_scaling", "updates",
          "failover", "replication"),
    gates=(
        Gate("bit_identity.*.heads_identical", "is", True,
             "sharded heads diverged from the unsharded store"),
        Gate("bit_identity.*.kernels_identical", "is", True,
             "kernel answers differ between sharded and unsharded heads"),
        Gate("bit_identity.*.multi_shard_commits", ">", 0,
             "no multi-shard commit was exercised (the barrier path went "
             "untested)"),
        Gate("bit_identity.*.version_vector_ok", "is", True,
             "version vector does not re-derive from the commit log"),
        Gate("read_scaling.read_scaling", ">=", 1.5,
             "read scaling at the full replica count is below the floor"),
        Gate("read_scaling.digests_identical", "is", True,
             "answers changed with replica count (placement must never "
             "change answers)"),
        Gate("updates.serving.results_identical", "is", True,
             "sharded serving is not scheduler-independent (shard-set "
             "fence broken?)"),
        Gate("updates.serving.matches_unsharded_queries", "is", True,
             "sharded query answers diverged from the unsharded engine"),
        Gate("updates.*.version_vector_ok", "is", True,
             "version vector inconsistent after the latency scenario",
             skip=("serving",)),
        Gate("failover.digests_identical", "is", True,
             "killing a replica changed query answers"),
        Gate("failover.reseeds", "==", 1,
             "the failover drill must re-seed exactly once"),
        Gate("failover.rejoined_converged", "is", True,
             "the rejoined replica is not digest-converged"),
        *(Gate(f"replication.*.{field}", "is", True,
               f"replication drill: {field} is false")
          for field in ("converged", "divergence_detected", "healed",
                        "converged_after_heal")),
    ),
    headline=_headline,
)
