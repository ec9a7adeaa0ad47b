"""Command-line interface.

::

    python -m repro datasets                         # list stand-ins
    python -m repro kernels                          # list registered kernels
    python -m repro info livejournal                 # graph properties
    python -m repro lcc livejournal --nranks 16 --cache degree
    python -m repro tc --input edges.txt --nranks 8 --algorithm tric
    python -m repro run livejournal --kernel tric --nranks 16
    python -m repro lcc orkut --json                 # machine-readable
    python -m repro bench kernels                    # a gated benchmark suite

Every algorithm execution goes through the kernel registry
(:mod:`repro.session`); ``run`` exposes any registered kernel by name,
while ``lcc``/``tc`` remain the task-oriented front ends.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.core.config import CacheSpec, LCCConfig
from repro.graph.datasets import dataset_names, load_dataset, DATASETS
from repro.graph.io import read_edge_list
from repro.graph.properties import degree_stats
from repro.session import get_kernel, kernel_names, run_kernel
from repro.utils.units import format_bytes, format_seconds


def _load_graph(args):
    if args.input:
        return read_edge_list(args.input, directed=args.directed)
    if not args.dataset:
        raise SystemExit("pass a dataset name or --input FILE")
    return load_dataset(args.dataset, scale=args.scale, seed=args.seed)


def _make_config(args) -> LCCConfig:
    cache = None
    if args.cache != "none":
        graph_hint = args._graph_nbytes
        budget = (args.cache_bytes if args.cache_bytes
                  else max(4096, 2 * graph_hint))
        cache = CacheSpec.paper_split(budget, args._graph_n, score=args.cache)
    return LCCConfig(
        nranks=args.nranks,
        threads=args.threads,
        method=args.method,
        partition=args.partition,
        overlap=not args.no_overlap,
        cache=cache,
    )


def _emit(args, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, default=float))
        return
    for key, value in payload.items():
        if isinstance(value, float):
            print(f"{key:28s} {value:.6g}")
        else:
            print(f"{key:28s} {value}")


def cmd_datasets(args) -> int:
    for name in dataset_names():
        spec = DATASETS[name]
        print(f"{name:18s} {'D' if spec.directed else 'U'}  "
              f"paper |V|={spec.paper_vertices:>13,}  "
              f"|E|={spec.paper_edges:>14,}  {spec.description}")
    return 0


def cmd_info(args) -> int:
    g = _load_graph(args)
    stats = degree_stats(g)
    payload = {
        "name": g.name,
        "directed": g.directed,
        "vertices": g.n,
        "edges": g.m,
        "csr_bytes": g.nbytes,
        "csr_size": format_bytes(g.nbytes),
        **{f"degree_{k}": v for k, v in stats.items()},
    }
    _emit(args, payload)
    return 0


def cmd_kernels(args) -> int:
    for name in kernel_names():
        spec = get_kernel(name)
        traits = []
        if spec.resident:
            traits.append("resident")
        if spec.undirected_only:
            traits.append("undirected-only")
        if spec.square_grid_only:
            traits.append("square-grid")
        suffix = f"  [{', '.join(traits)}]" if traits else ""
        print(f"{name:12s} {spec.description}{suffix}")
    return 0


def cmd_lcc(args) -> int:
    g = _load_graph(args)
    args._graph_nbytes, args._graph_n = g.nbytes, g.n
    config = _make_config(args)
    result = run_kernel("lcc", g, config)
    payload = {
        "graph": g.name, "vertices": g.n, "edges": g.m,
        "nranks": args.nranks,
        "simulated_time_s": result.time,
        "simulated_time": format_seconds(result.time),
        "global_triangles": result.global_triangles,
        "mean_lcc": float(np.mean(result.lcc)),
        "max_lcc": float(np.max(result.lcc)) if g.n else 0.0,
        **{k: v for k, v in result.summary().items()
           if k in ("comm_time", "comp_time", "hit_rate", "remote_fraction",
                    "load_imbalance")},
    }
    if args.top:
        order = np.argsort(-result.lcc)[:args.top]
        payload["top_lcc_vertices"] = [
            {"vertex": int(v), "lcc": float(result.lcc[v])} for v in order]
    _emit(args, payload)
    if args.output:
        np.save(args.output, result.lcc)
        print(f"LCC scores written to {args.output}", file=sys.stderr)
    return 0


#: CLI algorithm names -> registered kernel names (kept for compatibility).
ALGORITHMS = {
    "async": "tc",
    "async-2d": "tc2d",
    "tric": "tric",
    "disttc": "disttc",
    "mapreduce": "mapreduce",
}


def cmd_tc(args) -> int:
    g = _load_graph(args)
    config = LCCConfig(nranks=args.nranks, threads=args.threads)
    result = run_kernel(ALGORITHMS[args.algorithm], g, config)
    payload = {
        "graph": g.name, "vertices": g.n, "edges": g.m,
        "algorithm": args.algorithm, "nranks": args.nranks,
        "triangles": result.global_triangles,
        "simulated_time_s": result.time,
        "simulated_time": format_seconds(result.time),
    }
    _emit(args, payload)
    return 0


def cmd_run(args) -> int:
    g = _load_graph(args)
    args._graph_nbytes, args._graph_n = g.nbytes, g.n
    config = _make_config(args)
    spec = get_kernel(args.kernel)
    if not spec.resident:
        ignored = [flag for flag, used in (
            ("--cache", args.cache != "none"),
            ("--cache-bytes", args.cache_bytes is not None),
            ("--method", args.method != "hybrid"),
            ("--partition", args.partition != "block"),
            ("--no-overlap", args.no_overlap),
            ("--threads", args.threads != 12),
        ) if used]
        if ignored:
            print(f"note: kernel {args.kernel!r} does not use "
                  f"{', '.join(ignored)}; it only takes --nranks "
                  "(and --buffer-capacity for tric)", file=sys.stderr)
    opts = {}
    if args.buffer_capacity is not None:
        opts["buffer_capacity"] = args.buffer_capacity
    result = run_kernel(args.kernel, g, config, **opts)
    payload = {
        "graph": g.name, "vertices": g.n, "edges": g.m,
        "kernel": args.kernel, "nranks": args.nranks,
        "triangles": result.global_triangles,
        "simulated_time_s": result.time,
        "simulated_time": format_seconds(result.time),
        **{k: v for k, v in result.summary().items()
           if k in ("comm_time", "comp_time", "hit_rate", "remote_fraction",
                    "load_imbalance")},
    }
    if result.lcc is not None:
        payload["mean_lcc"] = float(np.mean(result.lcc))
    if result.adj_cache_stats:
        payload["adj_hit_rate"] = result.adj_cache_stats["hit_rate"]
    if result.offsets_cache_stats:
        payload["offsets_hit_rate"] = result.offsets_cache_stats["hit_rate"]
    _emit(args, payload)
    return 0


def cmd_bench(args) -> int:
    from repro.analysis.benchsuite import SUITE_NAMES, list_lines, run_suites

    if args.list:
        print("\n".join(list_lines()))
        return 0
    names = args.suites or ["all"]
    unknown = sorted(set(names) - set(SUITE_NAMES) - {"all"})
    if unknown:
        raise SystemExit(
            f"unknown bench suite(s) {', '.join(unknown)}; expected "
            f"{', '.join(SUITE_NAMES)} or all")
    if "all" in names:
        names = list(SUITE_NAMES)
    return run_suites(names, quick=args.quick, directory=args.dir)


def cmd_update(args) -> int:
    from repro.analysis.dynamic import one_off_update_run

    g = _load_graph(args)
    payload = one_off_update_run(
        g, nranks=args.nranks, threads=args.threads, n_edges=args.edges,
        delete_fraction=args.delete_fraction, seed=args.seed)
    _emit(args, payload)
    return 0


def cmd_store(args) -> int:
    from repro.analysis.store import one_off_store_run

    g = _load_graph(args)
    payload = one_off_store_run(
        g, nranks=args.nranks, threads=args.threads, n_edges=args.edges,
        delete_fraction=args.delete_fraction, seed=args.seed)
    _emit(args, payload)
    return 0


def cmd_shard(args) -> int:
    from repro.analysis.shard import one_off_shard_run

    g = _load_graph(args)
    payload = one_off_shard_run(
        g, nshards=args.nshards, nranks=args.nranks, replicas=args.replicas,
        n_edges=args.edges, delete_fraction=args.delete_fraction,
        seed=args.seed)
    _emit(args, payload)
    return 0


def cmd_async_serve(args) -> int:
    from repro.analysis.async_serve import one_off_async_run

    payload = one_off_async_run(
        n_queries=args.queries, arrival_rate=args.rate,
        n_tenants=args.tenants, update_mix=args.update_mix,
        workers=args.workers, max_queue=args.max_queue,
        overflow=args.overflow, arrival_mode=args.arrival_mode,
        scale=args.catalog_scale, seed=args.seed)
    _emit(args, payload)
    return 0


def cmd_serve(args) -> int:
    from repro.serve import (
        ServeConfig,
        ServingEngine,
        WorkloadSpec,
        default_catalog,
        generate_workload,
        make_scheduler,
    )
    from repro.serve.engine import answers_identical

    catalog = default_catalog(scale=args.catalog_scale)
    spec = WorkloadSpec(n_queries=args.queries, arrival_rate=args.rate,
                        n_tenants=args.tenants, graphs=tuple(catalog),
                        seed=args.seed)
    if args.skew == "uniform":
        spec = spec.uniform()
    requests = generate_workload(spec)
    config = ServeConfig(nranks=args.nranks, threads=args.threads,
                         pool_capacity=args.pool_capacity,
                         pool_policy=args.pool_policy)
    names = (("fifo", "affinity") if args.scheduler == "both"
             else (args.scheduler,))
    outcomes = {}
    for name in names:
        opts = {"max_batch": args.max_batch} if name == "affinity" else {}
        engine = ServingEngine(catalog, config, make_scheduler(name, **opts))
        outcomes[name] = engine.serve(requests)
    payload = {
        "queries": spec.n_queries, "tenants": spec.n_tenants,
        "arrival_rate_qps": spec.arrival_rate, "skew": args.skew,
        "catalog": ",".join(catalog), "pool_capacity": config.pool_capacity,
        "pool_policy": config.pool_policy, "seed": spec.seed,
    }
    for name, outcome in outcomes.items():
        payload.update({f"{name}_{k}": v
                        for k, v in outcome.aggregates.items()})
    if len(outcomes) == 2:
        fifo, aff = outcomes["fifo"], outcomes["affinity"]
        payload["results_identical"] = answers_identical(fifo, aff)
        payload["throughput_ratio"] = (
            aff.aggregates["throughput_qps"]
            / fifo.aggregates["throughput_qps"])
    _emit(args, payload)
    return 0


def cmd_trace(args) -> int:
    from repro.analysis.tracing import (
        DEFAULT_JOURNAL_PATH,
        DEFAULT_TRACE_PATH,
        TRACE_SEED,
        one_off_trace_run,
    )

    payload = one_off_trace_run(
        journal_path=args.journal or DEFAULT_JOURNAL_PATH,
        trace_path=args.trace or DEFAULT_TRACE_PATH,
        quick=args.quick,
        seed=TRACE_SEED if args.seed is None else args.seed,
        scheduler=args.scheduler)
    if args.json:
        print(json.dumps(payload, indent=2, default=float))
    else:
        replay = payload["replay"]
        util = payload["utilization"]
        print(f"{payload['n_requests']} requests traced "
              f"({payload['scheduler']} scheduler, seed {payload['seed']})")
        print(f"journal      {payload['n_events']} events  "
              f"digest {payload['journal_digest'][:12]}  "
              f"replay fence-legal: {replay['ok']} "
              f"({replay['n_dispatches']} dispatches, "
              f"{replay['n_commits']} commits)")
        print(f"spans        {payload['n_spans']} spans, "
              f"{len(payload['span_problems'])} problems")
        print(f"overall      mean concurrency "
              f"{util['overall']['mean_concurrency']:.2f}  overlap "
              f"{util['overall']['overlap_fraction']:.2f}  makespan "
              f"{util['makespan_s']:.4f}s")
        for key, row in util["domains"].items():
            print(f"{key:24s} {row['n_queries']:3d} queries "
                  f"{row['n_updates']:3d} updates  busy "
                  f"{row['busy_fraction']:.2f} of makespan  overlap "
                  f"{row['overlap_fraction']:.2f}")
    print(f"journal written to {payload['journal_path']}", file=sys.stderr)
    print(f"chrome trace written to {payload['trace_path']}",
          file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Asynchronous distributed TC/LCC with RMA caching "
                    "(IPDPS'22 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_args(p):
        p.add_argument("dataset", nargs="?", default=None,
                       help="a registered dataset name")
        p.add_argument("--input", help="edge-list file instead of a dataset")
        p.add_argument("--directed", action="store_true",
                       help="treat --input as directed")
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true")

    def add_cluster_args(p):
        p.add_argument("--nranks", type=int, default=8)
        p.add_argument("--threads", type=int, default=12)
        p.add_argument("--method", choices=["ssi", "binary", "hybrid"],
                       default="hybrid")
        p.add_argument("--partition", choices=["block", "cyclic"],
                       default="block")
        p.add_argument("--cache", choices=["none", "default", "degree", "lru"],
                       default="none", help="eviction-score policy, or none")
        p.add_argument("--cache-bytes", type=int, default=None,
                       help="total cache budget (default: 2x graph size)")
        p.add_argument("--no-overlap", action="store_true",
                       help="disable double buffering")

    p = sub.add_parser("datasets", help="list dataset stand-ins")
    p.set_defaults(fn=cmd_datasets)

    p = sub.add_parser("kernels", help="list registered kernels")
    p.set_defaults(fn=cmd_kernels)

    p = sub.add_parser("info", help="show graph properties")
    add_graph_args(p)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("lcc", help="distributed LCC on the simulated cluster")
    add_graph_args(p)
    add_cluster_args(p)
    p.add_argument("--top", type=int, default=0,
                   help="print the top-K LCC vertices")
    p.add_argument("--output", help="write LCC scores to a .npy file")
    p.set_defaults(fn=cmd_lcc)

    p = sub.add_parser("tc", help="triangle counting (several algorithms)")
    add_graph_args(p)
    p.add_argument("--nranks", type=int, default=8)
    p.add_argument("--threads", type=int, default=12)
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS),
                   default="async")
    p.set_defaults(fn=cmd_tc)

    p = sub.add_parser(
        "bench",
        help="run the gated benchmark suites; write BENCH_<suite>.json")
    p.add_argument("suites", nargs="*", metavar="SUITE",
                   help="suites to run, or 'all' (the default); "
                        "see --list")
    p.add_argument("--quick", action="store_true",
                   help="small sizes (CI smoke run); the report lands in "
                        "BENCH_<suite>_quick.json")
    p.add_argument("--dir", default=".", metavar="DIR",
                   help="directory the fresh reports are written to "
                        "(default: .)")
    p.add_argument("--list", action="store_true",
                   help="print every suite's committed report and gate table")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "update",
        help="dynamic-graph updates: post-update rescoring + targeted "
             "cache invalidation")
    add_graph_args(p)
    p.add_argument("--nranks", type=int, default=8)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--edges", type=int, default=16,
                   help="edges per synthetic update batch")
    p.add_argument("--delete-fraction", type=float, default=0.25,
                   help="fraction of the batch that deletes existing edges")
    p.set_defaults(fn=cmd_update)

    p = sub.add_parser(
        "store",
        help="versioned graph store: resident 2D grids + update propagation")
    add_graph_args(p)
    p.add_argument("--nranks", type=int, default=9)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--edges", type=int, default=16,
                   help="edges per synthetic update batch")
    p.add_argument("--delete-fraction", type=float, default=0.25,
                   help="fraction of the batch that deletes existing edges")
    p.set_defaults(fn=cmd_store)

    p = sub.add_parser(
        "shard",
        help="sharded store: partition-aligned shards, consistent-hash "
             "routing, digest-verified read replicas")
    add_graph_args(p)
    p.add_argument("--nranks", type=int, default=8)
    p.add_argument("--nshards", type=int, default=4,
                   help="shards per graph (must evenly group --nranks)")
    p.add_argument("--replicas", type=int, default=3,
                   help="read replicas in the convergence check")
    p.add_argument("--edges", type=int, default=16,
                   help="edges per synthetic update batch")
    p.add_argument("--delete-fraction", type=float, default=0.25,
                   help="fraction of the batch that deletes existing edges")
    p.set_defaults(fn=cmd_shard)

    p = sub.add_parser(
        "serve",
        help="multi-tenant query serving over a pool of resident sessions")
    p.add_argument("--queries", type=int, default=120,
                   help="number of queries in the synthetic workload")
    p.add_argument("--rate", type=float, default=2000.0,
                   help="aggregate Poisson arrival rate (simulated q/s)")
    p.add_argument("--tenants", type=int, default=12)
    p.add_argument("--skew", choices=["zipf", "uniform"], default="zipf",
                   help="tenant/graph popularity (zipf is the paper's regime)")
    p.add_argument("--scheduler", choices=["fifo", "affinity", "both"],
                   default="both")
    p.add_argument("--pool-capacity", type=int, default=3,
                   help="max resident sessions (contention knob)")
    p.add_argument("--pool-policy", choices=["lru", "lfu"], default="lru")
    p.add_argument("--max-batch", type=int, default=16,
                   help="affinity anti-starvation: max consecutive "
                        "same-session queries")
    p.add_argument("--nranks", type=int, default=8)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--catalog-scale", type=float, default=0.5,
                   help="shrink/grow the serving graph catalog")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "async-serve",
        help="cooperative async serving: overlap, coalescing windows, "
             "backpressure — parity-proved against the serial engine")
    p.add_argument("--queries", type=int, default=80,
                   help="number of requests in the synthetic workload")
    p.add_argument("--rate", type=float, default=2000.0,
                   help="aggregate arrival rate (simulated req/s)")
    p.add_argument("--tenants", type=int, default=8)
    p.add_argument("--update-mix", type=float, default=0.25,
                   help="fraction of requests that are graph updates")
    p.add_argument("--workers", type=int, default=6,
                   help="cooperative worker slots (overlap ceiling)")
    p.add_argument("--max-queue", type=int, default=0,
                   help="admission bound on the run queue (0 = unbounded)")
    p.add_argument("--overflow", choices=["defer", "shed"], default="defer",
                   help="full-queue policy: defer keeps arrival-order "
                        "latency accounting, shed rejects deterministically")
    p.add_argument("--arrival-mode", choices=["poisson", "bursty", "flash"],
                   default="poisson")
    p.add_argument("--catalog-scale", type=float, default=0.3,
                   help="shrink/grow the serving graph catalog")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_async_serve)

    p = sub.add_parser(
        "trace",
        help="traced cooperative serving: decision journal + Chrome "
             "trace + replay-verified fences")
    p.add_argument("--quick", action="store_true",
                   help="small workload")
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the pinned trace seed)")
    p.add_argument("--scheduler", choices=["fifo", "affinity", "interleave"],
                   default="fifo", help="dispatch policy for the traced run")
    p.add_argument("--journal", metavar="PATH", default=None,
                   help="decision-journal output "
                        "(default: TRACE_journal.jsonl)")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="Chrome trace_event output "
                        "(default: TRACE_events.json)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("run", help="run any registered kernel by name")
    add_graph_args(p)
    add_cluster_args(p)
    p.add_argument("--kernel", choices=kernel_names(), default="lcc",
                   help="a kernel from the registry (see 'repro kernels')")
    p.add_argument("--buffer-capacity", type=int, default=None,
                   help="TriC-Buffered per-destination cap in bytes")
    p.set_defaults(fn=cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
