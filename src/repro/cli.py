"""Command-line interface.

::

    python -m repro datasets                         # list stand-ins
    python -m repro kernels                          # list registered kernels
    python -m repro info livejournal                 # graph properties
    python -m repro lcc livejournal --nranks 16 --cache degree
    python -m repro tc --input edges.txt --nranks 8 --algorithm tric
    python -m repro run livejournal --kernel tric --nranks 16
    python -m repro lcc orkut --json                 # machine-readable
    python -m repro bench store --quick              # one gated suite
    python -m repro bench --list                     # every suite's gates

Every algorithm execution goes through the kernel registry
(:mod:`repro.session`); ``run`` exposes any registered kernel by name,
while ``lcc``/``tc`` remain the task-oriented front ends.  Each
subsystem past the kernels (updates, the store, shards, serial and
async serving, tracing) is exercised by its ``bench`` suite; the
``examples/`` scripts run one on a graph of your own.

Bad input (a missing or unknown dataset, an unknown bench suite, an
invalid configuration, a malformed or unreadable ``--input`` file, an
unwritable ``--output`` path) ends in one ``repro: error:`` line and exit
code 2, like an argparse usage error; any other exception is a fault and
propagates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from repro.core.config import CacheSpec, LCCConfig
from repro.graph.datasets import dataset_names, load_dataset, DATASETS
from repro.graph.io import read_edge_list
from repro.graph.properties import degree_stats
from repro.session import get_kernel, kernel_names, run_kernel
from repro.utils.errors import ConfigError, GraphFormatError, KernelError
from repro.utils.units import format_bytes, format_seconds


def _load_graph(args):
    if args.input:
        try:
            return read_edge_list(args.input, directed=args.directed)
        except OSError as exc:
            raise ConfigError(f"cannot read --input: {exc}") from None
    if not args.dataset:
        raise ConfigError("pass a dataset name or --input FILE")
    return load_dataset(args.dataset, scale=args.scale, seed=args.seed)


def _output_path(path: str) -> str:
    """The ``.npy`` file ``np.save(path)`` writes, checked writable before
    any work is done: an unwritable path fails fast, not after the run."""
    if not path.endswith(".npy"):
        path += ".npy"  # np.save's own rule
    existed = os.path.exists(path)
    try:
        with open(path, "ab"):
            pass
    except OSError as exc:
        raise ConfigError(f"cannot write --output: {exc}") from None
    if not existed:
        os.remove(path)
    return path


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
    output = _output_path(args.output) if args.output else None
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
    if output:
        try:
            np.save(output, result.lcc)
        except OSError as exc:
            raise ConfigError(f"cannot write --output: {exc}") from None
        print(f"LCC scores written to {output}", file=sys.stderr)
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
        raise ConfigError(
            f"unknown bench suite(s) {', '.join(unknown)}; expected "
            f"{', '.join(SUITE_NAMES)} or all")
    if "all" in names:
        names = list(SUITE_NAMES)
    return run_suites(names, quick=args.quick, directory=args.dir)


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

    p = sub.add_parser("run", help="run any registered kernel by name")
    add_graph_args(p)
    add_cluster_args(p)
    p.add_argument("--kernel", choices=kernel_names(), default="lcc",
                   help="a kernel from the registry (see 'repro kernels')")
    p.add_argument("--buffer-capacity", type=int, default=None,
                   help="TriC-Buffered per-destination cap in bytes")
    p.set_defaults(fn=cmd_run)

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

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, KernelError, GraphFormatError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
