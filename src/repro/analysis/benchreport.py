"""Registered-kernel benchmarks: every kernel timed on standard graphs.

``repro bench kernels`` runs every registered kernel on standard generator
graphs and writes ``BENCH_kernels.json``: real wall-clock seconds, simulated job
time, triangle counts and cache hit rates, plus a ``cached_replay``
section that measures the batched cache replay (:mod:`repro.core.replay`)
against the per-edge scalar loop it replaced — cold (first query, mostly
compulsory misses) and warm (the paper's reuse regime, a second
``keep_cache=True`` query against the resident session cluster).  A
``linalg`` section does the same for the algebraic 2D kernels: the
masked-SpGEMM ``tc2d_spgemm`` replay vs. the edge-centric ``tc2d``
scalar loop, and the batched cached-grid ``tc2d`` replay vs. the scalar
cached loop, all on the :data:`BENCH_GRID_NRANKS` square grid and gated
bit-identical against their oracles.

The JSON is committed at the repo root so every PR leaves a perf data
point behind; :data:`SUITE` declares what it must satisfy.
"""

from __future__ import annotations

import math
import sys
import time
from typing import Any, Mapping

from repro.analysis.benchsuite import SCHEMA_VERSION, BenchSuite, Gate
from repro.core.config import CacheSpec, LCCConfig
from repro.graph.csr import CSRGraph
from repro.graph.generators import powerlaw_configuration, rmat
from repro.session import Session, get_kernel, kernel_names, run_kernel

#: Cluster shape every benchmark cell runs with (also recorded in the
#: report header, so comparisons across PRs stay labeled).
BENCH_NRANKS = 8
BENCH_THREADS = 4

#: Rank count for square-grid-only kernels (``tc2d_spgemm``/``lcc2d``)
#: and the ``linalg`` section: the default ``BENCH_NRANKS = 8`` factors
#: into a rectangular 2x4 grid the SUMMA kernels refuse, so they run on
#: the nearest square grid instead.
BENCH_GRID_NRANKS = 9

def bench_graphs(quick: bool = False) -> dict[str, CSRGraph]:
    """Standard generator graphs the kernels are timed on.

    ``quick`` shrinks them for CI smoke runs; the committed report uses
    the full sizes so numbers stay comparable across PRs.
    """
    if quick:
        return {
            "powerlaw-s": powerlaw_configuration(384, 2400, seed=7),
            "rmat-s8": rmat(8, 6, seed=7),
        }
    return {
        "powerlaw-m": powerlaw_configuration(2048, 16000, seed=7),
        "rmat-s10": rmat(10, 8, seed=7),
    }


def _bench_config(graph: CSRGraph, cached: bool, fast_path: bool = True,
                  nranks: int = BENCH_NRANKS) -> LCCConfig:
    cache = CacheSpec.relative(graph.nbytes, 0.5, 1.0) if cached else None
    return LCCConfig(nranks=nranks, threads=BENCH_THREADS, cache=cache,
                     fast_path=fast_path)


def _hit_rate(stats: Mapping[str, float] | None) -> float | None:
    """``None`` for "no cache, or a cache nothing went through"."""
    if stats is None or stats["hits"] + stats["misses"] == 0:
        return None
    return float(stats["hit_rate"])


def bench_kernel(graph: CSRGraph, kernel: str) -> dict[str, Any]:
    """One kernel, one graph: wall clock, simulated time, hit rates.

    Resident kernels (lcc/tc) run cached through the batched replay; the
    baselines run their own cluster shapes uncached, as in their papers.
    Square-grid-only kernels run at :data:`BENCH_GRID_NRANKS` (the default
    rank count is rectangular); the row records which shape was used.
    """
    spec = get_kernel(kernel)
    nranks = BENCH_GRID_NRANKS if spec.square_grid_only else BENCH_NRANKS
    with Session(graph, _bench_config(graph, spec.resident,
                                      nranks=nranks)) as session:
        t0 = time.perf_counter()
        result = session.run(kernel)
        wall = time.perf_counter() - t0
    return {
        "wall_clock_s": wall,
        "simulated_time_s": float(result.time),
        "global_triangles": int(result.global_triangles),
        "adj_hit_rate": _hit_rate(result.adj_cache_stats),
        "offsets_hit_rate": _hit_rate(result.offsets_cache_stats),
        "nranks": nranks,
    }


def bench_cached_replay(graph: CSRGraph, kernel: str) -> dict[str, Any]:
    """Batched replay vs. scalar loop on one cached kernel.

    Cold is the first query on a fresh session (compulsory misses run
    through the scalar cache path in both implementations); warm is a
    second ``keep_cache=True`` query — the paper's reuse effect and the
    regime the paper's cached figures live in.  ``bit_identical`` asserts
    the two implementations produced the same clocks and cache statistics.
    """
    fast = Session(graph, _bench_config(graph, cached=True, fast_path=True))
    loop = Session(graph, _bench_config(graph, cached=True, fast_path=False))
    try:
        t0 = time.perf_counter()
        rf_cold = fast.run(kernel, keep_cache=True)
        fast_cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        rl_cold = loop.run(kernel, keep_cache=True)
        loop_cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        rf_warm = fast.run(kernel, keep_cache=True)
        fast_warm = time.perf_counter() - t0
        t0 = time.perf_counter()
        rl_warm = loop.run(kernel, keep_cache=True)
        loop_warm = time.perf_counter() - t0
    finally:
        fast.close()
        loop.close()
    identical = all(
        rf.outcome.clocks == rl.outcome.clocks
        and rf.adj_cache_stats == rl.adj_cache_stats
        and rf.offsets_cache_stats == rl.offsets_cache_stats
        for rf, rl in ((rf_cold, rl_cold), (rf_warm, rl_warm))
    )
    return {
        "cold_wall_clock_loop_s": loop_cold,
        "cold_wall_clock_batched_s": fast_cold,
        "cold_speedup": loop_cold / fast_cold,
        "warm_wall_clock_loop_s": loop_warm,
        "warm_wall_clock_batched_s": fast_warm,
        "warm_speedup": loop_warm / fast_warm,
        "bit_identical": identical,
        "adj_hit_rate": _hit_rate(rf_warm.adj_cache_stats),
        "offsets_hit_rate": _hit_rate(rf_warm.offsets_cache_stats),
    }


def bench_linalg(graph: CSRGraph) -> dict[str, Any]:
    """Masked-SpGEMM replay vs. the edge-centric scalar loop, uncached.

    Both sides run as resident sessions on the :data:`BENCH_GRID_NRANKS`
    square grid: the ``tc2d_spgemm`` kernel replays the packed SUMMA
    panels vectorized, the ``tc2d`` kernel is forced through its scalar
    per-round loop (``fast_path=False``).  Warm is the second query on
    the resident cluster — the regime the panels were built for.
    ``bit_identical`` asserts clocks, traces and triangle counts match
    the throwaway-oracle :func:`~repro.core.tc2d.run_distributed_tc_2d`
    on top of each other, and that ``lcc2d`` reproduces the 1D ``lcc``
    scores exactly.
    """
    import numpy as np

    from repro.core.tc2d import run_distributed_tc_2d

    cfg = _bench_config(graph, cached=False, nranks=BENCH_GRID_NRANKS)
    oracle = run_distributed_tc_2d(graph, cfg)
    spgemm = Session(graph, cfg)
    loop = Session(graph, _bench_config(graph, cached=False,
                                        fast_path=False,
                                        nranks=BENCH_GRID_NRANKS))
    try:
        rs_cold = spgemm.run("tc2d_spgemm")
        rl_cold = loop.run("tc2d")
        t0 = time.perf_counter()
        rs_warm = spgemm.run("tc2d_spgemm")
        spgemm_warm = time.perf_counter() - t0
        t0 = time.perf_counter()
        rl_warm = loop.run("tc2d")
        loop_warm = time.perf_counter() - t0
        lcc2d = spgemm.run("lcc2d")
    finally:
        spgemm.close()
        loop.close()
    lcc1d = run_kernel("lcc", graph, cfg)
    identical = all(
        r.outcome.clocks == oracle.outcome.clocks
        and r.global_triangles == oracle.global_triangles
        for r in (rs_cold, rs_warm, rl_cold, rl_warm)
    ) and bool(
        np.array_equal(lcc2d.lcc, lcc1d.lcc)
        and np.array_equal(lcc2d.triangles_per_vertex,
                           lcc1d.triangles_per_vertex)
        and lcc2d.global_triangles == oracle.global_triangles
    )
    return {
        "warm_wall_clock_loop_s": loop_warm,
        "warm_wall_clock_spgemm_s": spgemm_warm,
        "warm_speedup": loop_warm / spgemm_warm,
        "bit_identical": identical,
        "global_triangles": int(oracle.global_triangles),
        "nranks": BENCH_GRID_NRANKS,
    }


def bench_cached_tc2d(graph: CSRGraph) -> dict[str, Any]:
    """Batched cached-grid replay vs. the scalar cached loop for ``tc2d``.

    The deferred follow-up from the replay PR: on a square grid, warm
    cached ``tc2d`` queries ride :meth:`ClampiCache.access_batch` over
    the resident SUMMA panel stream instead of the per-round scalar
    ``ctx.get`` loop.  ``bit_identical`` covers clocks, results *and*
    the per-rank CLaMPI cache statistics of the resident block caches.
    """
    grid_ranks = BENCH_GRID_NRANKS
    fast = Session(graph, _bench_config(graph, cached=True,
                                        nranks=grid_ranks))
    loop = Session(graph, _bench_config(graph, cached=True, fast_path=False,
                                        nranks=grid_ranks))
    try:
        t0 = time.perf_counter()
        rf_cold = fast.run("tc2d", keep_cache=True)
        fast_cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        rl_cold = loop.run("tc2d", keep_cache=True)
        loop_cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        rf_warm = fast.run("tc2d", keep_cache=True)
        fast_warm = time.perf_counter() - t0
        t0 = time.perf_counter()
        rl_warm = loop.run("tc2d", keep_cache=True)
        loop_warm = time.perf_counter() - t0
        stats_fast = [c.stats.snapshot() for c in fast._c2d.caches]
        stats_loop = [c.stats.snapshot() for c in loop._c2d.caches]
    finally:
        fast.close()
        loop.close()
    identical = stats_fast == stats_loop and all(
        rf.outcome.clocks == rl.outcome.clocks
        and rf.global_triangles == rl.global_triangles
        for rf, rl in ((rf_cold, rl_cold), (rf_warm, rl_warm))
    )
    return {
        "cold_wall_clock_loop_s": loop_cold,
        "cold_wall_clock_batched_s": fast_cold,
        "cold_speedup": loop_cold / fast_cold,
        "warm_wall_clock_loop_s": loop_warm,
        "warm_wall_clock_batched_s": fast_warm,
        "warm_speedup": loop_warm / fast_warm,
        "bit_identical": identical,
        "nranks": grid_ranks,
    }


def run_bench(quick: bool = False) -> dict[str, Any]:
    """Produce the full report dict (see module docstring for the shape)."""
    graphs = bench_graphs(quick)
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "quick": quick,
        "nranks": BENCH_NRANKS,
        "threads": BENCH_THREADS,
        "grid_nranks": BENCH_GRID_NRANKS,
        "graphs": {name: {"vertices": g.n, "edges": g.m}
                   for name, g in graphs.items()},
        "kernels": {},
        "cached_replay": {},
        "linalg": {},
    }
    for gname, graph in graphs.items():
        for kernel in kernel_names():
            if get_kernel(kernel).undirected_only and graph.directed:
                continue
            try:
                row = bench_kernel(graph, kernel)
            except Exception as exc:
                # Plugin kernels may need extra options or return a
                # non-standard result; they don't belong in the recorded
                # report, so skip them loudly instead of failing.
                print(f"bench: skipping kernel {kernel!r} on {gname!r}: "
                      f"{exc}", file=sys.stderr)
                continue
            report["kernels"][f"{kernel}:{gname}"] = row
        for kernel in ("lcc", "tc"):
            report["cached_replay"][f"{kernel}:{gname}"] = \
                bench_cached_replay(graph, kernel)
        report["linalg"][f"tc2d_spgemm:{gname}"] = bench_linalg(graph)
        report["linalg"][f"cached_tc2d:{gname}"] = bench_cached_tc2d(graph)
    return report


def _min_warm_speedups(report: Mapping[str, Any]) -> dict[str, float]:
    """Per-kernel minimum warm speedup across that report's graphs."""
    mins: dict[str, float] = {}
    for key, row in report.get("cached_replay", {}).items():
        kernel = key.split(":", 1)[0]
        speedup = float(row["warm_speedup"])
        mins[kernel] = min(mins.get(kernel, math.inf), speedup)
    return mins


def _headline(report: Mapping[str, Any]) -> dict[str, Any]:
    kernels = report.get("kernels", {})
    walls = [float(row["wall_clock_s"]) for row in kernels.values()]
    # The 1D CLaMPI kernels only (rows that carry an offsets cache too):
    # the 2D block caches see one compulsory-miss-only pass per bench
    # query, a different population whose 0.0 would drag the mean down.
    hits = [float(row["adj_hit_rate"]) for row in kernels.values()
            if row.get("adj_hit_rate") is not None
            and row.get("offsets_hit_rate") is not None]
    linalg = [float(row["warm_speedup"])
              for row in report.get("linalg", {}).values()]
    return {
        "n_kernels": len(kernels),
        "total_kernel_wall_s": sum(walls),
        "max_kernel_wall_s": max(walls, default=0.0),
        "mean_adj_hit_rate": (sum(hits) / len(hits)) if hits else None,
        "min_warm_speedups": _min_warm_speedups(report),
        "min_linalg_speedup": min(linalg, default=0.0),
    }


SUITE = BenchSuite(
    name="kernels",
    doc="every registered kernel (incl. the SUMMA `tc2d_spgemm`/`lcc2d` "
        "pair on the square grid); batched replay bit-identical to the "
        "per-edge loop; `linalg` rows bit-identical to their oracles (warm "
        "speedups over the loops are recorded, not gated: the ledger's "
        "`wall_s` rows hold the fast paths)",
    run=run_bench,
    keys=("schema_version", "quick", "nranks", "threads", "grid_nranks",
          "graphs", "kernels", "cached_replay", "linalg"),
    gates=(
        Gate("cached_replay.*.bit_identical", "is", True,
             "batched replay is no longer bit-identical to the per-edge "
             "loop"),
        Gate("linalg.*.bit_identical", "is", True,
             "algebraic replay is no longer bit-identical to its "
             "edge-centric oracle"),
    ),
    headline=_headline,
)
