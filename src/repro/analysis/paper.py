"""The paper's evaluation claims, stated once (``repro bench paper``).

"Does this repository still reproduce the paper, and how closely?" as one
gated suite: :func:`run_paper` measures every table and figure of the
evaluation **as numbers**, once — each
:data:`~repro.analysis.experiments.EXPERIMENTS` record's ``measure``,
written at its ``section`` of the report, plus the three checks below that
belong to no figure — and the gate table states each claim exactly once,
its ``why`` the paper's sentence with the paper's number in it.  The
report is the only measurement: ``python -m repro.analysis.runner``
renders every table from it, so a figure's table and its gate share one
measurement.  ``--quick`` runs every experiment's CI sizes (Figure 9 over
4/16/64 nodes, so the 4 -> 64 claims keep their span); the committed
``BENCH_paper.json`` is the full size.  Table II and five of the
ablations are recorded, not gated.  The graphs are the synthetic
stand-ins of :mod:`repro.graph.datasets`, so magnitudes are
scale-compressed next to the paper's; the shapes are what is gated.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.analysis.benchsuite import (
    SCHEMA_VERSION,
    BenchSuite,
    Gate,
    Sibling,
    violations,
)
from repro.analysis import experiments
from repro.core.config import CacheSpec, LCCConfig
from repro.core.local import lcc_local, triangle_count_local
from repro.graph.datasets import load_dataset
from repro.session import Session, run_kernel

#: The five triangle-counting implementations, by what the paper's design
#: is about: whether ranks ever wait for each other.
ALGORITHMS = {"asynchronous": ("tc", "tc2d"),
              "synchronizing": ("tric", "disttc", "mapreduce")}


def _correctness() -> dict:
    g = load_dataset("skitter", scale=0.3, seed=0)
    res = run_kernel("lcc", g, LCCConfig(nranks=8))
    return {"graph": g.name, "nranks": 8, "max_abs_lcc_error":
            float(np.abs(res.lcc - lcc_local(g)).max())}


def _warm_session() -> dict:
    """Two queries on one resident, cached session: cold, then warm."""
    g = load_dataset("rmat-s20-ef16", seed=0)
    spec = CacheSpec.paper_split(max(4096, g.nbytes // 2), g.n)
    out = {"graph": g.name, "nranks": 8}
    with Session(g, LCCConfig(nranks=8, threads=12, cache=spec)) as session:
        for phase in ("cold", "warm"):
            res = session.run("lcc", keep_cache=True)
            out[f"{phase}_hit_rate"] = res.adj_cache_stats["hit_rate"]
            out[f"{phase}_time_s"] = res.time
    return out


def _algorithms() -> dict:
    """All five implementations head to head: one scale-free graph, 16 ranks."""
    g = load_dataset("rmat-s21-ef16", seed=0)
    local = int(triangle_count_local(g))
    with Session(g, LCCConfig(nranks=16, threads=12)) as session:
        runs = {kernel: session.run(kernel)
                for kernels in ALGORITHMS.values() for kernel in kernels}
    return {family: {kernel: {
        "global_triangles": int(runs[kernel].global_triangles),
        "local_triangles": local,
        "time_s": runs[kernel].time,
        "sync_time_s": runs[kernel].outcome.total("sync_time"),
        "speedup_over_tric": runs["tric"].time / runs[kernel].time,
    } for kernel in kernels} for family, kernels in ALGORITHMS.items()}


def run_paper(quick: bool = False) -> dict[str, Any]:
    """Measure every claim once (see the module docstring for the sizes)."""
    report = {"schema_version": SCHEMA_VERSION, "quick": quick,
              "correctness": _correctness(), "warm_session": _warm_session(),
              "algorithms": _algorithms()}
    for exp in experiments.EXPERIMENTS:
        *parents, leaf = exp.section.split(".")
        node = report
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = exp.measure(quick)
    return report


def _headline(report: Mapping[str, Any]) -> dict[str, Any]:
    """The reproduction's own magnitudes, in the paper's "up to" form."""
    nodes = [row for figure in report["scaling"].values()
             for graph in figure.values() for row in graph["nodes"].values()]
    failed = {gate for gate, _ in violations(SUITE, report)}
    return {
        "claims_held": len(SUITE.gates) - len(failed),
        "claims_total": len(SUITE.gates),
        "best_speedup_4_to_64": max(
            graph["speedup"]["lcc"]
            for graph in report["scaling"]["fig9"].values()),
        "best_cache_saving": max(1 - row["cached_over_lcc"] for row in nodes),
        "max_tric_over_lcc": max(row["tric_over_lcc"] for row in nodes),
    }


SUITE = BenchSuite(
    name="paper",
    doc="the paper's evaluation claims, one row each, over the "
        "`analysis/experiments` sweeps: Table III's method ranking, the "
        "reuse studies (Fig. 1/4/5), thread scaling (Fig. 6), the "
        "cache-size and eviction-score studies (Fig. 7/8), strong scaling, "
        "cache gain and TriC at 4-64 and 128+ nodes (Fig. 9/10), the "
        "design ablations, and all five implementations counting the same "
        "triangles",
    run=run_paper,
    keys=("schema_version", "quick", "correctness", "warm_session",
          "algorithms", *dict.fromkeys(exp.section.split(".")[0]
                                       for exp in experiments.EXPERIMENTS)),
    gates=(
        Gate("correctness.max_abs_lcc_error", "==", 0.0,
             "asynchronous distributed LCC returns the per-vertex scores of "
             "the shared-memory reference"),
        Gate("table3.*.hybrid_over_best_pure", ">=", 0.999,
             "Table III: the hybrid intersection is the fastest method on "
             "every graph (0.425 vs 0.403 SSI / 0.340 binary edges/us on "
             "R-MAT S20 EF16)"),
        Gate("table3.*.ssi_over_binary", ">", 1.0,
             "Table III: SSI beats binary search on every graph on CPU "
             "(0.508 vs 0.449 edges/us on R-MAT S20 EF8)"),
        Gate("fig6.*.speedup_16_threads", "in", (1.2, 8.0),
             "Fig. 6: 16 threads speed the hybrid kernel up 2.0x / 2.7x / "
             "1.2x - positive but saturating, nowhere near 16x"),
        Gate("fig6.*.active_wait_gain", "in", (0.0, 0.15),
             "Fig. 6: OMP_WAIT_POLICY=active runs 2-4% ahead of passive"),
        Gate("fig4.*.top10_share_over_uniform", ">", 0.2,
             "Fig. 4: the top-10% degree vertices draw 91.9% (R-MAT S21), "
             "42.5% (Orkut), 57.4% (LiveJournal) of all remote reads "
             "against 11.7% on the uniform graph", skip=("uniform",)),
        Gate("fig1.mean_repetitions", ">", 2.0,
             "Fig. 1: LCC re-reads the same remote vertices - most a handful "
             "of times, hubs tens of times - so a cache can absorb most reads"),
        Gate("fig5.rho_degree_accesses", ">", 0.3,
             "Fig. 5 / Obs. 3.1-3.2: a vertex's degree predicts how often "
             "its cache entry is read again"),
        Gate("fig7.windows.*.miss_rate_largest", "<=",
             Sibling("miss_rate_smallest"),
             "Fig. 7: the miss rate falls as the cache grows (C_offsets "
             "linearly, C_adj like a power law), in both windows"),
        Gate("fig7.windows.*.sizes.*.miss_rate", ">=",
             Sibling("compulsory_floor"),
             "Fig. 7: compulsory misses are a floor no cache size removes "
             "(the grey band)"),
        Gate("fig7.windows.*.saving_largest", ">=", Sibling("saving_smallest"),
             "Fig. 7: a larger cache saves more communication time (51.6% "
             "with the whole C_adj window cached)"),
        Gate("fig8.nodes.*.miss_rate_degree", "<=", Sibling("miss_rate_stock"),
             "Fig. 8: degree-centrality eviction scores beat stock CLaMPI "
             "scores at every node count (14.4%-35.6% faster remote reads)"),
        Gate("warm_session.warm_hit_rate", ">", Sibling("cold_hit_rate"),
             "Sec. III-B: the cache is reused across queries - a second "
             "query on a warm session hits more often"),
        Gate("warm_session.warm_time_s", "<", Sibling("cold_time_s"),
             "Sec. III-B: a second query on a warm session finishes sooner "
             "than the cold one"),
        Gate("scaling.fig9.*.cache_gain_smallest", ">", 0.2,
             "Fig. 9: caching cuts the running time at small scale (up to "
             "67% on R-MAT S21; 73% on R-MAT S30 in Fig. 10)"),
        Gate("scaling.fig9.*.cache_gain_retained", "in", (0.0, 1.0),
             "Fig. 9: over-partitioning erodes the cache gain from 4 to 64 "
             "nodes (compulsory misses remain) but does not turn it into a "
             "loss on these graphs"),
        Gate("scaling.fig9.*.nodes.*.cached_over_lcc", "<=", 1.05,
             "Fig. 9: the cached series is never meaningfully behind the "
             "non-cached one, at any node count"),
        Gate("scaling.*.*.nodes.*.tric_over_lcc", ">", 1.0,
             "Fig. 9/10: asynchronous LCC beats TriC at every node count, "
             "4-64 and 128+ (up to 100x on scale-free graphs)"),
        Gate("scaling.fig9.*.nodes.*.tric_buffered_over_tric", ">=", 0.95,
             "Fig. 9: TriC-Buffered is never meaningfully faster than TriC"),
        Gate("scaling.fig9.*.speedup.lcc", ">", 4.0,
             "Fig. 9: non-cached LCC strong-scales 9.2x-14x from 4 to 64 "
             "nodes"),
        Gate("ablations.overlap.*.on_over_off", "<=", 1.001,
             "Sec. III-A: double buffering (the next read overlaps the "
             "current intersection) never slows a run"),
        Gate("ablations.partition.*.cyclic_triangles", "==",
             Sibling("block_triangles"),
             "Sec. III-A: block and cyclic 1D partitionings count the same "
             "triangles"),
        Gate("ablations.tric_volume.ratio_growth", ">", 1.0,
             "TriC's wire volume grows faster with graph scale (hub degree) "
             "than the asynchronous reads do - the mechanism behind 'up to "
             "100x'"),
        Gate("algorithms.*.*.global_triangles", "==",
             Sibling("local_triangles"),
             "all five implementations (tc, tc2d, TriC, DistTC, MapReduce) "
             "count the local reference's triangles"),
        Gate("algorithms.asynchronous.*.speedup_over_tric", ">", 1.0,
             "both asynchronous designs, 1D and 2D, beat TriC on a "
             "scale-free graph"),
        Gate("algorithms.synchronizing.*.sync_time_s", ">", 0.0,
             "Sec. I: TriC, DistTC and MapReduce all spend time "
             "synchronizing - what the paper's design removes"),
        Gate("algorithms.asynchronous.*.sync_time_s", "==", 0.0,
             "Sec. I: the asynchronous kernels never synchronize"),
    ),
    headline=_headline,
)
