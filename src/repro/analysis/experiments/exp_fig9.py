"""Figure 9: small-scale strong scaling (4-64 nodes, six graphs).

Four series per graph, exactly as in the paper: LCC non-cached, LCC
cached, TriC and TriC-Buffered.  The caching configuration mirrors the
paper's "16 GiB memory overhead": at the paper's scale that budget removes
all capacity misses on these graphs, so the scaled equivalent sizes the
caches at twice the graph's CSR footprint (compulsory misses remain — they
are what erodes the cached series at 64 nodes).

Expected shapes (paper): async speedups 9.2x-14x from 4 to 64 nodes;
caching saves up to 67% (R-MAT S21) but can lose on compulsory-miss-bound
graphs (LiveJournal at 64 nodes); TriC 1-2 orders of magnitude slower on
scale-free graphs, nearly flat in node count.
"""

from __future__ import annotations

from repro.analysis.experiments import SEED
from repro.analysis.sweep import scaling_table, strong_scaling
from repro.analysis.tables import Table, in_order
from repro.core.config import CacheSpec
from repro.graph.datasets import load_dataset

GRAPHS = ["rmat-s21-ef16", "rmat-s23-ef16", "orkut", "livejournal",
          "skitter", "livejournal1"]
#: The full sweep's node counts; ``quick`` keeps the 4 -> 64 span.
NODE_COUNTS = [4, 8, 16, 32, 64]
QUICK_NODE_COUNTS = [4, 16, 64]
VARIANTS = ["lcc", "lcc-cached", "tric", "tric-buffered"]
#: TriC-Buffered's per-rank message buffer (bytes).
BUFFERED_CAP = 1 << 18

#: Paper speedup annotations (smallest -> largest config, non-cached LCC).
PAPER_SPEEDUPS = {
    "rmat-s21-ef16": 10.8, "rmat-s23-ef16": 9.2, "orkut": 9.4,
    "livejournal": 13.9, "skitter": 11.3, "livejournal1": 14.0,
}


def make_variants(graph):
    """The four Figure 9 series, as Session kernel variants."""
    cache = CacheSpec.paper_split(2 * graph.nbytes, graph.n)
    return {
        "lcc": {"kernel": "lcc"},
        "lcc-cached": {"kernel": "lcc", "cache": cache},
        "tric": {"kernel": "tric"},
        "tric-buffered": {"kernel": "tric", "buffer_capacity": BUFFERED_CAP},
    }


def measure(quick: bool) -> dict:
    """``{graph: strong_scaling(...)}`` plus TriC-Buffered's ratio per node
    count and, per graph, the cached series' gain at the smallest node
    count and the share of that gain left at the largest."""
    out = {}
    for name in GRAPHS[:1] if quick else GRAPHS:
        g = load_dataset(name, seed=SEED)
        r = out[name] = strong_scaling(
            g, QUICK_NODE_COUNTS if quick else NODE_COUNTS, make_variants(g))
        for row in r["nodes"].values():
            row["tric_buffered_over_tric"] = row["tric-buffered"] / row["tric"]
        gains = [1 - row["cached_over_lcc"] for row in r["nodes"].values()]
        r.update(directed=g.directed, cache_gain_smallest=gains[0],
                 cache_gain_retained=gains[-1] / gains[0])
    return out


def render(section: dict) -> list[Table]:
    tables = []
    for name in in_order(GRAPHS, section):
        r = section[name]
        directed_note = (" (directed: transitive triads)" if r["directed"]
                         else "")
        tables.append(scaling_table(r, (
            f"Figure 9: {name} (n={r['n']:,}, m={r['m']:,}){directed_note} "
            "- running time (s)"), VARIANTS))
        first, *_, last = sorted(r["nodes"], key=int)
        ann = Table(["series", "speedup (ours)", "speedup (paper)"],
                    title=f"{name}: speedup {first} -> {last} nodes")
        ann.add_row("lcc", f"{r['speedup']['lcc']:.1f}x",
                    f"{PAPER_SPEEDUPS.get(name, float('nan'))}x")
        ann.add_row("lcc-cached", f"{r['speedup']['lcc-cached']:.1f}x", "-")
        ann.add_row("tric", f"{r['speedup']['tric']:.1f}x",
                    "~flat in the paper")
        tables.append(ann)
    return tables
