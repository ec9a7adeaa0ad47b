"""Figure 10: large-scale strong scaling (128-512 nodes, three graphs).

R-MAT S30 EF16, uk-2005 and wiki-en stand-ins over 128/256/512 simulated
nodes; three series (LCC non-cached, LCC cached, TriC — the paper drops
TriC-Buffered at this scale).  The cached configuration follows the
paper's large-scale setup where the per-node budget covers only ~12% of
the R-MAT S30 CSR: caches are sized at 12% of the graph footprint, and the
paper's headline is a 73% total-time reduction for R-MAT S30.
"""

from __future__ import annotations

from repro.analysis.experiments import SEED
from repro.analysis.sweep import scaling_table, strong_scaling
from repro.analysis.tables import Table, in_order
from repro.core.config import CacheSpec
from repro.graph.datasets import load_dataset

GRAPHS = ["rmat-s30-ef16", "uk-2005", "wiki-en"]
NODE_COUNTS = [128, 256, 512]
VARIANTS = ["lcc", "lcc-cached", "tric"]

#: Paper speedups 128 -> 512 nodes for the non-cached series.
PAPER_SPEEDUPS = {"rmat-s30-ef16": 3.4, "uk-2005": 1.5, "wiki-en": 1.7}


def measure(quick: bool) -> dict:
    """``{graph: strong_scaling(...)}`` over the three Figure 10 series."""
    out = {}
    for name in GRAPHS[1:2] if quick else GRAPHS:
        g = load_dataset(name, seed=SEED)
        cache = CacheSpec.paper_split(max(4096, int(0.12 * g.nbytes)), g.n)
        out[name] = strong_scaling(g, NODE_COUNTS[:1] if quick else NODE_COUNTS, {
            "lcc": {"kernel": "lcc"},
            "lcc-cached": {"kernel": "lcc", "cache": cache},
            "tric": {"kernel": "tric"},
        })
    return out


def render(section: dict) -> list[Table]:
    tables = []
    for name in in_order(GRAPHS, section):
        r = section[name]
        tables.append(scaling_table(r, (
            f"Figure 10: {name} (n={r['n']:,}, m={r['m']:,}) "
            "- running time (s), cache = 12% of CSR"), VARIANTS))
        counts = sorted(r["nodes"], key=int)
        if len(counts) > 1:
            ann = Table(["series", "speedup (ours)", "speedup (paper)"],
                        title=f"{name}: speedup {counts[0]} -> {counts[-1]}")
            ann.add_row("lcc", f"{r['speedup']['lcc']:.1f}x",
                        f"{PAPER_SPEEDUPS.get(name, float('nan'))}x")
            tables.append(ann)
    return tables
