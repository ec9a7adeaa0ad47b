"""Figure 10: large-scale strong scaling (128-512 nodes, three graphs).

R-MAT S30 EF16, uk-2005 and wiki-en stand-ins over 128/256/512 simulated
nodes; three series (LCC non-cached, LCC cached, TriC — the paper drops
TriC-Buffered at this scale).  The cached configuration follows the
paper's large-scale setup where the per-node budget covers only ~12% of
the R-MAT S30 CSR: caches are sized at 12% of the graph footprint, and the
paper's headline is a 73% total-time reduction for R-MAT S30.
"""

from __future__ import annotations

from repro.analysis.sweep import scaling_table, strong_scaling
from repro.analysis.tables import Table, print_tables
from repro.core.config import CacheSpec
from repro.graph.datasets import load_dataset

GRAPHS = ["rmat-s30-ef16", "uk-2005", "wiki-en"]
NODE_COUNTS = [128, 256, 512]

#: Paper speedups 128 -> 512 nodes for the non-cached series.
PAPER_SPEEDUPS = {"rmat-s30-ef16": 3.4, "uk-2005": 1.5, "wiki-en": 1.7}


def sweep(scale: float = 1.0, seed: int = 0, fast: bool = False,
          graphs: list[str] | None = None) -> dict:
    """``{graph: strong_scaling(...)}`` over the three Figure 10 series."""
    out = {}
    for name in graphs or (GRAPHS[1:2] if fast else GRAPHS):
        g = load_dataset(name, scale=scale, seed=seed)
        cache = CacheSpec.paper_split(max(4096, int(0.12 * g.nbytes)), g.n)
        out[name] = strong_scaling(g, [128] if fast else NODE_COUNTS, {
            "lcc": {"kernel": "lcc"},
            "lcc-cached": {"kernel": "lcc", "cache": cache},
            "tric": {"kernel": "tric"},
        })
    return out


def run(scale: float = 1.0, seed: int = 0, fast: bool = False,
        graphs: list[str] | None = None) -> list[Table]:
    tables = []
    for name, r in sweep(scale, seed, fast, graphs).items():
        tables.append(scaling_table(r, (
            f"Figure 10: {name} (n={r['n']:,}, m={r['m']:,}) "
            "- running time (s), cache = 12% of CSR")))
        counts = list(r["nodes"])
        if len(counts) > 1:
            ann = Table(["series", "speedup (ours)", "speedup (paper)"],
                        title=f"{name}: speedup {counts[0]} -> {counts[-1]}")
            ann.add_row("lcc", f"{r['speedup']['lcc']:.1f}x",
                        f"{PAPER_SPEEDUPS.get(name, float('nan'))}x")
            tables.append(ann)
    return tables


if __name__ == "__main__":
    print_tables(run())
