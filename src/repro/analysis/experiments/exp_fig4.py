"""Figure 4: data reuse across degree distributions (8 processes).

The paper shows the share of remote reads that target the highest-degree
vertices for four datasets: a uniform graph (top-10% share 11.7%) versus
power-law graphs (R-MAT S21 EF16: 91.9%, Orkut: 42.5%, LiveJournal:
57.4%).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.experiments import SEED
from repro.analysis.reuse import reuse_curve, top_degree_read_share
from repro.analysis.tables import Table, in_order
from repro.graph.datasets import load_dataset

#: (dataset, paper's top-10% remote-read share).
PAPER_SHARES = [
    ("uniform", 0.117),
    ("rmat-s21-ef16", 0.919),
    ("orkut", 0.425),
    ("livejournal", 0.574),
]


def measure(quick: bool) -> dict:
    """``{graph: read shares of the top-degree vertices}``; every graph
    after the first (the uniform contrast) also carries its margin over it."""
    out = {}
    for name, _ in PAPER_SHARES[:2] if quick else PAPER_SHARES:
        g = load_dataset(name, seed=SEED)
        frac, cum = reuse_curve(g, 8)
        # Smallest vertex fraction capturing half of all remote reads.
        idx = int(np.searchsorted(cum, 0.5))
        out[name] = {
            "top10_share": top_degree_read_share(g, 8, 0.10),
            "top1_share": top_degree_read_share(g, 8, 0.01),
            "half_reads_vertex_fraction":
                float(frac[min(idx, frac.shape[0] - 1)])}
        out[name]["top10_share_over_uniform"] = (
            out[name]["top10_share"] - out["uniform"]["top10_share"])
    return out


def render(section: dict) -> list[Table]:
    table = Table(
        ["graph", "top-10% share (ours)", "top-10% share (paper)",
         "top-1% share", "reads to reach 50%"],
        title="Figure 4: remote-read concentration on 8 ranks",
    )
    paper = dict(PAPER_SHARES)
    for name in in_order(paper, section):
        row = section[name]
        table.add_row(name, f"{row['top10_share']:.1%}", f"{paper[name]:.1%}",
                      f"{row['top1_share']:.1%}",
                      f"top {row['half_reads_vertex_fraction']:.1%} "
                      "of vertices")
    return [table]
