"""Figure 5: cache-entry characterization on Facebook circles (2 nodes).

Observation 3.1: in ``C_adj`` the entry size equals the vertex degree and
correlates with reuse.  Observation 3.2: ``C_offsets`` entries are fixed
size, but their access frequency still follows the target's degree.  We
report the rank correlation between degree and remote-access count, and a
binned degree -> (accesses, entry size) profile.
"""

from __future__ import annotations

import scipy.stats as stats

from repro.analysis.experiments import SEED
from repro.analysis.reuse import fig5_scatter
from repro.analysis.tables import Table, in_order
from repro.graph.datasets import load_dataset

#: The degree bins: (label, lowest degree, first degree past the bin).
BINS = [("[1, 4)", 1, 4), ("[4, 16)", 4, 16), ("[16, 64)", 16, 64),
        ("[64, 256)", 64, 256), (">= 256", 256, 10**9)]


def measure(quick: bool) -> dict:
    """Both rank correlations and the binned degree profile, as numbers."""
    g = load_dataset("facebook-circles", seed=SEED)
    degrees, accesses, entry_bytes = fig5_scatter(g, nranks=2)
    bins = {}
    for label, lo, hi in BINS:
        mask = (degrees >= lo) & (degrees < hi)
        if mask.any():
            bins[label] = {
                "vertices": int(mask.sum()),
                "mean_accesses": float(accesses[mask].mean()),
                "mean_entry_bytes": float(entry_bytes[mask].mean())}
    return {"graph": g.name, "bins": bins,
            "rho_degree_accesses":
                float(stats.spearmanr(degrees, accesses).statistic),
            "rho_degree_entry_size":
                float(stats.spearmanr(degrees, entry_bytes).statistic)}


def render(r: dict) -> list[Table]:
    corr = Table(["relation", "Spearman rho", "interpretation"],
                 title=(f"Figure 5: degree vs remote accesses on "
                        f"{r['graph']}, 2 nodes"))
    corr.add_row("degree ~ remote accesses (C_offsets reuse)",
                 round(r["rho_degree_accesses"], 3),
                 "higher-degree vertices are read more (Obs. 3.2)")
    corr.add_row("degree ~ C_adj entry size",
                 round(r["rho_degree_entry_size"], 3),
                 "entry size is the degree itself (Obs. 3.1)")
    binned = Table(["degree bin", "vertices", "mean remote accesses",
                    "mean C_adj entry (B)"],
                   title="Binned profile")
    for label in in_order((label for label, *_ in BINS), r["bins"]):
        row = r["bins"][label]
        binned.add_row(label, row["vertices"], round(row["mean_accesses"], 1),
                       round(row["mean_entry_bytes"], 1))
    return [corr, binned]
