"""Figure 1 (right): LCC data reuse on the Facebook-circles graph.

The paper plots, for the remote reads issued by rank 0 of 2, how many
reads are repeated y times.  The characteristic shape: most targeted
vertices are read a handful of times, but a heavy tail of hub vertices is
read tens of times — the reuse the RMA cache exploits.
"""

from __future__ import annotations

from repro.analysis.experiments import SEED
from repro.analysis.reuse import remote_read_counts, repetition_histogram
from repro.analysis.tables import Table, in_order
from repro.graph.datasets import load_dataset

#: The tail bucketed like the paper's plot: (label, lowest, highest).
BUCKETS = [("1", 1, 1), ("2-3", 2, 3), ("4-15", 4, 15), ("16-63", 16, 63),
           ("64-255", 64, 255), ("256-...", 256, 10**9)]


def measure(quick: bool) -> dict:
    """The repetition histogram (bucketed) and the reuse summary, as numbers."""
    g = load_dataset("facebook-circles", seed=SEED)
    reps, freq = repetition_histogram(g, nranks=2, initiator=0)
    histogram = {label: int(freq[(reps >= lo) & (reps <= hi)].sum())
                 for label, lo, hi in BUCKETS}
    counts = remote_read_counts(g, 2, initiator=0)
    touched = counts[counts > 0]
    return {"graph": g.name, "n": g.n, "m": g.m, "histogram": histogram,
            "remote_reads": int(touched.sum()),
            "distinct_vertices": int(touched.shape[0]),
            "mean_repetitions": float(touched.mean()),
            "max_repetitions": int(touched.max())}


def render(r: dict) -> list[Table]:
    table = Table(["repetitions", "vertices read that often"],
                  title=(f"Figure 1 (right): remote reads by rank 0 of 2 on "
                         f"{r['graph']} (n={r['n']}, m={r['m']})"))
    for label in in_order((label for label, *_ in BUCKETS), r["histogram"]):
        table.add_row(label, r["histogram"][label])
    summary = Table(["metric", "value"], title="Reuse summary")
    summary.add_row("remote reads total", r["remote_reads"])
    summary.add_row("distinct vertices read", r["distinct_vertices"])
    summary.add_row("mean repetitions", round(r["mean_repetitions"], 2))
    summary.add_row("max repetitions", r["max_repetitions"])
    summary.add_row("reads avoidable by a perfect cache",
                    r["remote_reads"] - r["distinct_vertices"])
    return [table, summary]
