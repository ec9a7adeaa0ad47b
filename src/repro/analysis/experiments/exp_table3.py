"""Table III: intersection-method comparison at 16 threads.

The paper reports edges processed per microsecond for hybrid / SSI /
binary search on five graphs, with the hybrid always winning.  We evaluate
the same metric under the OpenMP cost model (the counting kernels are
exercised for correctness elsewhere; throughput at 16 OpenMP threads is a
property of the machine being modelled).
"""

from __future__ import annotations

from repro.analysis.tables import Table, print_tables
from repro.analysis.throughput import edges_per_microsecond
from repro.graph.datasets import load_dataset

#: (dataset, paper hybrid, paper ssi, paper binary) — Table III rows.
PAPER_ROWS = [
    ("rmat-s20-ef8", 0.540, 0.508, 0.449),
    ("rmat-s20-ef16", 0.425, 0.403, 0.340),
    ("rmat-s20-ef32", 0.325, 0.311, 0.250),
    ("livejournal", 1.084, 1.018, 0.984),
    ("orkut", 0.596, 0.552, 0.503),
]


def sweep(scale: float = 1.0, seed: int = 0, fast: bool = False) -> dict:
    """``{graph: edges/us per method, and the two ratios the paper ranks}``."""
    out = {}
    for name, *_ in PAPER_ROWS[:2] if fast else PAPER_ROWS:
        g = load_dataset(name, scale=scale, seed=seed)
        h, s, b = (edges_per_microsecond(g, method, threads=16)
                   for method in ("hybrid", "ssi", "binary"))
        out[name] = {"hybrid": h, "ssi": s, "binary": b,
                     "hybrid_over_best_pure": h / max(s, b),
                     "ssi_over_binary": s / b}
    return out


def run(scale: float = 1.0, seed: int = 0, fast: bool = False) -> list[Table]:
    table = Table(
        ["graph", "hybrid", "ssi", "binary",
         "paper hybrid", "paper ssi", "paper binary", "hybrid wins?"],
        title="Table III: edges/us per intersection method (16 threads)",
    )
    paper = {name: rest for name, *rest in PAPER_ROWS}
    for name, row in sweep(scale, seed, fast).items():
        table.add_row(name, round(row["hybrid"], 3), round(row["ssi"], 3),
                      round(row["binary"], 3), *paper[name],
                      "yes" if row["hybrid_over_best_pure"] >= 0.999 else "NO")
    return [table]


if __name__ == "__main__":
    print_tables(run())
