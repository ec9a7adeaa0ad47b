"""Table II: the graph inventory.

Prints the paper's graphs next to the generated stand-ins (vertices,
edges, CSR size after degree-<2 removal), keeping the substitution
visible.
"""

from __future__ import annotations

from repro.analysis.tables import Table, print_tables
from repro.graph.datasets import DATASETS, load_dataset
from repro.utils.units import format_bytes

#: The Table II rows, in the paper's order.
TABLE2_NAMES = [
    "orkut", "livejournal", "livejournal1", "skitter",
    "uk-2005", "wiki-en", "rmat-s21-ef16", "rmat-s23-ef16", "rmat-s30-ef16",
]


def run(scale: float = 1.0, seed: int = 0, fast: bool = False) -> list[Table]:
    names = TABLE2_NAMES[:4] if fast else TABLE2_NAMES
    table = Table(
        ["name", "type", "paper |V|", "paper |E|", "paper CSR",
         "ours |V|", "ours |E|", "ours CSR"],
        title="Table II: graphs (paper vs laptop-scale stand-ins)",
    )
    for name in names:
        spec = DATASETS[name]
        g = load_dataset(name, scale=scale, seed=seed)
        table.add_row(
            name,
            "D" if spec.directed else "U",
            f"{spec.paper_vertices:,}",
            f"{spec.paper_edges:,}",
            spec.paper_csr,
            f"{g.n:,}",
            f"{g.m:,}",
            format_bytes(g.nbytes),
        )
    return [table]


if __name__ == "__main__":
    print_tables(run())
