"""Table II: the graph inventory.

Prints the paper's graphs next to the generated stand-ins (vertices,
edges, CSR size after degree-<2 removal), keeping the substitution
visible.
"""

from __future__ import annotations

from repro.analysis.experiments import SEED
from repro.analysis.tables import Table, in_order
from repro.graph.datasets import DATASETS, load_dataset
from repro.utils.units import format_bytes

#: The Table II rows, in the paper's order.
TABLE2_NAMES = [
    "orkut", "livejournal", "livejournal1", "skitter",
    "uk-2005", "wiki-en", "rmat-s21-ef16", "rmat-s23-ef16", "rmat-s30-ef16",
]


def measure(quick: bool) -> dict:
    """``{graph: the stand-in's vertices, edges and CSR bytes}``."""
    out = {}
    for name in TABLE2_NAMES[:4] if quick else TABLE2_NAMES:
        g = load_dataset(name, seed=SEED)
        out[name] = {"n": g.n, "m": g.m, "csr_bytes": g.nbytes}
    return out


def render(section: dict) -> list[Table]:
    table = Table(
        ["name", "type", "paper |V|", "paper |E|", "paper CSR",
         "ours |V|", "ours |E|", "ours CSR"],
        title="Table II: graphs (paper vs laptop-scale stand-ins)",
    )
    for name in in_order(TABLE2_NAMES, section):
        spec, row = DATASETS[name], section[name]
        table.add_row(
            name,
            "D" if spec.directed else "U",
            f"{spec.paper_vertices:,}",
            f"{spec.paper_edges:,}",
            spec.paper_csr,
            f"{row['n']:,}",
            f"{row['m']:,}",
            format_bytes(row["csr_bytes"]),
        )
    return [table]
