"""Strong-scaling driver: run algorithm variants over node counts.

Used by the Figure 9/10 experiments, which compare up to four series (LCC
non-cached, LCC cached, TriC, TriC-Buffered) over a range of node counts.
Variants are kernel names plus config overrides, run by one resident
:class:`~repro.session.Session`'s :meth:`~repro.session.Session.sweep` per
node count, so every variant sharing a cluster shape reuses one
partitioned CSR instead of re-splitting per run.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.analysis.tables import Table
from repro.core.config import LCCConfig
from repro.graph.csr import CSRGraph
from repro.session import Session

def strong_scaling(graph: CSRGraph, node_counts: Sequence[int],
                   variants: Mapping[str, Mapping[str, Any]]) -> dict:
    """The Figure 9/10 measurement, as numbers: per node count every
    variant's time and the two ratios the figures annotate, per variant
    the first -> last node count speedup (the paper's figure annotations,
    e.g. '14.0x' on LiveJournal1).  Needs the ``lcc``, ``lcc-cached`` and
    ``tric`` variants."""
    nodes: dict = {}
    with Session(graph, LCCConfig(threads=12)) as session:
        for p in node_counts:
            results = session.sweep({name: {**options, "nranks": p}
                                     for name, options in variants.items()})
            row = nodes[str(p)] = {name: res.time
                                   for name, res in results.items()}
            row["cached_over_lcc"] = row["lcc-cached"] / row["lcc"]
            row["tric_over_lcc"] = row["tric"] / row["lcc"]
    first, last = nodes[str(node_counts[0])], nodes[str(node_counts[-1])]
    return {"n": graph.n, "m": graph.m, "nodes": nodes,
            "speedup": {v: first[v] / last[v] for v in variants}}


def scaling_table(scaling: Mapping, title: str,
                  variants: Sequence[str]) -> Table:
    """One :func:`strong_scaling` result in the figures' layout: a column
    per variant, in the declared order, and a row per node count."""
    table = Table(["nodes", *variants, "cache gain", "tric/lcc"], title=title)
    for p in sorted(scaling["nodes"], key=int):
        row = scaling["nodes"][p]
        table.add_row(p, *[round(row[v], 4) for v in variants],
                      f"{(1 - row['cached_over_lcc']):.1%}",
                      f"{row['tric_over_lcc']:.1f}x")
    return table
