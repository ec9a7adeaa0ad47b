"""Sweep driver: run algorithm variants over node counts and collect rows.

Used by the Figure 9/10 experiments, which compare four series (LCC
non-cached, LCC cached, TriC, TriC-Buffered) over a range of node counts.
Variants are kernel names plus config overrides, and one resident
:class:`~repro.session.Session` amortizes graph partitioning across every
variant sharing a cluster shape (:func:`run_kernel_variants`);
:func:`strong_scaling` condenses such a sweep into the figures' numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.analysis.tables import Table
from repro.core.config import LCCConfig
from repro.graph.csr import CSRGraph
from repro.session import Session
from repro.utils.log import get_logger

logger = get_logger("analysis.sweep")

#: A kernel variant: options for ``Session.run`` (plus optional "kernel").
KernelVariant = Mapping[str, Any]


@dataclass
class SweepCell:
    """One (variant, node count) measurement."""

    variant: str
    nranks: int
    time: float
    result: Any


def run_kernel_variants(
    graph: CSRGraph,
    node_counts: Sequence[int],
    variants: Mapping[str, KernelVariant],
    *,
    config: LCCConfig | None = None,
    kernel: str = "lcc",
) -> list[SweepCell]:
    """Session-backed sweep: every variant at every node count.

    Each variant is an option dict for :meth:`repro.session.Session.run`
    (an optional ``"kernel"`` key selects the kernel, default ``kernel``).
    One session serves the whole sweep, so variants that share a cluster
    shape reuse a single partitioned CSR instead of re-splitting per run.
    """
    cells: list[SweepCell] = []
    with Session(graph, config) as session:
        for nranks in node_counts:
            for name, options in variants.items():
                opts = dict(options)
                k = opts.pop("kernel", kernel)
                logger.info("running %s (kernel %s) on %s with %d ranks",
                            name, k, graph.name or "graph", nranks)
                result = session.run(k, nranks=nranks, **opts)
                cells.append(SweepCell(variant=name, nranks=nranks,
                                       time=result.time, result=result))
    return cells


def strong_scaling(graph: CSRGraph, node_counts: Sequence[int],
                   variants: Mapping[str, KernelVariant]) -> dict:
    """The Figure 9/10 measurement, as numbers: per node count every
    variant's time and the two ratios the figures annotate, per variant
    the smallest -> largest speedup.  Needs the ``lcc``, ``lcc-cached``
    and ``tric`` variants."""
    cells = run_kernel_variants(graph, node_counts, variants,
                                config=LCCConfig(threads=12))
    nodes: dict = {}
    for cell in cells:
        nodes.setdefault(str(cell.nranks), {})[cell.variant] = cell.time
    for row in nodes.values():
        row["cached_over_lcc"] = row["lcc-cached"] / row["lcc"]
        row["tric_over_lcc"] = row["tric"] / row["lcc"]
    return {"n": graph.n, "m": graph.m, "nodes": nodes,
            "speedup": {v: speedup(cells, v) for v in variants}}


def scaling_table(scaling: Mapping, title: str) -> Table:
    """One :func:`strong_scaling` result in the figures' layout."""
    variants = list(scaling["speedup"])
    table = Table(["nodes"] + variants + ["cache gain", "tric/lcc"],
                  title=title)
    for p, row in scaling["nodes"].items():
        table.add_row(p, *[round(row[v], 4) for v in variants],
                      f"{(1 - row['cached_over_lcc']):.1%}",
                      f"{row['tric_over_lcc']:.1f}x")
    return table


def series(cells: Sequence[SweepCell], variant: str) -> list[tuple[int, float]]:
    """(nranks, time) pairs of one variant, ordered by nranks."""
    pts = [(c.nranks, c.time) for c in cells if c.variant == variant]
    return sorted(pts)


def speedup(cells: Sequence[SweepCell], variant: str) -> float:
    """time(smallest config) / time(largest config) — the paper's figure
    annotations (e.g. '14.0x' on LiveJournal1)."""
    pts = series(cells, variant)
    if len(pts) < 2 or pts[-1][1] == 0:
        return 1.0
    return pts[0][1] / pts[-1][1]
