"""Sweep driver: run algorithm variants over node counts and collect rows.

Used by the Figure 9/10 experiments, which compare four series (LCC
non-cached, LCC cached, TriC, TriC-Buffered) over a range of node counts.

Two drivers coexist:

* :func:`run_kernel_variants` — the Session-backed path: variants are
  kernel names plus config overrides, and one resident
  :class:`~repro.session.Session` amortizes graph partitioning across
  every variant sharing a cluster shape;
* :func:`run_variants` — the legacy callable-based path, kept for ad-hoc
  sweeps over arbitrary runner functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.core.config import LCCConfig
from repro.graph.csr import CSRGraph
from repro.session import Session
from repro.utils.log import get_logger

logger = get_logger("analysis.sweep")

#: A variant maps (graph, nranks) to an object with a ``.time`` attribute.
Variant = Callable[[CSRGraph, int], Any]

#: A kernel variant: options for ``Session.run`` (plus optional "kernel").
KernelVariant = Mapping[str, Any]


@dataclass
class SweepCell:
    """One (variant, node count) measurement."""

    variant: str
    nranks: int
    time: float
    result: Any


def run_variants(
    graph: CSRGraph,
    node_counts: Sequence[int],
    variants: Mapping[str, Variant],
) -> list[SweepCell]:
    """Run every variant at every node count (deterministic order)."""
    cells: list[SweepCell] = []
    for nranks in node_counts:
        for name, fn in variants.items():
            logger.info("running %s on %s with %d ranks",
                        name, graph.name or "graph", nranks)
            result = fn(graph, nranks)
            cells.append(SweepCell(variant=name, nranks=nranks,
                                   time=result.time, result=result))
    return cells


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
