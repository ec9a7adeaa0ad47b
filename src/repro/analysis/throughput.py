"""Shared-memory throughput evaluation (Table III, Figure 6).

The shared-memory experiments need the *total* kernel time over every
edge of a graph for a given method and thread count; the per-edge times
come from the vectorized cost formulas next to
:class:`~repro.core.threading.OpenMPModel`.
"""

from __future__ import annotations

import numpy as np

from repro.core.threading import OpenMPModel, kernel_times_vectorized
from repro.graph.csr import CSRGraph
from repro.utils.units import US


def edge_length_pairs(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """(|adj(v)|, |adj(j)|) for every directed edge (v, j)."""
    deg = graph.degrees()
    la = np.repeat(deg, deg)             # the source's degree, per edge
    lb = deg[graph.adjacency]            # the target's degree, per edge
    return la.astype(np.float64), lb.astype(np.float64)


def edges_per_microsecond(graph: CSRGraph, method: str,
                          threads: int = 16,
                          wait_policy: str = "active") -> float:
    """The paper's Table III / Figure 6 metric for one graph and method."""
    model = OpenMPModel(threads=threads, wait_policy=wait_policy)
    la, lb = edge_length_pairs(graph)
    if la.shape[0] == 0:
        return 0.0
    total = kernel_times_vectorized(model, method, la, lb).sum()
    return float(la.shape[0] / (total / US))
