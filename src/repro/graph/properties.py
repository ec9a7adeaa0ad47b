"""Graph-property helpers used by the analysis experiments.

Degree statistics feed the reuse analysis (Figures 4 and 5): under 1D
partitioning with random placement, a vertex of in-degree ``d`` is read
remotely about ``d * (p - 1) / p`` times, so the degree distribution *is*
the remote-reuse distribution.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph


def degree_stats(graph: CSRGraph) -> dict[str, float]:
    """Summary statistics of the out-degree distribution."""
    deg = graph.degrees().astype(np.float64)
    if deg.size == 0:
        return {"min": 0, "max": 0, "mean": 0, "median": 0, "p99": 0, "gini": 0}
    return {
        "min": float(deg.min()),
        "max": float(deg.max()),
        "mean": float(deg.mean()),
        "median": float(np.median(deg)),
        "p99": float(np.percentile(deg, 99)),
        "gini": gini(deg),
    }


def gini(values: np.ndarray) -> float:
    """Gini coefficient — 0 for uniform degrees, ->1 for extreme skew."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 0 or v.sum() == 0:
        return 0.0
    idx = np.arange(1, v.size + 1)
    return float((2 * (idx * v).sum() / (v.size * v.sum())) - (v.size + 1) / v.size)


def top_degree_share(graph: CSRGraph, top_fraction: float = 0.1) -> float:
    """Fraction of adjacency entries pointed at the top-``fraction`` vertices.

    The Figure 4 highlight: in power-law graphs the top 10% highest-degree
    vertices attract the majority of remote reads.
    """
    indeg = graph.in_degrees().astype(np.float64)
    if indeg.sum() == 0:
        return 0.0
    k = max(1, int(np.ceil(top_fraction * indeg.size)))
    top = np.sort(indeg)[::-1][:k]
    return float(top.sum() / indeg.sum())


def is_power_law_like(graph: CSRGraph, gini_threshold: float = 0.4) -> bool:
    """Cheap skewness classifier used to pick cache-sizing heuristics."""
    return gini(graph.degrees().astype(np.float64)) >= gini_threshold
