"""Remote-read reuse analytics (Figures 1, 4 and 5).

Under Algorithm 3, rank ``r`` issues one remote adjacency read for every
directed edge ``(v, j)`` with ``owner(v) = r != owner(j)``.  The read
stream is therefore a pure function of the graph and the partition, and
all reuse statistics can be computed analytically (vectorized) instead of
tracing a simulation.  The tests cross-check the counts against the remote
adjacency gets of a per-edge-loop run (``fast_path=False``).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.partition import BlockPartition1D, Partition


def remote_read_counts(graph: CSRGraph, nranks: int,
                       partition: Partition | None = None,
                       initiator: int | None = None) -> np.ndarray:
    """Number of remote reads targeting each vertex.

    ``initiator=None`` counts reads from all ranks; otherwise only those
    issued by one rank (Figure 1 shows rank 0 of two).
    """
    part = partition or BlockPartition1D(graph.n, nranks)
    edges = graph.edges()
    src_owner = part.owners(edges[:, 0])
    dst_owner = part.owners(edges[:, 1])
    remote = src_owner != dst_owner
    if initiator is not None:
        remote &= src_owner == initiator
    targets = edges[remote, 1]
    return np.bincount(targets, minlength=graph.n)


def repetition_histogram(graph: CSRGraph, nranks: int,
                         initiator: int | None = 0
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Figure 1 (right): how many remote reads are repeated y times.

    Returns ``(repetitions, n_vertices)``: ``n_vertices[i]`` vertices are
    remotely read exactly ``repetitions[i]`` times by the initiator.
    """
    counts = remote_read_counts(graph, nranks, initiator=initiator)
    counts = counts[counts > 0]
    reps, freq = np.unique(counts, return_counts=True)
    return reps, freq


def reuse_curve(graph: CSRGraph, nranks: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Figure 4's curve: share of remote reads vs share of top vertices.

    Vertices are ordered by descending remote-read count; returns
    ``(vertex_fraction, cumulative_read_fraction)``.
    """
    counts = remote_read_counts(graph, nranks)
    order = np.argsort(-counts)
    sorted_counts = counts[order].astype(np.float64)
    total = sorted_counts.sum()
    if total == 0:
        return np.array([0.0, 1.0]), np.array([0.0, 0.0])
    cum = np.cumsum(sorted_counts) / total
    frac = np.arange(1, graph.n + 1) / graph.n
    return frac, cum


def top_degree_read_share(graph: CSRGraph, nranks: int,
                          top_fraction: float = 0.1) -> float:
    """Figure 4's highlight: remote reads hitting the top-degree vertices.

    The paper annotates the fraction of remote reads that target the top
    10% *highest degree* vertices (11.7% for uniform, 91.9% for R-MAT...).
    """
    counts = remote_read_counts(graph, nranks).astype(np.float64)
    total = counts.sum()
    if total == 0:
        return 0.0
    k = max(1, int(np.ceil(top_fraction * graph.n)))
    top_vertices = np.argsort(-graph.in_degrees())[:k]
    return float(counts[top_vertices].sum() / total)


def expected_reads_per_vertex(graph: CSRGraph, nranks: int) -> np.ndarray:
    """The paper's estimate: vertex j is read ~``deg-(j) (p-1)/p`` times.

    (Section III-B states ``(deg-(v) - p) / p`` per *node*; summed over the
    ``p - 1`` non-owner nodes under random placement this is
    ``deg-(v) (p-1)/p`` in expectation.)
    """
    return graph.in_degrees().astype(np.float64) * (nranks - 1) / nranks


def remote_edge_fraction(graph: CSRGraph, nranks: int,
                         partition: Partition | None = None) -> float:
    """Fraction of directed edges whose endpoints live on different ranks.

    The paper quotes 95% for an R-MAT S20 EF16 graph on 8 ranks, and 66%
    to 98% for S21 as the node count grows 4 -> 64.
    """
    part = partition or BlockPartition1D(graph.n, nranks)
    edges = graph.edges()
    if edges.shape[0] == 0:
        return 0.0
    remote = part.owners(edges[:, 0]) != part.owners(edges[:, 1])
    return float(remote.mean())


def fig5_scatter(graph: CSRGraph, nranks: int = 2
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Figure 5's data: per-vertex (degree, remote accesses, entry bytes).

    Returns three aligned arrays for vertices with at least one remote
    access: the out-degree, the number of remote accesses, and the C_adj
    entry size in bytes (degree times the adjacency item size).
    """
    counts = remote_read_counts(graph, nranks)
    mask = counts > 0
    degrees = graph.degrees()[mask]
    accessed = counts[mask]
    entry_bytes = degrees * graph.adjacency.itemsize
    return degrees, accessed, entry_bytes
