"""Adjacency-list intersection kernels (paper Section II-C).

All kernels assume **strictly sorted** lists (CSR guarantees it) and
return the size of the intersection:

* :func:`ssi_count` — sorted set intersection, O(|A| + |B|);
* :func:`binary_search_count` — |A| binary searches into B,
  O(|A| log |B|), with the shorter list always supplying the keys;
* :func:`hybrid_count` — picks per pair using the paper's Eq. 3 rule
  (``|B|/|A| <= log2|B| - 1`` -> SSI else binary search);
* :func:`edge_support` — the same count for a whole edge list at once,
  over the rows of a sparse 0/1 pattern (the masked-SpGEMM inner step);
* :func:`sorted_member` — membership of many queries in one strictly
  sorted key array (the oriented triangle pass closes its wedges with it).

The Python implementations are vectorized NumPy translations of the
paper's Algorithms 1 and 2 — semantically identical, and fast enough to
run the full benchmark suite.  The *cost* of a kernel invocation in
simulated time is a separate concern, handled by
:class:`repro.runtime.compute.ComputeModel` /
:class:`repro.core.threading.OpenMPModel`.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.compute import prefer_ssi

__all__ = [
    "ssi_count",
    "binary_search_count",
    "hybrid_count",
    "count_common",
    "count_common_above",
    "edge_support",
    "sorted_member",
    "intersect_values",
    "prefer_ssi",
]


# Gathered row entries per strip of :func:`edge_support` (~10 B each): a
# serve-catalog graph is one to three strips per SUMMA round.
SUPPORT_BUDGET = 1 << 20


def ssi_count(a: np.ndarray, b: np.ndarray) -> int:
    """|A ∩ B| by merged linear scan (Algorithm 2, vectorized).

    ``np.intersect1d`` with ``assume_unique`` performs exactly the sorted
    -unique intersection the scalar loop computes.
    """
    if a.shape[0] == 0 or b.shape[0] == 0:
        return 0
    return int(np.intersect1d(a, b, assume_unique=True).shape[0])


def binary_search_count(a: np.ndarray, b: np.ndarray) -> int:
    """|A ∩ B| by binary searches of the shorter list into the longer
    (Algorithm 1, vectorized via ``np.searchsorted``)."""
    keys, tree = (a, b) if a.shape[0] <= b.shape[0] else (b, a)
    return int(np.count_nonzero(sorted_member(tree, keys)))


def hybrid_count(a: np.ndarray, b: np.ndarray) -> int:
    """|A ∩ B| with the Eq. 3 method choice."""
    if prefer_ssi(a.shape[0], b.shape[0]):
        return ssi_count(a, b)
    return binary_search_count(a, b)


_METHODS = {
    "ssi": ssi_count,
    "binary": binary_search_count,
    "hybrid": hybrid_count,
}


def count_common(a: np.ndarray, b: np.ndarray, method: str = "hybrid") -> int:
    """Dispatch |A ∩ B| by method name ('ssi' | 'binary' | 'hybrid')."""
    try:
        fn = _METHODS[method]
    except KeyError:
        raise ValueError(
            f"unknown intersection method {method!r}; "
            f"expected one of {sorted(_METHODS)}"
        ) from None
    return fn(a, b)


def count_common_above(a: np.ndarray, b: np.ndarray, threshold: int,
                       method: str = "hybrid") -> int:
    """|{k in A ∩ B : k > threshold}| — the paper's upper-triangle offset.

    Used by global triangle counting to count each triangle exactly once:
    for edge (i, j) with i < j only common neighbours k > j are counted
    (Section II-C's double-counting elimination).
    """
    ai = np.searchsorted(a, threshold + 1)
    bi = np.searchsorted(b, threshold + 1)
    return count_common(a[ai:], b[bi:], method)


def edge_support(pattern, i: np.ndarray, j: np.ndarray,
                 budget: int = SUPPORT_BUDGET) -> np.ndarray:
    """``|row(i[e]) ∩ row(j[e])|`` of a 0/1 CSR ``pattern``, per listed pair.

    The common neighbours of an edge list, counted: the listed rows are
    gathered and multiplied elementwise — on sorted, duplicate-free rows
    (``CSRGraph``'s invariants) a linear merge whose row-nnz is the
    intersection size — in strips of pairs cut where the gathered entries
    ``deg(i) + deg(j)`` pass ``budget``, which bounds peak memory by the
    budget plus the widest single pair.
    """
    out = np.zeros(i.shape[0], dtype=np.int64)
    deg = np.diff(pattern.indptr)
    gathered = np.cumsum(deg[i] + deg[j])
    if out.size == 0 or gathered[-1] == 0:
        return out
    cuts = np.searchsorted(
        gathered, np.arange(budget, gathered[-1], budget), side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [out.size])))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        common = pattern[i[lo:hi]].multiply(pattern[j[lo:hi]])
        out[lo:hi] = np.diff(common.indptr)
    return out


def sorted_member(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """``queries[k] in keys`` per query, for a strictly sorted ``keys``.

    One binary search per query; a query past the last key compares
    against ``keys[0]``, which cannot equal it.
    """
    if keys.shape[0] == 0:
        return np.zeros(queries.shape[0], dtype=bool)
    idx = np.searchsorted(keys, queries)
    idx[idx == keys.shape[0]] = 0
    return keys[idx] == queries


def intersect_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The actual common elements (tests and examples; kernels only count)."""
    return np.intersect1d(a, b, assume_unique=True)
