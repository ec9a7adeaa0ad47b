"""Adjacency-list intersection kernels (paper Section II-C).

All kernels assume **strictly sorted** lists (CSR guarantees it) and
return the size of the intersection:

* :func:`ssi_count` — sorted set intersection, O(|A| + |B|);
* :func:`binary_search_count` — |A| binary searches into B,
  O(|A| log |B|), with the shorter list always supplying the keys (its
  body is :func:`sorted_member`);
* :func:`hybrid_count` — picks per pair using the paper's Eq. 3 rule
  (``|B|/|A| <= log2|B| - 1`` -> SSI else binary search);
* :func:`edge_support` — the same count for a whole edge list at once,
  over the rows of a sparse 0/1 pattern (the masked-SpGEMM inner step).

Membership of many queries in one key set is :class:`KeySet`, a hashed
int64 set built and probed without a Python loop per key; the oriented
triangle pass closes its wedges with it.  :func:`sorted_member` (one
binary search per query into a sorted array) is Algorithm 1's body and
the key set's test oracle.

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
    "KeySet",
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


class KeySet:
    """A set of non-negative int64 keys, for vectorised membership tests.

    Open addressing in one int64 ``table`` (``-1`` marks an empty slot):
    a power-of-two home range at load <= 0.5, a multiplicative hash that
    takes the product's top bits, and linear probing.  The table runs past
    the home range far enough to hold the longest probe run plus one empty
    slot, so a probe never wraps.  Building sorts the keys by home slot
    and places each at ``max(home, previous slot + 1)`` — a running
    maximum, no loop per key — which is where inserting them one by one
    in that order would put them.  :meth:`contains` probes all queries in
    rounds, each round one slot further for the still-unresolved ones.
    """

    #: 2**64 / golden ratio, odd: Fibonacci hashing's multiplier.
    MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)

    def __init__(self, keys: np.ndarray):
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size and int(keys.min()) < 0:
            raise ValueError("KeySet keys must be non-negative "
                             "(-1 marks an empty slot)")
        self.bits = max(1, (2 * keys.shape[0] - 1).bit_length())
        homes = self.home(keys)
        order = np.argsort(homes)  # any order within one home slot will do
        step = np.arange(keys.shape[0], dtype=np.int64)
        slot = np.maximum.accumulate(homes[order] - step) + step
        end = int(slot[-1]) + 2 if slot.size else 0
        self.table = np.full(max(1 << self.bits, end), -1, dtype=np.int64)
        self.table[slot] = keys[order]

    def home(self, keys: np.ndarray) -> np.ndarray:
        """Each key's home slot: the top ``bits`` bits of its product
        with :attr:`MULTIPLIER` (``keys`` int64, non-negative)."""
        hashed = keys.view(np.uint64) * self.MULTIPLIER
        hashed >>= np.uint64(64 - self.bits)
        return hashed.view(np.int64)

    def contains(self, queries: np.ndarray) -> np.ndarray:
        """``queries[k] in self`` per query, as a bool array.

        Rounds gather by integer index: a boolean mask as index is an
        order of magnitude slower on NumPy 2 when the mask is random.
        """
        queries = np.asarray(queries, dtype=np.int64)
        found = np.zeros(queries.shape[0], dtype=bool)
        pending = np.flatnonzero(queries >= 0)
        want = queries[pending]
        slot = self.home(want)
        while pending.size:
            held = self.table[slot]
            hit = held == want
            found[pending] = hit
            more = np.flatnonzero(~hit & (held >= 0))
            # One column at a time: each old one is freed as it is cut.
            pending = pending[more]
            want = want[more]
            slot = slot[more] + 1
        return found


def intersect_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The actual common elements (tests and examples; kernels only count)."""
    return np.intersect1d(a, b, assume_unique=True)
