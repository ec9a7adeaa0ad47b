"""Vertex partitioning schemes.

The paper uses a **1D block partition**: vertex ``i`` goes to rank
``i // (n/p)`` (Section III-A, with the V_k formula).  It notes the load
-imbalance weakness under skewed degrees and cites **cyclic distribution**
(Lumsdaine et al.) as the balanced alternative — implemented here too and
compared by an ablation benchmark.

A partition answers three questions:

* ``owner(v)`` — which rank stores vertex ``v``;
* ``to_local(v)`` — the vertex's index within its owner's arrays;
* ``local_vertices(rank)`` — the global ids a rank owns.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.utils.errors import PartitionError


class Partition(abc.ABC):
    """Abstract vertex-to-rank mapping."""

    def __init__(self, n: int, nranks: int):
        if nranks < 1:
            raise PartitionError(f"need >= 1 rank, got {nranks}")
        if n < 0:
            raise PartitionError(f"negative vertex count {n}")
        self.n = int(n)
        self.nranks = int(nranks)

    @abc.abstractmethod
    def owner(self, v: int) -> int:
        """Rank owning vertex ``v``."""

    @abc.abstractmethod
    def owners(self, vs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`owner`."""

    @abc.abstractmethod
    def to_local(self, v: int) -> int:
        """Index of ``v`` inside its owner's local arrays."""

    @abc.abstractmethod
    def to_local_many(self, vs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`to_local`."""

    @abc.abstractmethod
    def local_vertices(self, rank: int) -> np.ndarray:
        """Global ids owned by ``rank`` in local-index order."""

    def local_count(self, rank: int) -> int:
        return self.local_vertices(rank).shape[0]

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise PartitionError(f"vertex {v} out of range [0, {self.n})")

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.nranks):
            raise PartitionError(f"rank {rank} out of range [0, {self.nranks})")


class BlockPartition1D(Partition):
    """Contiguous ranges: the paper's V_k scheme, generalized to any n.

    The first ``n % p`` ranks receive one extra vertex so that the scheme
    works when ``p`` does not divide ``n`` (the paper assumes it does).
    """

    def __init__(self, n: int, nranks: int):
        super().__init__(n, nranks)
        base, extra = divmod(self.n, self.nranks)
        counts = np.full(self.nranks, base, dtype=np.int64)
        counts[:extra] += 1
        self._starts = np.zeros(self.nranks + 1, dtype=np.int64)
        np.cumsum(counts, out=self._starts[1:])

    def range_of(self, rank: int) -> tuple[int, int]:
        """Half-open global-id range owned by ``rank``."""
        self._check_rank(rank)
        return int(self._starts[rank]), int(self._starts[rank + 1])

    def owner(self, v: int) -> int:
        self._check_vertex(v)
        return int(np.searchsorted(self._starts, v, side="right") - 1)

    def owners(self, vs: np.ndarray) -> np.ndarray:
        return np.searchsorted(self._starts, np.asarray(vs), side="right") - 1

    def to_local(self, v: int) -> int:
        return v - int(self._starts[self.owner(v)])

    def to_local_many(self, vs: np.ndarray) -> np.ndarray:
        vs = np.asarray(vs)
        return vs - self._starts[self.owners(vs)]

    def local_vertices(self, rank: int) -> np.ndarray:
        lo, hi = self.range_of(rank)
        return np.arange(lo, hi, dtype=np.int64)


class CyclicPartition1D(Partition):
    """Round-robin: vertex ``v`` on rank ``v % p`` (Lumsdaine et al.).

    Balances high-degree vertices across ranks in degree-ordered inputs
    without the relabeling pass, at the price of losing range locality.
    """

    def owner(self, v: int) -> int:
        self._check_vertex(v)
        return v % self.nranks

    def owners(self, vs: np.ndarray) -> np.ndarray:
        return np.asarray(vs) % self.nranks

    def to_local(self, v: int) -> int:
        self._check_vertex(v)
        return v // self.nranks

    def to_local_many(self, vs: np.ndarray) -> np.ndarray:
        return np.asarray(vs) // self.nranks

    def local_vertices(self, rank: int) -> np.ndarray:
        self._check_rank(rank)
        return np.arange(rank, self.n, self.nranks, dtype=np.int64)
