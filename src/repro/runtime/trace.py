"""Per-rank operation traces and counters.

Every :class:`~repro.runtime.context.SimContext` owns a :class:`RankTrace`.
Counters are always collected (they are cheap); full per-operation records
are only kept when ``record_ops=True``, which the reuse-analysis experiments
(Figures 1, 4, 5) use to reconstruct the remote-read stream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple


class OpKind(enum.Enum):
    """Kinds of traced operations."""

    GET_REMOTE = "get_remote"
    GET_LOCAL = "get_local"
    CACHE_HIT = "cache_hit"
    PUT = "put"
    SEND = "send"
    RECV = "recv"
    BARRIER = "barrier"
    ALLTOALLV = "alltoallv"
    COMPUTE = "compute"


class OpRecord(NamedTuple):
    """One traced operation.

    ``window`` is the window name (or ``""`` for non-RMA ops), ``target`` the
    peer rank (or ``-1``), ``offset``/``count`` the accessed element range
    and ``t`` the rank-local completion time.
    """

    kind: OpKind
    window: str
    target: int
    offset: int
    count: int
    nbytes: int
    t: float


@dataclass
class RankTrace:
    """Counters (always on) and an optional operation log for one rank."""

    rank: int
    record_ops: bool = False

    # -- aggregate counters ---------------------------------------------------
    n_remote_gets: int = 0
    n_local_reads: int = 0
    n_cache_hits: int = 0
    n_puts: int = 0
    n_sends: int = 0
    n_recvs: int = 0
    n_barriers: int = 0
    n_alltoallv: int = 0

    bytes_remote: int = 0
    bytes_local: int = 0
    bytes_cached: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0

    comm_time: float = 0.0
    comp_time: float = 0.0
    sync_time: float = 0.0
    cache_time: float = 0.0

    ops: list[OpRecord] = field(default_factory=list)

    # -- recording helpers ------------------------------------------------------
    def record(
        self,
        kind: OpKind,
        *,
        window: str = "",
        target: int = -1,
        offset: int = 0,
        count: int = 0,
        nbytes: int = 0,
        t: float = 0.0,
    ) -> None:
        """Append a full op record when op recording is enabled."""
        if self.record_ops:
            self.ops.append(OpRecord(kind, window, target, offset, count, nbytes, t))

    def remote_get(self, window: str, target: int, offset: int, count: int,
                   nbytes: int, duration: float, t: float) -> None:
        self.n_remote_gets += 1
        self.bytes_remote += nbytes
        self.comm_time += duration
        self.record(OpKind.GET_REMOTE, window=window, target=target,
                    offset=offset, count=count, nbytes=nbytes, t=t)

    def local_read(self, window: str, offset: int, count: int, nbytes: int,
                   duration: float, t: float) -> None:
        self.n_local_reads += 1
        self.bytes_local += nbytes
        self.comp_time += duration
        self.record(OpKind.GET_LOCAL, window=window, target=self.rank,
                    offset=offset, count=count, nbytes=nbytes, t=t)

    def cache_hit(self, window: str, target: int, offset: int, count: int,
                  nbytes: int, duration: float, t: float) -> None:
        self.n_cache_hits += 1
        self.bytes_cached += nbytes
        self.cache_time += duration
        self.record(OpKind.CACHE_HIT, window=window, target=target,
                    offset=offset, count=count, nbytes=nbytes, t=t)

    def compute(self, duration: float, t: float) -> None:
        self.comp_time += duration
        self.record(OpKind.COMPUTE, nbytes=0, t=t)

    # -- derived metrics ---------------------------------------------------------
    @property
    def total_reads(self) -> int:
        """All adjacency-data reads: remote + local + cache-served."""
        return self.n_remote_gets + self.n_local_reads + self.n_cache_hits

    @property
    def remote_fraction(self) -> float:
        """Fraction of reads that left the node (cache hits count as remote
        *intent* but were served locally, so they are excluded here)."""
        total = self.total_reads
        return self.n_remote_gets / total if total else 0.0

    def iter_remote_reads(self) -> Iterator[OpRecord]:
        """Yield recorded remote-get ops (requires ``record_ops=True``)."""
        for op in self.ops:
            if op.kind is OpKind.GET_REMOTE:
                yield op

    @classmethod
    def from_totals(cls, rank: int, **totals: float) -> "RankTrace":
        """Build a trace directly from aggregate counters.

        Used by the batched replay paths, which compute a
        rank's totals without stepping through individual operations.
        Unknown counter names are rejected so replay code cannot silently
        drop a statistic.
        """
        trace = cls(rank=rank)
        for name, value in totals.items():
            if name not in cls.__dataclass_fields__ or name in (
                    "rank", "record_ops", "ops"):
                raise ValueError(f"unknown trace counter {name!r}")
            setattr(trace, name, value)
        return trace

    def merge_totals(self, other: "RankTrace") -> None:
        """Accumulate another trace's counters into this one (reporting)."""
        for attr in (
            "n_remote_gets", "n_local_reads", "n_cache_hits", "n_puts",
            "n_sends", "n_recvs", "n_barriers", "n_alltoallv",
            "bytes_remote", "bytes_local", "bytes_cached", "bytes_sent",
            "bytes_received",
        ):
            setattr(self, attr, getattr(self, attr) + getattr(other, attr))
        for attr in ("comm_time", "comp_time", "sync_time", "cache_time"):
            setattr(self, attr, getattr(self, attr) + getattr(other, attr))
