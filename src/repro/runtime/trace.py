"""Per-rank counters.

Every :class:`~repro.runtime.context.SimContext` owns a :class:`RankTrace`:
operation counts, bytes and the simulated seconds charged per category.
The replay paths build the same record from totals
(:meth:`RankTrace.from_totals`).  The remote-read stream of the paper's
reuse study (Figures 1, 4, 5) is derived from the graph and the partition
by :mod:`repro.analysis.reuse`, not logged here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RankTrace:
    """The counters of one rank."""

    rank: int

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

    # -- counting helpers -------------------------------------------------------
    def remote_get(self, nbytes: int, duration: float) -> None:
        self.n_remote_gets += 1
        self.bytes_remote += nbytes
        self.comm_time += duration

    def local_read(self, nbytes: int, duration: float) -> None:
        self.n_local_reads += 1
        self.bytes_local += nbytes
        self.comp_time += duration

    def cache_hit(self, nbytes: int, duration: float) -> None:
        self.n_cache_hits += 1
        self.bytes_cached += nbytes
        self.cache_time += duration

    def compute(self, duration: float) -> None:
        self.comp_time += duration

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
            if name not in cls.__dataclass_fields__ or name == "rank":
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
