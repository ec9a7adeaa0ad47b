"""Network and memory cost models.

The simulation charges time analytically instead of moving real bytes over a
wire.  The paper models a remote read of ``s`` bytes as ``t(s) = alpha +
s * beta`` (Section IV-D1), with alpha around 2-3 microseconds on the Cray
Aries network and DRAM accesses in the hundreds of nanoseconds (Section
III-B).  Those are the defaults of :meth:`NetworkModel.aries`.

Two practical details from the paper are modelled explicitly:

* **Protocol switch at 16 MiB** — the authors cap TriC-Buffered's buffers at
  16 MiB because cray-mpich switches network protocol above that size,
  hurting large messages.  Messages above ``rendezvous_threshold`` pay an
  extra ``rendezvous_penalty``.
* **Message matching overhead for two-sided MPI** — the paper motivates RMA
  by the matching/copy overhead of send/recv; two-sided messages pay
  ``match_overhead`` on top of the wire time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.units import GiB, KiB, MiB, NS, US
from repro.utils.validation import require_non_negative, require_positive


@dataclass(frozen=True)
class NetworkModel:
    """Analytic timing model for network operations.

    Parameters
    ----------
    alpha:
        Per-operation completion latency in seconds for a blocking
        one-sided get/put.  This is the *end-to-end* cost of issuing the
        get and flushing it: raw Aries network latency (the 2-3 us the
        paper quotes) plus the MPI software path and the flush round.
    beta:
        Seconds per byte on the wire (inverse bandwidth).
    match_overhead:
        Extra latency charged to each **two-sided** message for MPI matching
        and possible extra copies; one-sided RMA does not pay it.
    rendezvous_threshold:
        Message size in bytes above which the rendezvous protocol applies.
    rendezvous_penalty:
        Extra seconds added to messages above the threshold.
    barrier_alpha:
        Per-stage latency of a dissemination barrier (``ceil(log2 p)``
        stages).
    """

    alpha: float = 12.0 * US
    beta: float = 1.0 / (10 * GiB)
    match_overhead: float = 1.0 * US
    rendezvous_threshold: int = 16 * MiB
    rendezvous_penalty: float = 50.0 * US
    barrier_alpha: float = 1.5 * US

    def __post_init__(self) -> None:
        require_positive("alpha", self.alpha)
        require_non_negative("beta", self.beta)
        require_non_negative("match_overhead", self.match_overhead)
        require_positive("rendezvous_threshold", self.rendezvous_threshold)
        require_non_negative("rendezvous_penalty", self.rendezvous_penalty)
        require_positive("barrier_alpha", self.barrier_alpha)

    # -- one-sided ----------------------------------------------------------
    def get_time(self, nbytes: int) -> float:
        """Time for a blocking one-sided read of ``nbytes`` (get + flush)."""
        if nbytes < 0:
            raise ValueError(f"negative message size: {nbytes}")
        t = self.alpha + nbytes * self.beta
        if nbytes > self.rendezvous_threshold:
            t += self.rendezvous_penalty
        return t

    def get_times(self, nbytes):
        """:meth:`get_time` over a NumPy array of sizes, bit-identical per
        element (same operations in the same order)."""
        t = self.alpha + nbytes * self.beta
        return t + (nbytes > self.rendezvous_threshold) * self.rendezvous_penalty

    def put_time(self, nbytes: int) -> float:
        """Time for a one-sided write; same cost shape as a get."""
        return self.get_time(nbytes)

    # -- two-sided ----------------------------------------------------------
    def message_time(self, nbytes: int) -> float:
        """Wire + matching time of one two-sided message."""
        return self.get_time(nbytes) + self.match_overhead

    def send_overhead(self, nbytes: int) -> float:
        """CPU time the sender is busy injecting the message (eager model)."""
        return 0.5 * self.alpha + min(nbytes, 8 * KiB) * self.beta

    # -- collectives ----------------------------------------------------------
    def barrier_time(self, nranks: int) -> float:
        """Dissemination barrier: ``ceil(log2 p)`` rounds of latency."""
        if nranks <= 1:
            return 0.0
        return self.barrier_alpha * math.ceil(math.log2(nranks))

    def alltoallv_rank_time(self, sent_bytes: int, recv_bytes: int, nranks: int) -> float:
        """Per-rank cost of participating in an alltoallv exchange.

        Each rank posts ``p - 1`` messages and drains as many; the cost is
        latency per peer plus the byte volume it sends and receives.  The
        engine adds the synchronization part (everyone completes together at
        the max), reproducing TriC's "synchronization as costly as
        communication" behaviour.
        """
        if nranks <= 1:
            return 0.0
        t = (nranks - 1) * (self.alpha + self.match_overhead)
        t += (sent_bytes + recv_bytes) * self.beta
        big = self.rendezvous_threshold
        if sent_bytes > big * (nranks - 1) or recv_bytes > big * (nranks - 1):
            t += self.rendezvous_penalty
        return t

    # -- presets ------------------------------------------------------------
    @classmethod
    def aries(cls) -> "NetworkModel":
        """Cray Aries defaults (the paper's testbed)."""
        return cls()

    @classmethod
    def infiniband(cls) -> "NetworkModel":
        """EDR InfiniBand-ish: similar latency, slightly higher bandwidth."""
        return cls(alpha=5.0 * US, beta=1.0 / (12 * GiB))

    @classmethod
    def ethernet(cls) -> "NetworkModel":
        """Commodity 10 GbE with kernel TCP: much higher latency."""
        return cls(alpha=25 * US, beta=1.0 / (1.1 * GiB), match_overhead=5 * US)

    @classmethod
    def zero_latency(cls) -> "NetworkModel":
        """Degenerate model for unit tests: bandwidth-only costs."""
        return cls(alpha=1e-12, beta=1.0 / (10 * GiB), match_overhead=0.0,
                   barrier_alpha=1e-12, rendezvous_penalty=0.0)


@dataclass(frozen=True)
class MemoryModel:
    """Local memory hierarchy cost model.

    The paper contrasts remote reads (microseconds) with DRAM accesses
    (hundreds of nanoseconds) and on-chip cache hits (tens of nanoseconds);
    these defaults land in those bands.
    """

    dram_latency: float = 100 * NS
    dram_bandwidth: float = 20 * GiB
    cache_hit_latency: float = 40 * NS
    cache_bandwidth: float = 80 * GiB

    def __post_init__(self) -> None:
        require_positive("dram_latency", self.dram_latency)
        require_positive("dram_bandwidth", self.dram_bandwidth)
        require_positive("cache_hit_latency", self.cache_hit_latency)
        require_positive("cache_bandwidth", self.cache_bandwidth)

    def local_read_time(self, nbytes: int) -> float:
        """Reading ``nbytes`` from the local partition (DRAM-resident)."""
        if nbytes < 0:
            raise ValueError(f"negative read size: {nbytes}")
        return self.dram_latency + nbytes / self.dram_bandwidth

    def local_read_times(self, nbytes):
        """:meth:`local_read_time` over a NumPy array of sizes."""
        return self.dram_latency + nbytes / self.dram_bandwidth

    def cache_service_time(self, nbytes: int) -> float:
        """Serving ``nbytes`` from the CLaMPI cache buffer (already local)."""
        if nbytes < 0:
            raise ValueError(f"negative read size: {nbytes}")
        return self.cache_hit_latency + nbytes / self.cache_bandwidth
