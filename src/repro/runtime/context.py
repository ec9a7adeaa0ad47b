"""Per-rank simulation context: virtual clock + communication primitives.

``SimContext`` is what a rank program sees as "MPI".  It owns the rank's
virtual clock and charges every operation to it:

* ``get``/``put`` — one-sided RMA on a :class:`~repro.runtime.window.Window`
  (optionally intercepted by an attached CLaMPI cache, reproducing the
  paper's Figure 3 flow: the get is first looked up in the cache, and only
  on a miss does the remote access happen);
* ``compute``/``charge_kernel`` — analytic compute costs;
* ``send``/``recv``/``barrier``/``alltoallv`` — *requests* to be yielded to
  the engine (used by the TriC baseline, never by the async algorithm).

Because the paper's algorithm uses passive-target synchronization, a rank's
clock never depends on another rank's progress for RMA: a get completes at
``now + t(s)`` regardless of what the target is doing.  That is precisely
why the async algorithm can be simulated rank-by-rank.
"""

from __future__ import annotations

from typing import Any, Protocol, Sequence

import numpy as np

from repro.runtime.compute import ComputeModel
from repro.runtime.network import MemoryModel, NetworkModel
from repro.runtime.requests import (
    AllreduceRequest,
    AlltoallvRequest,
    BarrierRequest,
    RecvRequest,
    SendRequest,
)
from repro.runtime.trace import RankTrace
from repro.runtime.window import Window
from repro.utils.errors import SimulationError


class CacheProtocol(Protocol):
    """What a CLaMPI cache must implement to intercept gets.

    ``access`` returns ``(data, duration, hit)``: the bytes served, the
    seconds to charge the initiating rank, and whether it was a cache hit.
    """

    def access(self, target: int, offset: int, count: int) -> tuple[np.ndarray, float, bool]:
        ...  # pragma: no cover - protocol stub

    def on_epoch_close(self) -> None:
        ...  # pragma: no cover - protocol stub


class SimContext:
    """The per-rank handle of a simulated job."""

    def __init__(
        self,
        rank: int,
        nranks: int,
        *,
        network: NetworkModel | None = None,
        memory: MemoryModel | None = None,
        compute: ComputeModel | None = None,
    ):
        if not (0 <= rank < nranks):
            raise SimulationError(f"rank {rank} out of range [0, {nranks})")
        self.rank = rank
        self.nranks = nranks
        self.network = network or NetworkModel.aries()
        self.memory = memory or MemoryModel()
        self.compute_model = compute or ComputeModel()
        self.now: float = 0.0
        self.trace = RankTrace(rank=rank)
        self._caches: dict[str, CacheProtocol] = {}

    # -- clock -------------------------------------------------------------
    def advance(self, seconds: float) -> None:
        """Advance the local clock; time can only move forward."""
        if seconds < 0:
            raise SimulationError(
                f"rank {self.rank}: attempt to advance clock by {seconds} s"
            )
        self.now += seconds

    def set_time(self, t: float) -> None:
        """Engine hook: jump to an absolute time (collective completion)."""
        if t < self.now - 1e-18:
            raise SimulationError(
                f"rank {self.rank}: clock would go backwards "
                f"({self.now} -> {t})"
            )
        self.now = max(self.now, t)

    # -- compute ------------------------------------------------------------
    def compute(self, seconds: float) -> None:
        """Charge ``seconds`` of local computation."""
        self.advance(seconds)
        self.trace.compute(seconds)

    def charge_kernel(self, method: str, len_a: int, len_b: int) -> float:
        """Charge one intersection-kernel invocation; returns the cost."""
        dt = self.compute_model.kernel_time(method, len_a, len_b)
        self.compute(dt)
        return dt

    # -- cache attachment ------------------------------------------------------
    def attach_cache(self, window: Window, cache: CacheProtocol) -> None:
        """Route this rank's remote gets on ``window`` through ``cache``."""
        self._caches[window.name] = cache

    def detach_cache(self, window: Window) -> None:
        self._caches.pop(window.name, None)

    def cache_for(self, window: Window) -> CacheProtocol | None:
        return self._caches.get(window.name)

    # -- RMA ------------------------------------------------------------------
    def get(self, window: Window, target: int, offset: int, count: int) -> np.ndarray:
        """Blocking one-sided read of ``count`` elements from ``target``.

        Models ``MPI_Get`` + ``MPI_Win_flush``: the call returns the data and
        the clock has advanced by the full transfer time.  Local targets
        bypass the network (a direct memory read, like the paper's local
        adjacency accesses); remote targets go through the attached CLaMPI
        cache when one is present.
        """
        nbytes = window.nbytes_of(count)
        if target == self.rank:
            data = window.local_part(self.rank)[offset:offset + count]
            dt = self.memory.local_read_time(nbytes)
            self.advance(dt)
            self.trace.local_read(nbytes, dt)
            return data

        cache = self._caches.get(window.name)
        if cache is not None:
            data, dt, hit = cache.access(target, offset, count)
            self.advance(dt)
            if hit:
                self.trace.cache_hit(nbytes, dt)
            else:
                self.trace.remote_get(nbytes, dt)
            return data

        data = window.read(self.rank, target, offset, count)
        dt = self.network.get_time(nbytes)
        self.advance(dt)
        self.trace.remote_get(nbytes, dt)
        return data

    def get_nowait(self, window: Window, target: int, offset: int, count: int
                   ) -> tuple[np.ndarray, float]:
        """Issue a get but *return* its duration instead of charging it.

        Used by the double-buffering pipeline in the LCC kernel, which
        overlaps the next edge's communication with the current edge's
        computation and therefore needs to combine the two durations itself
        (``max`` instead of ``+``).  Trace counters are still updated.
        """
        nbytes = window.nbytes_of(count)
        if target == self.rank:
            data = window.local_part(self.rank)[offset:offset + count]
            dt = self.memory.local_read_time(nbytes)
            self.trace.local_read(nbytes, dt)
            return data, dt
        cache = self._caches.get(window.name)
        if cache is not None:
            data, dt, hit = cache.access(target, offset, count)
            if hit:
                self.trace.cache_hit(nbytes, dt)
            else:
                self.trace.remote_get(nbytes, dt)
            return data, dt
        data = window.read(self.rank, target, offset, count)
        dt = self.network.get_time(nbytes)
        self.trace.remote_get(nbytes, dt)
        return data, dt

    def put(self, window: Window, target: int, offset: int, data: np.ndarray) -> None:
        """Blocking one-sided write."""
        arr = np.asarray(data, dtype=window.dtype)
        window.write(self.rank, target, offset, arr)
        nbytes = arr.nbytes
        if target == self.rank:
            dt = self.memory.local_read_time(nbytes)
        else:
            dt = self.network.put_time(nbytes)
        self.advance(dt)
        self.trace.n_puts += 1
        self.trace.comm_time += dt if target != self.rank else 0.0

    # -- two-sided / collectives (yielded to the engine) -------------------------
    def send(self, dest: int, payload: Any, nbytes: int, tag: int = 0) -> SendRequest:
        """Build a send request (``yield`` it from a rank generator)."""
        if not (0 <= dest < self.nranks):
            raise SimulationError(f"send to invalid rank {dest}")
        return SendRequest(dest=dest, payload=payload, nbytes=int(nbytes), tag=tag)

    def recv(self, source: int, tag: int = 0) -> RecvRequest:
        """Build a receive request (``yield`` it from a rank generator)."""
        if not (0 <= source < self.nranks):
            raise SimulationError(f"recv from invalid rank {source}")
        return RecvRequest(source=source, tag=tag)

    def barrier(self) -> BarrierRequest:
        """Build a barrier request."""
        return BarrierRequest()

    def alltoallv(self, payloads: Sequence[Any], nbytes: Sequence[int]) -> AlltoallvRequest:
        """Build an alltoallv request (one payload per destination rank)."""
        if len(payloads) != self.nranks or len(nbytes) != self.nranks:
            raise SimulationError(
                f"alltoallv needs exactly {self.nranks} payloads/sizes, got "
                f"{len(payloads)}/{len(nbytes)}"
            )
        return AlltoallvRequest(payloads=list(payloads),
                                nbytes=[int(b) for b in nbytes])

    def allreduce(self, value: float, nbytes: int = 8) -> AllreduceRequest:
        """Build a sum-allreduce request."""
        return AllreduceRequest(value=value, nbytes=nbytes)
