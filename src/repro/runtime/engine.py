"""The discrete-event engine driving one simulated job.

A *rank program* is either

* a **plain function** ``fn(ctx) -> result`` — for fully asynchronous
  algorithms (the paper's LCC/TC): nothing ever blocks on a peer, so each
  rank simply runs to completion on its own virtual clock; or
* a **generator function** ``fn(ctx)`` that ``yield``s
  :mod:`~repro.runtime.requests` objects — for synchronizing algorithms
  (TriC's query/response rounds): the engine matches sends with receives
  and rendezvouses collectives, advancing clocks according to the network
  model.

The reported job time is ``max`` over rank clocks, matching the paper's
"median of the longest-running node" methodology (we are deterministic, so
the median over repetitions is the single value itself).
"""

from __future__ import annotations

import inspect
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.runtime.collectives import CollectiveState
from repro.runtime.compute import ComputeModel
from repro.runtime.context import SimContext
from repro.runtime.network import MemoryModel, NetworkModel
from repro.runtime.requests import (
    AllreduceRequest,
    AlltoallvRequest,
    BarrierRequest,
    RecvRequest,
    SendRequest,
)
from repro.runtime.trace import RankTrace
from repro.runtime.window import Window, WindowRegistry
from repro.utils.errors import CommError


@dataclass
class RunOutcome:
    """Results and metrics of one simulated job."""

    time: float
    clocks: list[float]
    traces: list[RankTrace]
    results: list[Any]

    @property
    def nranks(self) -> int:
        return len(self.clocks)

    @property
    def slowest_rank(self) -> int:
        """Rank whose clock defines the job time (paper reports this node)."""
        return max(range(self.nranks), key=lambda r: self.clocks[r])

    def total(self, attr: str) -> float:
        """Sum a :class:`RankTrace` counter over all ranks."""
        return sum(getattr(t, attr) for t in self.traces)

    @property
    def comm_time(self) -> float:
        return self.total("comm_time")

    @property
    def comp_time(self) -> float:
        return self.total("comp_time")

    @property
    def load_imbalance(self) -> float:
        """max/mean clock ratio - 1 (0 means perfectly balanced)."""
        mean = sum(self.clocks) / len(self.clocks)
        return (max(self.clocks) / mean - 1.0) if mean > 0 else 0.0

    def summary(self) -> dict[str, float]:
        """Flat metric dict for tables."""
        total_reads = self.total("total_reads")
        remote = self.total("n_remote_gets")
        hits = self.total("n_cache_hits")
        intents = remote + hits
        return {
            "time": self.time,
            "comm_time": self.comm_time,
            "comp_time": self.comp_time,
            "sync_time": self.total("sync_time"),
            "cache_time": self.total("cache_time"),
            "remote_gets": remote,
            "cache_hits": hits,
            "hit_rate": hits / intents if intents else 0.0,
            "remote_fraction": remote / total_reads if total_reads else 0.0,
            "bytes_remote": self.total("bytes_remote"),
            "load_imbalance": self.load_imbalance,
        }


@dataclass
class _RankState:
    """Scheduler-side state of one rank."""

    gen: Any = None
    result: Any = None
    done: bool = False
    blocked_on: Any = None  # RecvRequest or int (collective seq)
    resume_value: Any = None
    has_resume_value: bool = False


class Engine:
    """Owns contexts, windows and the scheduler for one simulated job."""

    def __init__(
        self,
        nranks: int,
        *,
        network: NetworkModel | None = None,
        memory: MemoryModel | None = None,
        compute: ComputeModel | None = None,
    ):
        if nranks < 1:
            raise CommError(f"need at least one rank, got {nranks}")
        self.nranks = nranks
        self.network = network or NetworkModel.aries()
        self.memory = memory or MemoryModel()
        self.compute = compute or ComputeModel()
        self.windows = WindowRegistry()
        self.contexts: list[SimContext] = [
            SimContext(
                r,
                nranks,
                network=self.network,
                memory=self.memory,
                compute=self.compute,
            )
            for r in range(nranks)
        ]

    # -- epochs -----------------------------------------------------------------
    def close_epochs(self, windows: tuple[Window, ...]) -> None:
        """``MPI_Win_unlock_all`` on ``windows`` for every rank.

        Per rank, each open epoch is unlocked and then each attached
        cache's epoch hook fires (transparent mode flushes, paper Section
        II-F).  Epoch state never touches the simulated clocks.
        """
        for ctx in self.contexts:
            for win in windows:
                if win.epoch_open(ctx.rank):
                    win.unlock_all(ctx.rank)
            for win in windows:
                cache = ctx.cache_for(win)
                if cache is not None:
                    cache.on_epoch_close()

    # -- running ----------------------------------------------------------------
    def run(self, rank_fn: Callable[[SimContext], Any]) -> RunOutcome:
        """Execute ``rank_fn`` on every rank and return the outcome."""
        if inspect.isgeneratorfunction(rank_fn):
            results = self._run_generators(rank_fn)
        else:
            results = [rank_fn(ctx) for ctx in self.contexts]
        clocks = [ctx.now for ctx in self.contexts]
        return RunOutcome(
            time=max(clocks),
            clocks=clocks,
            traces=[ctx.trace for ctx in self.contexts],
            results=results,
        )

    # -- generator scheduling ---------------------------------------------------
    def _run_generators(self, rank_fn: Callable) -> list[Any]:
        states = [_RankState(gen=rank_fn(ctx)) for ctx in self.contexts]
        for st in states:
            st.has_resume_value = True  # first resume primes the generator
            st.resume_value = None
        coll = CollectiveState(self.nranks, self.network)
        self._all_states = states  # shared with collective resume logic
        # mailbox[(src, dst, tag)] -> FIFO of (arrival_time, payload, nbytes)
        mailbox: dict[tuple[int, int, int], deque] = {}

        progress = True
        while progress:
            progress = False
            for rank, st in enumerate(states):
                if st.done or not self._runnable(rank, st, coll, mailbox):
                    continue
                progress = True
                self._step(rank, st, states, coll, mailbox)
            if not progress:
                # Either everyone finished, or we deadlocked.
                if all(st.done for st in states):
                    break
                blocked = [
                    (r, st.blocked_on)
                    for r, st in enumerate(states)
                    if not st.done
                ]
                raise CommError(
                    "deadlock: no rank can make progress; blocked = "
                    f"{blocked}; collectives: {coll.blocked_description()}"
                )
        return [st.result for st in states]

    def _runnable(self, rank: int, st: _RankState, coll: CollectiveState,
                  mailbox: dict) -> bool:
        """Check whether a blocked rank can be unblocked, priming its resume."""
        if st.has_resume_value:
            return True
        block = st.blocked_on
        if isinstance(block, RecvRequest):
            key = (block.source, rank, block.tag)
            queue = mailbox.get(key)
            if queue:
                arrival, payload, nbytes = queue.popleft()
                ctx = self.contexts[rank]
                wait = max(0.0, arrival - ctx.now)
                ctx.trace.sync_time += wait
                ctx.set_time(max(ctx.now, arrival))
                ctx.trace.n_recvs += 1
                ctx.trace.bytes_received += nbytes
                st.resume_value = payload
                st.has_resume_value = True
                st.blocked_on = None
                return True
            return False
        if isinstance(block, int):  # collective sequence number
            if coll.complete(block):
                done_t, results = coll.finish(block)
                self._resume_collective(block, done_t, results)
                return st.has_resume_value
            return False
        raise CommError(f"rank {rank} blocked on unknown request {block!r}")

    def _resume_collective(self, seq: int, done_t: float,
                           results: dict[int, Any]) -> None:
        for rank, st in enumerate(self._all_states):
            if st.blocked_on == seq and not st.done:
                ctx = self.contexts[rank]
                ctx.trace.sync_time += max(0.0, done_t - ctx.now)
                ctx.set_time(done_t)
                st.resume_value = results[rank]
                st.has_resume_value = True
                st.blocked_on = None

    def _step(self, rank: int, st: _RankState, states: list[_RankState],
              coll: CollectiveState, mailbox: dict) -> None:
        """Advance one rank's generator until it blocks or finishes."""
        ctx = self.contexts[rank]
        while True:
            try:
                value = st.resume_value if st.has_resume_value else None
                st.has_resume_value = False
                st.resume_value = None
                request = st.gen.send(value)
            except StopIteration as stop:
                st.done = True
                st.result = stop.value
                return

            if isinstance(request, SendRequest):
                dt = self.network.send_overhead(request.nbytes)
                ctx.advance(dt)
                ctx.trace.comm_time += dt
                ctx.trace.n_sends += 1
                ctx.trace.bytes_sent += request.nbytes
                arrival = ctx.now + self.network.message_time(request.nbytes)
                key = (rank, request.dest, request.tag)
                mailbox.setdefault(key, deque()).append(
                    (arrival, request.payload, request.nbytes)
                )
                st.has_resume_value = True  # sends complete immediately
                st.resume_value = None
                continue

            if isinstance(request, RecvRequest):
                st.blocked_on = request
                return

            if isinstance(request, BarrierRequest):
                ctx.trace.n_barriers += 1
                seq = coll.join(rank, "barrier", ctx.now, None)
                st.blocked_on = seq
                return

            if isinstance(request, AlltoallvRequest):
                ctx.trace.n_alltoallv += 1
                sent = sum(request.nbytes) - request.nbytes[rank]
                ctx.trace.bytes_sent += sent
                ctx.trace.comm_time += self.network.alltoallv_rank_time(
                    sent, 0, self.nranks
                )
                seq = coll.join(rank, "alltoallv", ctx.now,
                                (list(request.payloads), list(request.nbytes)))
                st.blocked_on = seq
                return

            if isinstance(request, AllreduceRequest):
                seq = coll.join(rank, "allreduce", ctx.now,
                                (request.value, request.nbytes))
                st.blocked_on = seq
                return

            raise CommError(
                f"rank {rank} yielded an unsupported value {request!r}; rank "
                "programs must yield request objects from repro.runtime.requests"
            )
