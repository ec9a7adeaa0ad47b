"""Batched replay of distributed LCC/TC runs: one slot table, one fold.

The per-edge loops in :mod:`repro.core.lcc` and :mod:`repro.core.tc` are
exact but pay a Python round trip (``read_adjacency`` → ``SimContext.get``
→ ``ClampiCache.access`` plus a real intersection) per edge.  A rank's
access pattern is a pure function of the partitioned CSR, so this module
replays the same run in bulk, in three stages it shares with the 2D
kernels of :mod:`repro.core.linalg`:

1. :func:`price_gets` — one window's remote gets become durations and hit
   verdicts: through :meth:`ClampiCache.access_batch` when a cache is
   attached (hit runs vectorized, the scalar cache only for state-changing
   misses), else there is no CLaMPI stage — the closed-form network cost
   of each get's byte count, every get a miss, no ``BatchStream`` built;
2. :func:`get_totals` — the six ``RankTrace`` get fields from those arrays;
3. :func:`fold_slots` — every charge is written into a fixed-width,
   zero-padded **slot table** laid out in the loop's program order and
   summed by one ``np.cumsum`` (a strict left-to-right fold).

The table, per local vertex (2D: ``[head] [left][right][compute]... [tail]``)::

    [own][first] [a][b][c] [a][b][c] ... [tail]       3 * (n_v + E) slots
     head(v)      edge e    edge e+1
    head(v) = 3 * (v + estart[v])       edge(e) = 3 * (v_e + e) + 2
    tail(v) = head(v) + 2 + 3 * deg(v)

Positions depend on the index structure alone (:class:`SlotTable`, kept on
the per-``dist`` :class:`_RankStatic`), never on the values written.  A
slot a run does not use holds ``0.0``.  **Zero-padding rule**: every charge
is a duration — ``>= 0``, never ``-0.0`` or NaN — and for such ``x``,
``x + 0.0 == x`` bit for bit, so the padded fold performs the loop's
additions with no-ops in between and the replayed clocks and trace totals
are **bit-identical** to the loop (``tests/core/test_cached_fast_parity.py``,
``tests/properties/test_property_replay_layout.py``).  The four folds differ
only in the columns they write (``own`` = the vertex's own-list read,
``tail`` = ``vertex_overhead`` for LCC and ``0.0`` for TC, everywhere):

    ================  =============  ========  =====  ====================
    fold              first          a         b      c
    ================  =============  ========  =====  ====================
    sequential clock  —              comm1     comm2  kern
    sequential comp   —              loc       —      kern
    overlap clock     comm[first_e]  —         —      max(kern, next comm)
    overlap comp      loc[first_e]   next loc  —      kern
    ================  =============  ========  =====  ====================

``comm1`` is the edge's offsets get or local read, ``comm2`` its adjacency
get (``0.0`` when local), ``comm = comm1 + comm2``, ``loc`` the local read
(``0.0`` when remote) and ``next x`` the vertex's next edge's ``x`` (``0.0``
on its last edge): double buffering issues edge ``i+1``'s fetch before
charging kernel ``i``, and hides it behind that kernel.

**Pricing record.**  What reads no cache output — ``kern``, the local
reads (``own``, ``loc``) and the whole comp fold — is priced before the
first fold on a partition and kept on the rank's :class:`_RankStatic`,
under keys naming every model field it read.  A warm query computes only
what the cache decides: stage 1, the clock fold with the gets written
in, stage 2.

Dispatch (:func:`repro.core.lcc.execute_lcc`, :func:`repro.core.tc.execute_tc`):
the replay runs whenever ``config.fast_path`` is set and op recording is off,
cached or not, warm or cold; otherwise the per-edge loop — the oracle.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np

from repro.clampi.cache import BatchStream
from repro.clampi.stats import CacheStats
from repro.core.config import DistributedRunResult, LCCConfig
from repro.core.local import vertex_scores
from repro.core.threading import OpenMPModel, kernel_times_vectorized
from repro.graph.distributed import DistributedCSR
from repro.runtime.engine import Engine, RunOutcome
from repro.runtime.trace import RankTrace


def fold_left(deltas: np.ndarray) -> float:
    """Strict left-to-right sum — bit-identical to repeated ``+=``."""
    if deltas.shape[0] == 0:
        return 0.0
    return float(np.cumsum(deltas)[-1])


def fold_slots(size: int, *columns: tuple) -> float:
    """Zero a ``size``-slot table, write ``(positions, values)`` columns, fold.

    Values are durations (``>= 0``, never ``-0.0``/NaN), so the ``0.0`` left
    in every unwritten slot passes through the fold unchanged.
    """
    table = np.zeros(size, dtype=np.float64)
    for positions, values in columns:
        table[positions] = values
    np.cumsum(table, out=table)  # in place: the table is scratch
    return float(table[-1]) if size else 0.0


def price_gets(ctx, window, network, counts: np.ndarray,
               stream: Callable[[], BatchStream]
               ) -> tuple[np.ndarray, np.ndarray]:
    """Durations + hit verdicts for one rank's gets on one window.

    ``stream()`` (the gets as a :class:`BatchStream`) is only called when
    a cache is attached; without one every get of ``counts[i]`` elements
    is a miss at its closed-form network cost.
    """
    cache = ctx.cache_for(window)
    if cache is not None:
        return cache.access_batch(stream=stream())
    return (network.get_times(counts * window.itemsize),
            np.zeros(counts.shape[0], dtype=bool))


def get_totals(dur: np.ndarray, hit: np.ndarray, nbytes: np.ndarray) -> dict:
    """The six ``RankTrace`` get fields, from per-get arrays in program order."""
    miss = ~hit
    n_miss = int(np.count_nonzero(miss))
    bytes_remote = int(nbytes[miss].sum())
    return dict(
        n_remote_gets=n_miss, n_cache_hits=hit.shape[0] - n_miss,
        bytes_remote=bytes_remote,
        bytes_cached=int(nbytes.sum()) - bytes_remote,
        comm_time=fold_left(dur[miss]), cache_time=fold_left(dur[hit]))


class SlotTable:
    """Slot positions of one rank's 1D table (layout: module docstring)."""

    def __init__(self, e_degs: np.ndarray):
        n_v = e_degs.shape[0]
        estart = np.zeros(n_v + 1, dtype=np.int64)
        np.cumsum(e_degs, out=estart[1:])
        E = int(estart[-1])
        rows = np.arange(n_v, dtype=np.int64)
        self.size = 3 * (n_v + E)
        self.head = 3 * (rows + estart[:-1])
        self.tail = 3 * (rows + estart[1:]) + 2
        self.edge = 3 * (np.repeat(rows, e_degs)
                         + np.arange(E, dtype=np.int64)) + 2
        nonempty = e_degs > 0
        self.first = self.head[nonempty] + 1
        self.first_e = estart[:-1][nonempty]
        self.last_e = estart[1:][nonempty] - 1

    def _next(self, x: np.ndarray) -> np.ndarray:
        """``x`` of each edge's successor, ``0.0`` on a vertex's last edge."""
        nxt = np.zeros_like(x)
        nxt[:-1] = x[1:]
        nxt[self.last_e] = 0.0
        return nxt

    def clock(self, overlap: bool, own: np.ndarray, remote: np.ndarray,
              read: np.ndarray, get1: np.ndarray, get2: np.ndarray,
              kern: np.ndarray, tail: float) -> float:
        """The clock fold: ``read`` holds the local edges' reads, ``get1`` /
        ``get2`` the remote edges' offsets and adjacency gets."""
        ends = (self.head, own), (self.tail, tail)
        a = self.edge
        if not overlap:
            a_r = a[remote]
            return fold_slots(self.size, *ends, (a[~remote], read),
                              (a_r, get1), (a_r + 1, get2), (a + 2, kern))
        comm = np.empty(a.shape[0])  # read + 0.0 == read on a local edge
        comm[~remote] = read
        comm[remote] = get1 + get2
        return fold_slots(self.size, *ends, (self.first, comm[self.first_e]),
                          (a + 2, np.maximum(kern, self._next(comm))))

    def comp(self, overlap: bool, own: np.ndarray, remote: np.ndarray,
             read: np.ndarray, kern: np.ndarray, tail: float) -> float:
        """The comp fold: it reads no get, so no cache decision."""
        ends = (self.head, own), (self.tail, tail)
        a = self.edge
        loc = np.zeros(a.shape[0])  # 0.0 on a remote edge
        loc[~remote] = read
        if not overlap:
            return fold_slots(self.size, *ends, (a, loc), (a + 2, kern))
        return fold_slots(self.size, *ends, (self.first, loc[self.first_e]),
                          (a, self._next(loc)), (a + 2, kern))


def _adjacency_starts(dist: DistributedCSR) -> np.ndarray:
    """``start_of[v]``: where ``adj(v)`` begins in its owner's window part."""
    start_of = np.zeros(dist.graph.n, dtype=np.int64)
    for rank in range(dist.engine.nranks):
        vs = dist.local_vertices(rank)
        if vs.size:
            start_of[vs] = dist.w_offsets.local_part(rank)[:-1]
    return start_of


class _RankStatic:
    """One rank's access pattern and pricing record, cached on the ``dist``.

    The pattern is a pure function of the partitioned CSR: the edge
    stream, remote/local split, list-length pairs, the slot table, the
    remote gets' ``(targets, offsets, counts)`` arrays for the two
    windows.  A resident session replays it query after query, so it is
    computed once per ``DistributedCSR``; a window's :class:`BatchStream`
    is built the first time a cache attached to *that* window replays it,
    and kept.  The pricing record (:meth:`pricing`) adds what the cost
    models alone derive from it.
    ``dist._replay_memo`` holds nothing else: scores belong to the graph.
    """

    #: Pricings kept before the record starts over (bounds a model sweep).
    MAX_PRICED = 32

    def __init__(self, dist: DistributedCSR, rank: int, start_of: np.ndarray,
                 degrees_all: np.ndarray, *, tc: bool):
        part = dist.partition
        vs = dist.local_vertices(rank)
        offs_local = dist.w_offsets.local_part(rank).astype(np.int64)
        adj_local = dist.w_adj.local_part(rank)
        n_v = vs.shape[0]
        degs = np.diff(offs_local)  # full local-vertex degrees

        dst = adj_local.astype(np.int64)
        if tc:
            src = np.repeat(vs, degs)
            keep = dst > src  # upper-triangle endpoints only
            dst = dst[keep]
            v_idx = np.repeat(np.arange(n_v, dtype=np.int64), degs)[keep]
            e_degs = np.bincount(v_idx, minlength=n_v).astype(np.int64)
        else:
            e_degs = degs
        self.table = SlotTable(e_degs)

        owners = part.owners(dst).astype(np.int64)
        self.remote = remote = owners != rank
        self.lb = lb = degrees_all[dst]
        self.la = np.repeat(degs, e_degs)

        targets = owners[remote]
        #: window name -> the remote gets' (targets, offsets, counts).
        self.gets = {
            dist.w_offsets.name: (targets, part.to_local_many(dst)[remote],
                                  np.full(targets.shape[0], 2,
                                          dtype=np.int64)),
            dist.w_adj.name: (targets, start_of[dst[remote]], lb[remote]),
        }
        self.tc = tc
        self._streams: dict[str, BatchStream] = {}
        self._priced: dict[tuple, object] = {}
        adj_itemsize = dist.w_adj.itemsize
        self.nbytes_l = lb[~remote] * adj_itemsize
        self.own_nbytes = degs * adj_itemsize

    def stream(self, window_name: str) -> BatchStream:
        """One window's gets as a stream, built on first use and kept."""
        stream = self._streams.get(window_name)
        if stream is None:
            stream = self._streams[window_name] = BatchStream(
                *self.gets[window_name])
        return stream

    def priced(self, key: tuple, price: Callable[[], object]):
        """``price()`` once per ``key``, which names every field it reads."""
        value = self._priced.get(key)
        if value is None:
            if len(self._priced) >= self.MAX_PRICED:
                self._priced.clear()
            value = self._priced[key] = price()
        return value

    def pricing(self, config: LCCConfig, omp: OpenMPModel) -> tuple:
        """``(kern, own, read, tail, comp)``; ``omp`` carries ``compute``,
        so the comp key covers ``tail`` (``vertex_overhead``) too."""
        memory, method, overlap = config.memory, config.method, config.overlap
        kern = self.priced(("kern", omp, method), partial(
            kernel_times_vectorized, omp, method, self.la, self.lb))
        # Each vertex's own-list read and each local edge's read.
        own, read = self.priced(("reads", memory), lambda: (
            memory.local_read_times(self.own_nbytes),
            memory.local_read_times(self.nbytes_l)))
        tail = 0.0 if self.tc else config.compute.vertex_overhead
        return kern, own, read, tail, self.priced(
            ("comp", omp, method, memory, overlap), partial(
                self.table.comp, overlap, own, self.remote, read, kern, tail))


def _rank_statics(dist: DistributedCSR, *, tc: bool) -> list[_RankStatic]:
    """Every rank's :class:`_RankStatic` for one kernel, built on first use."""
    key = "tc" if tc else "lcc"
    statics = dist._replay_memo.get(key)
    if statics is None:
        start_of = _adjacency_starts(dist)
        degrees_all = dist.graph.degrees().astype(np.int64)
        statics = dist._replay_memo[key] = [
            _RankStatic(dist, rank, start_of, degrees_all, tc=tc)
            for rank in range(dist.engine.nranks)]
    return statics


def _replay_rank(dist: DistributedCSR, config: LCCConfig, rank: int,
                 st: _RankStatic, pricing: tuple) -> tuple[float, RankTrace]:
    """One rank's replayed clock and trace totals."""
    network = config.network
    ctx = dist.engine.contexts[rank]

    # The two cache streams are independent state machines, so each window
    # is priced separately; the slot table and the totals re-merge them in
    # program order (offsets get, then adjacency get, per remote edge).
    wins = (dist.w_offsets, dist.w_adj)
    (dur_off, hit_off), (dur_adj, hit_adj) = (
        price_gets(ctx, win, network, st.gets[win.name][2],
                   partial(st.stream, win.name)) for win in wins)

    kern, own, read, tail, comp = pricing
    clock = st.table.clock(config.overlap, own, st.remote, read, dur_off,
                           dur_adj, kern, tail)
    if st.tc:
        nranks = config.nranks
        stages = math.ceil(math.log2(nranks)) if nranks > 1 else 0
        clock += stages * (network.alpha + 8 * network.beta)
    totals = get_totals(*(np.column_stack(pair).ravel() for pair in (
        (dur_off, dur_adj), (hit_off, hit_adj),
        [st.gets[win.name][2] * win.itemsize for win in wins])))
    return clock, RankTrace.from_totals(
        rank, n_local_reads=st.nbytes_l.shape[0],
        bytes_local=int(st.nbytes_l.sum()), comp_time=comp, **totals)


def _replay_result(engine: Engine, dist: DistributedCSR, config: LCCConfig,
                   off_caches: list, adj_caches: list, *, tc: bool
                   ) -> DistributedRunResult:
    """Replayed clocks + the graph's scores -> one ``DistributedRunResult``.

    The scores are the graph version's, referenced read-only
    (:func:`~repro.core.local.vertex_scores`): every query and cluster
    shape on one graph shares one count.
    """
    graph = dist.graph
    omp = OpenMPModel(threads=config.threads, compute=config.compute,
                      wait_policy=config.wait_policy)
    statics = _rank_statics(dist, tc=tc)
    # Every rank is priced before any cache is touched, so a pricing that
    # raises leaves the caches as the previous query left them.
    pricings = [st.pricing(config, omp) for st in statics]
    ranks = [_replay_rank(dist, config, rank, st, pricing)
             for rank, (st, pricing) in enumerate(zip(statics, pricings))]
    clocks = [clock for clock, _ in ranks]
    dist.close_epochs()

    per_vertex = vertex_scores(graph, "tmin" if tc else "tpv")
    total = int(per_vertex.sum())
    outcome = RunOutcome(
        time=max(clocks), clocks=clocks,
        traces=[trace for _, trace in ranks],
        results=[int(per_vertex[dist.local_vertices(r)].sum())
                 for r in range(engine.nranks)])
    return DistributedRunResult(
        lcc=None if tc else vertex_scores(graph, "lcc"),
        triangles_per_vertex=None if tc else per_vertex,
        # tmin counts each triangle once; tpv counts it six times unless
        # the graph is directed (transitive triads).
        global_triangles=total if tc or graph.directed else total // 6,
        outcome=outcome,
        offsets_cache_stats=CacheStats.merged(off_caches),
        adj_cache_stats=CacheStats.merged(adj_caches),
    )


def execute_lcc_batched(engine: Engine, dist: DistributedCSR,
                        config: LCCConfig, off_caches: list = (),
                        adj_caches: list = ()) -> DistributedRunResult:
    """Batched-replay counterpart of :func:`repro.core.lcc.execute_lcc_loop`.

    Epochs must be open on entry; they are closed on return (firing the
    caches' epoch hooks, so transparent-mode flush accounting matches the
    loop).  Scores come from the vectorized counting path, timing from the
    cache replay — both bit-identical to the loop.
    """
    return _replay_result(engine, dist, config, off_caches, adj_caches,
                          tc=False)


def execute_tc_batched(engine: Engine, dist: DistributedCSR,
                       config: LCCConfig, off_caches: list = (),
                       adj_caches: list = ()) -> DistributedRunResult:
    """Batched-replay counterpart of :func:`repro.core.tc.execute_tc_loop`."""
    return _replay_result(engine, dist, config, off_caches, adj_caches,
                          tc=True)
