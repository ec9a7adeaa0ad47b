"""Batched replay of cached distributed LCC/TC runs.

The per-edge loops in :mod:`repro.core.lcc` and :mod:`repro.core.tc` are
exact but slow: every edge costs a Python round trip through
``DistributedCSR.read_adjacency`` → ``SimContext.get`` →
``ClampiCache.access`` plus a real intersection.  This module replays the
same runs in bulk:

* each rank's access pattern is *known up front* (it is a pure function of
  the partitioned CSR), so the remote gets are emitted as NumPy access
  streams and pushed through :meth:`ClampiCache.access_batch`, which
  resolves runs of pure hits vectorized and only falls back to the scalar
  cache for state-changing events (misses with their insert/evict/resize
  side effects);
* per-edge compute costs come from the closed-form vectorized formulas in
  :mod:`repro.core.threading` and the scores from the batched counting
  path in :mod:`repro.core.local`.

This is the only vectorized 1D path.  A cache-less run is the same replay
with no CLaMPI stage: a window without a cache attached prices its gets
from their byte counts alone (:func:`_window_stream`), and the
:class:`~repro.clampi.cache.BatchStream` a cache would consume is never
built.

The replay is **bit-identical** to the loop, including every floating-point
accumulation: virtual clocks and trace totals are rebuilt as the *same
sequence* of additions the loop performs, evaluated with ``np.cumsum``
(a strict left-to-right fold) over delta arrays laid out in program order.
Parity is pinned by ``tests/core/test_cached_fast_parity.py``.

Dispatch (see :func:`repro.core.lcc.execute_lcc` /
:func:`repro.core.tc.execute_tc`): the replay runs whenever
``config.fast_path`` is set and op recording is off — with caches attached,
without, warm or cold.  ``fast_path=False`` keeps the per-edge loop, which
stays importable as the reference oracle
(:func:`repro.core.lcc.execute_lcc_loop`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.clampi.cache import BatchStream
from repro.clampi.stats import CacheStats
from repro.core.config import DistributedRunResult, LCCConfig
from repro.core.local import (
    lcc_from_triplets,
    triangles_min_vertex,
    triangles_per_vertex_batched,
)
from repro.core.threading import OpenMPModel, kernel_times_vectorized
from repro.graph.distributed import DistributedCSR
from repro.runtime.engine import Engine, RunOutcome
from repro.runtime.trace import RankTrace


def fold_left(deltas: np.ndarray) -> float:
    """Strict left-to-right sum — bit-identical to repeated ``+=``."""
    if deltas.shape[0] == 0:
        return 0.0
    return float(np.cumsum(deltas)[-1])


def _adjacency_starts(dist: DistributedCSR) -> np.ndarray:
    """``start_of[v]``: where ``adj(v)`` begins in its owner's window part."""
    start_of = np.zeros(dist.graph.n, dtype=np.int64)
    for rank in range(dist.engine.nranks):
        vs = dist.local_vertices(rank)
        if vs.size:
            start_of[vs] = dist.w_offsets.local_part(rank)[:-1]
    return start_of


def _window_stream(ctx, window, network, static: _RankStatic
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Durations + hit verdicts for one rank's gets on one window.

    With a cache attached this is the batched CLaMPI replay; without one
    there is no CLaMPI stage: the closed-form network cost of each get's
    byte count, and every get counts as remote.
    """
    cache = ctx.cache_for(window)
    if cache is not None:
        return cache.access_batch(stream=static.stream(window.name))
    _, _, counts = static.gets[window.name]
    return (network.get_times(counts * window.itemsize),
            np.zeros(counts.shape[0], dtype=bool))


class _RankStatic:
    """One rank's topology-derived access pattern, cached on the ``dist``.

    Everything here is a pure function of the partitioned CSR: the edge
    stream, remote/local split, list-length pairs and the remote gets'
    ``(targets, offsets, counts)`` arrays for the two windows.  A resident
    session replays the same pattern query after query, so this is
    computed once per ``DistributedCSR``; a window's
    :class:`BatchStream` (an ``np.unique`` over its gets) is built the
    first time a cache attached to *that* window replays it, and kept.
    """

    def __init__(self, dist: DistributedCSR, rank: int, start_of: np.ndarray,
                 degrees_all: np.ndarray, *, tc: bool):
        part = dist.partition
        vs = dist.local_vertices(rank)
        offs_local = dist.w_offsets.local_part(rank).astype(np.int64)
        adj_local = dist.w_adj.local_part(rank)
        self.n_v = n_v = vs.shape[0]
        self.degs = degs = np.diff(offs_local)  # full local-vertex degrees

        dst = adj_local.astype(np.int64)
        if tc:
            src = np.repeat(vs, degs)
            keep = dst > src  # upper-triangle endpoints only
            dst = dst[keep]
            v_idx = np.repeat(np.arange(n_v, dtype=np.int64), degs)[keep]
            e_degs = np.bincount(v_idx, minlength=n_v).astype(np.int64)
        else:
            e_degs = degs
        self.e_degs = e_degs
        self.E = dst.shape[0]
        self.estart = np.zeros(n_v + 1, dtype=np.int64)
        np.cumsum(e_degs, out=self.estart[1:])

        owners = part.owners(dst).astype(np.int64)
        self.remote = remote = owners != rank
        self.lb = lb = degrees_all[dst]
        self.la = np.repeat(degs, e_degs)
        self.r_idx = r_idx = np.flatnonzero(remote)
        self.l_idx = l_idx = np.flatnonzero(~remote)

        targets = owners[r_idx]
        self.cnt_r = cnt_r = lb[r_idx]
        #: window name -> the remote gets' (targets, offsets, counts).
        self.gets = {
            dist.w_offsets.name: (targets, part.to_local_many(dst)[r_idx],
                                  np.full(r_idx.shape[0], 2, dtype=np.int64)),
            dist.w_adj.name: (targets, start_of[dst[r_idx]], cnt_r),
        }
        self._streams: dict[str, BatchStream] = {}
        adj_itemsize = dist.w_adj.itemsize
        self.nbytes_l = lb[l_idx] * adj_itemsize
        self.own_nbytes = degs * adj_itemsize

    def stream(self, window_name: str) -> BatchStream:
        """One window's gets as a stream, built on first use and kept."""
        stream = self._streams.get(window_name)
        if stream is None:
            stream = self._streams[window_name] = BatchStream(
                *self.gets[window_name])
        return stream


def _rank_static(dist: DistributedCSR, rank: int, start_of: np.ndarray,
                 degrees_all: np.ndarray, *, tc: bool) -> _RankStatic:
    key = ("stream", rank, tc)
    static = dist._replay_memo.get(key)
    if static is None:
        static = _RankStatic(dist, rank, start_of, degrees_all, tc=tc)
        dist._replay_memo[key] = static
    return static


class _RankReplay:
    """One rank's replayed durations, folds and trace totals."""

    def __init__(self, dist: DistributedCSR, config: LCCConfig,
                 omp: OpenMPModel, rank: int, start_of: np.ndarray,
                 degrees_all: np.ndarray, *, tc: bool):
        memory = config.memory
        network = config.network
        ctx = dist.engine.contexts[rank]

        st = _rank_static(dist, rank, start_of, degrees_all, tc=tc)
        self.n_v = st.n_v
        self.e_degs = st.e_degs
        E = st.E
        remote = st.remote
        r_idx, l_idx = st.r_idx, st.l_idx
        la, lb = st.la, st.lb
        cnt_r = st.cnt_r
        R = r_idx.shape[0]
        adj_itemsize = dist.w_adj.itemsize
        off_itemsize = dist.w_offsets.itemsize

        # The two cache streams are independent state machines, so each is
        # replayed separately; interleaving only matters for the time
        # folds, which re-merge them below in program order.
        dur_off, hit_off = _window_stream(ctx, dist.w_offsets, network, st)
        dur_adj, hit_adj = _window_stream(ctx, dist.w_adj, network, st)

        nbytes_l = st.nbytes_l
        dur_loc = memory.local_read_times(nbytes_l)

        # Full-length per-edge slot arrays (first comm slot, second slot
        # for the remote adjacency get).
        comm1 = np.empty(E, dtype=np.float64)
        comm1[r_idx] = dur_off
        comm1[l_idx] = dur_loc
        comm2 = np.zeros(E, dtype=np.float64)
        comm2[r_idx] = dur_adj

        kern = kernel_times_vectorized(omp, config.method,
                                       la.astype(np.float64),
                                       lb.astype(np.float64))
        own_dt = memory.local_read_times(st.own_nbytes)

        self.remote = remote
        self.kern = kern
        self.comm1 = comm1
        self.comm2 = comm2
        self.own_dt = own_dt
        self.estart = st.estart
        self.E = E

        # -- time folds -----------------------------------------------------
        overhead = config.compute.vertex_overhead
        if config.overlap:
            self.clock = self._overlap_clock(tc, overhead)
            comp = self._overlap_comp(tc, overhead)
        else:
            self.clock = self._sequential_clock(tc, overhead)
            comp = self._sequential_comp(tc, overhead)
        if tc:
            nranks = config.nranks
            stages = math.ceil(math.log2(nranks)) if nranks > 1 else 0
            self.clock += stages * (network.alpha + 8 * network.beta)

        if R:
            flat = np.empty(2 * R, dtype=np.float64)
            flat[0::2] = dur_off
            flat[1::2] = dur_adj
            fhit = np.empty(2 * R, dtype=bool)
            fhit[0::2] = hit_off
            fhit[1::2] = hit_adj
            comm_time = fold_left(flat[~fhit])
            cache_time = fold_left(flat[fhit])
        else:
            comm_time = cache_time = 0.0

        n_miss_off = int(np.count_nonzero(~hit_off))
        n_miss_adj = int(np.count_nonzero(~hit_adj))
        self.trace = RankTrace.from_totals(
            rank,
            n_remote_gets=n_miss_off + n_miss_adj,
            n_cache_hits=2 * R - n_miss_off - n_miss_adj,
            n_local_reads=int(l_idx.shape[0]),
            bytes_remote=(n_miss_off * 2 * off_itemsize
                          + int((cnt_r[~hit_adj] * adj_itemsize).sum())),
            bytes_cached=(int(np.count_nonzero(hit_off)) * 2 * off_itemsize
                          + int((cnt_r[hit_adj] * adj_itemsize).sum())),
            bytes_local=int(nbytes_l.sum()),
            comm_time=comm_time,
            comp_time=comp,
            cache_time=cache_time,
        )

    # -- layout builders ----------------------------------------------------
    # Every builder writes the run's charges into a delta array laid out in
    # the loop implementation's program order, then folds it sequentially;
    # this is what makes the replayed clocks/trace totals bit-identical.

    def _edge_positions(self, sizes_e: np.ndarray, head: int, tail: int
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Slot positions for a [head][edge blocks...][tail] vertex layout.

        Returns ``(vcum, epos, total)``: per-vertex start offsets, each
        edge's block start, and the overall length.
        """
        estart, e_degs = self.estart, self.e_degs
        cs = np.zeros(self.E + 1, dtype=np.int64)
        np.cumsum(sizes_e, out=cs[1:])
        seg = cs[estart[1:]] - cs[estart[:-1]]
        vsz = head + seg + tail
        vcum = np.zeros(self.n_v + 1, dtype=np.int64)
        np.cumsum(vsz, out=vcum[1:])
        epos = (np.repeat(vcum[:-1] + head, e_degs)
                + (cs[:-1] - np.repeat(cs[estart[:-1]], e_degs)))
        return vcum, epos, int(vcum[-1])

    def _sequential_clock(self, tc: bool, overhead: float) -> float:
        """[own][(off, adj | loc), kern]...[overhead?] per vertex."""
        remote = self.remote
        nslots = np.where(remote, 2, 1)
        vcum, epos, total = self._edge_positions(nslots + 1, 1, 0 if tc else 1)
        deltas = np.zeros(total, dtype=np.float64)
        deltas[vcum[:-1]] = self.own_dt
        deltas[epos] = self.comm1
        deltas[epos[remote] + 1] = self.comm2[remote]
        deltas[epos + nslots] = self.kern
        if not tc:
            deltas[vcum[1:] - 1] = overhead
        return fold_left(deltas)

    def _sequential_comp(self, tc: bool, overhead: float) -> float:
        """comp_time charges in loop order: own, local reads, kernels."""
        remote = self.remote
        sizes = np.where(remote, 1, 2)
        vcum, epos, total = self._edge_positions(sizes, 1, 0 if tc else 1)
        deltas = np.zeros(total, dtype=np.float64)
        deltas[vcum[:-1]] = self.own_dt
        deltas[epos[~remote]] = self.comm1[~remote]
        deltas[epos + sizes - 1] = self.kern
        if not tc:
            deltas[vcum[1:] - 1] = overhead
        return fold_left(deltas)

    def _overlap_clock(self, tc: bool, overhead: float) -> float:
        """[own][comm_0][max(kern_i, comm_{i+1})...][kern_last][overhead?]."""
        e_degs, estart, E = self.e_degs, self.estart, self.E
        remote = self.remote
        comm_e = np.where(remote, self.comm1 + self.comm2, self.comm1)
        nonempty = e_degs > 0
        tail = 0 if tc else 1
        vsz = np.where(nonempty, e_degs + 2 + tail, 1 + tail)
        vcum = np.zeros(self.n_v + 1, dtype=np.int64)
        np.cumsum(vsz, out=vcum[1:])
        deltas = np.zeros(int(vcum[-1]), dtype=np.float64)
        deltas[vcum[:-1]] = self.own_dt
        first_e = estart[:-1][nonempty]
        last_e = estart[1:][nonempty] - 1
        vstart_ne = vcum[:-1][nonempty]
        deltas[vstart_ne + 1] = comm_e[first_e]
        # Pipelined steps: edge i hides edge i+1's communication, except
        # across vertex boundaries.
        not_last = np.ones(E, dtype=bool)
        not_last[last_e] = False
        nl = np.flatnonzero(not_last)
        pos_all = (np.repeat(vcum[:-1] + 2, e_degs)
                   + (np.arange(E, dtype=np.int64)
                      - np.repeat(estart[:-1], e_degs)))
        deltas[pos_all[nl]] = np.maximum(self.kern[nl], comm_e[nl + 1])
        deltas[vstart_ne + e_degs[nonempty] + 1] = self.kern[last_e]
        if not tc:
            deltas[vcum[1:] - 1] = overhead
        return fold_left(deltas)

    def _overlap_comp(self, tc: bool, overhead: float) -> float:
        """comp charges with the pipeline's issue order.

        The double-buffered loop records edge ``i+1``'s local read *before*
        charging kernel ``i`` (the fetch is issued first), so the layout is
        [own][loc_0?][loc_{i+1}?, kern_i ...][kern_last][overhead?].
        """
        e_degs, estart, E = self.e_degs, self.estart, self.E
        isloc = ~self.remote
        nonempty = e_degs > 0
        first_e = estart[:-1][nonempty]
        last_e = estart[1:][nonempty] - 1
        is_first = np.zeros(E, dtype=bool)
        is_first[first_e] = True
        ss = np.where(is_first, 0, isloc.astype(np.int64) + 1)
        scs = np.zeros(E + 1, dtype=np.int64)
        np.cumsum(ss, out=scs[1:])
        sseg = scs[estart[1:]] - scs[estart[:-1]]
        first_loc = np.zeros(self.n_v, dtype=np.int64)
        first_loc[nonempty] = isloc[first_e].astype(np.int64)
        tail = 0 if tc else 1
        cvsz = 1 + first_loc + sseg + nonempty.astype(np.int64) + tail
        cvcum = np.zeros(self.n_v + 1, dtype=np.int64)
        np.cumsum(cvsz, out=cvcum[1:])
        deltas = np.zeros(int(cvcum[-1]), dtype=np.float64)
        deltas[cvcum[:-1]] = self.own_dt
        fl = isloc[first_e]
        deltas[cvcum[:-1][nonempty][fl] + 1] = self.comm1[first_e[fl]]
        steps_begin = cvcum[:-1] + 1 + first_loc
        bpos = (np.repeat(steps_begin, e_degs)
                + (scs[:-1] - np.repeat(scs[estart[:-1]], e_degs)))
        se = np.flatnonzero(~is_first)
        loc_se = se[isloc[se]]
        deltas[bpos[loc_se]] = self.comm1[loc_se]
        deltas[bpos[se] + isloc[se]] = self.kern[se - 1]
        deltas[(steps_begin + sseg)[nonempty]] = self.kern[last_e]
        if not tc:
            deltas[cvcum[1:] - 1] = overhead
        return fold_left(deltas)


def _replay_ranks(engine: Engine, dist: DistributedCSR, config: LCCConfig,
                  *, tc: bool) -> tuple[list[float], list[RankTrace]]:
    omp = OpenMPModel(threads=config.threads, compute=config.compute,
                      wait_policy=config.wait_policy)
    degrees_all = dist.graph.degrees().astype(np.int64)
    start_of = _adjacency_starts(dist)
    clocks: list[float] = []
    traces: list[RankTrace] = []
    for rank in range(engine.nranks):
        rr = _RankReplay(dist, config, omp, rank, start_of, degrees_all, tc=tc)
        clocks.append(rr.clock)
        traces.append(rr.trace)
    return clocks, traces


def _replay_result(engine: Engine, dist: DistributedCSR, config: LCCConfig,
                   off_caches: list, adj_caches: list, *, tc: bool
                   ) -> DistributedRunResult:
    """Replayed clocks + counted scores -> one ``DistributedRunResult``."""
    graph = dist.graph
    clocks, traces = _replay_ranks(engine, dist, config, tc=tc)
    dist.close_epochs()

    memo_key, count = (("tmin", triangles_min_vertex) if tc
                       else ("tpv", triangles_per_vertex_batched))
    per_vertex = dist._replay_memo.get(memo_key)
    if per_vertex is None:
        per_vertex = dist._replay_memo[memo_key] = count(graph)
    total = int(per_vertex.sum())
    outcome = RunOutcome(
        time=max(clocks), clocks=clocks, traces=traces,
        results=[int(per_vertex[dist.local_vertices(r)].sum())
                 for r in range(engine.nranks)])
    return DistributedRunResult(
        lcc=None if tc else lcc_from_triplets(graph, per_vertex),
        triangles_per_vertex=None if tc else per_vertex.copy(),
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
