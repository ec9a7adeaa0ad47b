"""Batched replay of distributed LCC/TC runs: one slot table, one fold.

The per-edge loops in :mod:`repro.core.lcc` and :mod:`repro.core.tc` are
exact but pay a Python round trip (``read_adjacency`` → ``SimContext.get``
→ ``ClampiCache.access`` plus a real intersection) per edge.  A rank's
access pattern is a pure function of the partitioned CSR, so this module
replays the same run in bulk — for **every rank at once**: one
:class:`_ClusterStatic` per ``(dist, kernel)`` holds every rank's edge
stream concatenated rank-major, and each stage below is one NumPy pass
over the whole cluster, cut into ranks by per-rank bounds:

1. the gets — one window's remote gets become durations and hit
   verdicts.  A rank with a cache attached to the window runs its own
   :meth:`ClampiCache.access_batch` (CLaMPI state is per rank: hit runs
   vectorized, the scalar cache only for state-changing misses) and its
   outputs are scattered into the cluster arrays; every other get is a
   miss at its closed-form network cost, one ``network.get_times`` call
   for the cluster, no ``BatchStream`` built;
2. the clock — every charge is written into one **slot table** laid out
   in the loop's program order, every rank's table end to end, and each
   rank's segment is summed strictly left to right from ``0.0`` by one
   ``np.cumsum`` over its view (:func:`fold_segments`);
3. the totals — the six ``RankTrace`` get fields: per-rank integer
   reductions, the two time fields by the same segmented fold.

The table, per local vertex::

    [own][first] [a][b][c] [a][b][c] ... [tail]       3 * (n_v + E) slots
     head(v)      edge e    edge e+1
    head(v) = 3 * (v + estart[v])       edge(e) = 3 * (v_e + e) + 2
    tail(v) = head(v) + 2 + 3 * deg(v)

With ``v`` and ``estart`` counted across the cluster, rank-major, rank
``r``'s table starts at ``3 * (vbound[r] + ebound[r])``: the concatenation
needs no per-rank base beyond the bounds, and pads no rank to another's
width.  Positions depend on the index structure alone (:class:`SlotTable`,
kept on the static), never on the values written.  A slot a run does not
use holds ``0.0``.  **Zero-padding rule**: every charge is a duration —
``>= 0``, never ``-0.0`` or NaN — and for such ``x``, ``x + 0.0 == x`` bit
for bit, so the padded fold performs the loop's additions with no-ops in
between and the replayed clocks and trace totals are **bit-identical** to
the loop (``tests/core/test_cached_fast_parity.py``,
``tests/properties/test_property_replay_layout.py``).  The four folds
differ only in the columns they write (``own`` = the vertex's own-list
read, ``tail`` = ``vertex_overhead`` for LCC and ``0.0`` for TC,
everywhere):

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
reads (``own``, ``loc``) and the whole comp fold — is priced for the
cluster before the first fold on a partition and kept on the static,
under keys naming every model field it read.  A warm query computes only
what the caches decide: stage 1, the clock fold with the gets written in,
stage 3.  The only Python left per rank is the CLaMPI calls, the segment
folds and the ``RankTrace`` construction.

The 2D kernels of :mod:`repro.core.linalg` replay one rank at a time:
:func:`price_gets` for its gets, and the same :func:`get_totals` and
:func:`fold_slots` over one segment.

Dispatch (:func:`repro.core.lcc.execute_lcc`, :func:`repro.core.tc.execute_tc`):
the replay runs whenever ``config.fast_path`` is set, cached or not, warm or
cold; otherwise the per-edge loop — the oracle.
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
from repro.graph.csr import gather_ranges
from repro.graph.distributed import DistributedCSR
from repro.graph.partition import Partition
from repro.runtime.engine import Engine, RunOutcome
from repro.runtime.trace import RankTrace


def fold_segments(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Strict left-to-right sum of every segment
    ``values[bounds[i]:bounds[i + 1]]`` — bit-identical to repeated ``+=``
    from ``0.0``.

    One ``np.cumsum`` per segment view; ``values`` is scratch and is
    folded in place.
    """
    out = np.zeros(bounds.shape[0] - 1)
    for i, (lo, hi) in enumerate(zip(bounds[:-1].tolist(),
                                     bounds[1:].tolist())):
        if hi > lo:
            segment = values[lo:hi]
            segment.cumsum(out=segment)
            out[i] = segment[-1]
    return out


def fold_left(deltas: np.ndarray) -> float:
    """:func:`fold_segments` of one segment, ``deltas`` left untouched."""
    deltas = np.array(deltas, dtype=np.float64)
    return float(fold_segments(deltas, np.array([0, deltas.shape[0]]))[0])


def fold_slots(bounds: np.ndarray, *columns: tuple) -> np.ndarray:
    """Zero a ``bounds[-1]``-slot table, write ``(positions, values)``
    columns, and :func:`fold_segments` it.

    Values are durations (``>= 0``, never ``-0.0``/NaN), so the ``0.0`` left
    in every unwritten slot passes through the fold unchanged.
    """
    table = np.zeros(int(bounds[-1]), dtype=np.float64)
    for positions, values in columns:
        table[positions] = values
    return fold_segments(table, bounds)


def _segment_sums(x: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Exact per-segment sums of an integer (or boolean) array, whose end
    is ``bounds[-1]``; an empty segment sums to ``0``."""
    sums = np.zeros(bounds.shape[0] - 1, dtype=np.int64)
    nonempty = bounds[1:] > bounds[:-1]
    if nonempty.any():  # reduceat would read an empty segment's next item
        sums[nonempty] = np.add.reduceat(x, bounds[:-1][nonempty],
                                         dtype=np.int64)
    return sums


def _bounds(lengths: np.ndarray) -> np.ndarray:
    """Segment bounds ``[0, l0, l0 + l1, ...]`` of consecutive lengths."""
    bounds = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    return bounds


def price_gets(ctx, window, network, counts: np.ndarray,
               stream: Callable[[], BatchStream]
               ) -> tuple[np.ndarray, np.ndarray]:
    """Durations + hit verdicts for one rank's gets on one window (2D).

    ``stream()`` (the gets as a :class:`BatchStream`) is only called when
    a cache is attached; without one every get of ``counts[i]`` elements
    is a miss at its closed-form network cost.
    """
    cache = ctx.cache_for(window)
    if cache is not None:
        return cache.access_batch(stream=stream())
    return (network.get_times(counts * window.itemsize),
            np.zeros(counts.shape[0], dtype=bool))


def get_totals(dur: np.ndarray, hit: np.ndarray, nbytes: np.ndarray,
               bounds: np.ndarray) -> dict:
    """The six ``RankTrace`` get fields, one list entry per rank, from the
    per-get arrays in program order, rank ``r``'s gets at
    ``bounds[r]:bounds[r + 1]``: the misses' and the hits' durations are
    each compacted, as the loop charges them, and folded rank by rank."""
    miss = ~hit
    mbound = _bounds(_segment_sums(miss, bounds))  # into the misses
    hbound = bounds - mbound        # ... and into the hits
    bytes_remote = _segment_sums(nbytes[miss], mbound)
    return dict(
        n_remote_gets=np.diff(mbound).tolist(),
        n_cache_hits=np.diff(hbound).tolist(),
        bytes_remote=bytes_remote.tolist(),
        bytes_cached=(_segment_sums(nbytes, bounds) - bytes_remote).tolist(),
        comm_time=fold_segments(dur[miss], mbound).tolist(),
        cache_time=fold_segments(dur[hit], hbound).tolist())


class SlotTable:
    """Slot positions of the cluster's 1D table (layout: module docstring).

    ``e_degs`` holds every vertex's edge count, rank-major; ``vbound`` the
    per-rank vertex bounds.  Each fold returns one value per rank.
    """

    def __init__(self, e_degs: np.ndarray, vbound: np.ndarray):
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
        #: Per-rank edge bounds, and where each rank's table starts.
        self.ebound = estart[vbound]
        self.bounds = 3 * (vbound + self.ebound)

    def _fold(self, *columns: tuple) -> list[float]:
        """Each rank's segment of the table the columns write (zero-padding
        rule: module docstring)."""
        return fold_slots(self.bounds, *columns).tolist()

    def _next(self, x: np.ndarray) -> np.ndarray:
        """``x`` of each edge's successor, ``0.0`` on a vertex's last edge."""
        nxt = np.zeros_like(x)
        nxt[:-1] = x[1:]
        nxt[self.last_e] = 0.0
        return nxt

    def clock(self, overlap: bool, own: np.ndarray, remote: np.ndarray,
              read: np.ndarray, get1: np.ndarray, get2: np.ndarray,
              kern: np.ndarray, tail: float) -> list[float]:
        """The clock fold: ``read`` holds the local edges' reads, ``get1`` /
        ``get2`` the remote edges' offsets and adjacency gets."""
        ends = (self.head, own), (self.tail, tail)
        a = self.edge
        if not overlap:
            a_r = a[remote]
            return self._fold(*ends, (a[~remote], read), (a_r, get1),
                              (a_r + 1, get2), (a + 2, kern))
        comm = np.empty(a.shape[0])  # read + 0.0 == read on a local edge
        comm[~remote] = read
        comm[remote] = get1 + get2
        return self._fold(*ends, (self.first, comm[self.first_e]),
                          (a + 2, np.maximum(kern, self._next(comm))))

    def comp(self, overlap: bool, own: np.ndarray, remote: np.ndarray,
             read: np.ndarray, kern: np.ndarray, tail: float) -> list[float]:
        """The comp fold: it reads no get, so no cache decision."""
        ends = (self.head, own), (self.tail, tail)
        a = self.edge
        loc = np.zeros(a.shape[0])  # 0.0 on a remote edge
        loc[~remote] = read
        if not overlap:
            return self._fold(*ends, (a, loc), (a + 2, kern))
        return self._fold(*ends, (self.first, loc[self.first_e]),
                          (a, self._next(loc)), (a + 2, kern))


def _rank_major(part: Partition) -> tuple[np.ndarray, ...]:
    """``(vs, vbound, owner, local)``: every vertex's global id rank-major
    in local-index order, the per-rank bounds into that order, and each
    global id's owner and local index (gathered, never searched again)."""
    ids = np.arange(part.n, dtype=np.int64)
    owner = part.owners(ids).astype(np.int64)
    local = part.to_local_many(ids).astype(np.int64)
    vbound = _bounds(np.bincount(owner, minlength=part.nranks))
    vs = np.empty(part.n, dtype=np.int64)
    vs[vbound[owner] + local] = ids
    return vs, vbound, owner, local


def _adjacency_starts(vs: np.ndarray, degs: np.ndarray,
                      vbound: np.ndarray) -> np.ndarray:
    """``start_of[v]``: where ``adj(v)`` begins in its owner's window part
    (``vs`` / ``degs`` rank-major, ``vbound`` the per-rank bounds)."""
    estart = np.zeros(vs.shape[0] + 1, dtype=np.int64)
    np.cumsum(degs, out=estart[1:])
    start_of = np.empty(vs.shape[0], dtype=np.int64)
    start_of[vs] = estart[:-1] - np.repeat(estart[vbound[:-1]],
                                           np.diff(vbound))
    return start_of


class _ClusterStatic:
    """Every rank's access pattern and the pricing record, cached on the
    ``dist`` per kernel.

    The pattern is a pure function of the partitioned CSR: the edge
    stream of every rank concatenated rank-major, its remote/local split
    and list-length pairs, the slot table, the remote gets'
    ``(targets, offsets, counts)`` arrays for the two windows, and the
    per-rank vertex, edge and get bounds into those arrays.  A resident
    session replays it query after query, so it is computed once per
    ``DistributedCSR``; one rank's :class:`BatchStream` on one window is
    built the first time a cache attached to *that* window replays it,
    and kept.  The pricing record (:meth:`pricing`) adds what the cost
    models alone derive from it.
    ``dist._replay_memo`` holds nothing else: scores belong to the graph.
    """

    #: Pricings kept before the record starts over (bounds a model sweep).
    MAX_PRICED = 32

    def __init__(self, dist: DistributedCSR, *, tc: bool):
        graph, part = dist.graph, dist.partition
        n = graph.n
        vs, vbound, owner, local = _rank_major(part)
        self.vs, self.vbound = vs, vbound
        degrees_all = graph.degrees().astype(np.int64)
        degs = degrees_all[vs]  # full local-vertex degrees, rank-major
        start_of = _adjacency_starts(vs, degs, vbound)

        # Window parts are the owners' CSR rows in local order, so the
        # rank-major edge stream is the graph's rows in ``vs`` order.
        dst = gather_ranges(graph.adjacency, graph.offsets[vs],
                            degs)[0].astype(np.int64)
        if tc:
            rows = np.repeat(np.arange(n, dtype=np.int64), degs)
            keep = dst > vs[rows]  # upper-triangle endpoints only
            dst = dst[keep]
            e_degs = np.bincount(rows[keep], minlength=n).astype(np.int64)
        else:
            e_degs = degs
        self.table = table = SlotTable(e_degs, vbound)

        owners = owner[dst]
        self.remote = remote = owners != np.repeat(owner[vs], e_degs)
        self.lb = lb = degrees_all[dst]
        self.la = np.repeat(degs, e_degs)
        #: Per-rank bounds into the remote gets and the local reads.
        self.gbound = gbound = _bounds(_segment_sums(remote, table.ebound))
        lbound = table.ebound - gbound

        targets = owners[remote]
        #: Per window (offsets, adjacency): the remote gets' (targets,
        #: offsets, counts), every rank's rank-major.
        self.gets = (
            (targets, local[dst[remote]],
             np.full(targets.shape[0], 2, dtype=np.int64)),
            (targets, start_of[dst[remote]], lb[remote]),
        )
        #: Each get's bytes, interleaved in program order (offsets get,
        #: then adjacency get, per remote edge).
        self.get_nbytes = np.empty(2 * targets.shape[0], dtype=np.int64)
        self.get_nbytes[0::2] = self.gets[0][2] * dist.w_offsets.itemsize
        self.get_nbytes[1::2] = self.gets[1][2] * dist.w_adj.itemsize
        adj_itemsize = dist.w_adj.itemsize
        self.nbytes_l = lb[~remote] * adj_itemsize
        self.own_nbytes = degs * adj_itemsize
        self.n_local_reads = np.diff(lbound).tolist()
        self.bytes_local = _segment_sums(self.nbytes_l, lbound).tolist()
        self.tc = tc
        self._streams: dict[tuple[int, int], BatchStream] = {}
        self._priced: dict[tuple, object] = {}

    def stream(self, window: int, rank: int) -> BatchStream:
        """One rank's gets on one window (0: offsets, 1: adjacency) as a
        stream, built on first use and kept."""
        stream = self._streams.get((window, rank))
        if stream is None:
            lo, hi = self.gbound[rank:rank + 2].tolist()
            stream = self._streams[window, rank] = BatchStream(
                *(col[lo:hi] for col in self.gets[window]))
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
        """``(kern, own, read, tail, comp)`` for the cluster; ``omp``
        carries ``compute``, so the comp key covers ``tail``
        (``vertex_overhead``) too.  ``comp`` holds one value per rank."""
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

    def price_gets(self, dist: DistributedCSR, network
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Durations + hit verdicts of every get, interleaved like
        :attr:`get_nbytes`: a rank's cache decides its gets on the cache's
        window, the network's closed form prices all the others."""
        wins = dist.w_offsets, dist.w_adj
        cached = [(rank, w, cache)
                  for rank, ctx in enumerate(dist.engine.contexts)
                  for w, win in enumerate(wins)
                  if (cache := ctx.cache_for(win)) is not None]
        nbytes = self.get_nbytes
        dur = (np.empty(nbytes.shape[0])
               if len(cached) == len(wins) * dist.engine.nranks
               else network.get_times(nbytes))
        hit = np.zeros(nbytes.shape[0], dtype=bool)
        g = self.gbound.tolist()
        for rank, w, cache in cached:
            at = slice(2 * g[rank] + w, 2 * g[rank + 1], 2)
            dur[at], hit[at] = cache.access_batch(stream=self.stream(w, rank))
        return dur, hit


def _cluster_static(dist: DistributedCSR, *, tc: bool) -> _ClusterStatic:
    """The cluster's :class:`_ClusterStatic` for one kernel, built on first
    use."""
    key = "tc" if tc else "lcc"
    static = dist._replay_memo.get(key)
    if static is None:
        static = dist._replay_memo[key] = _ClusterStatic(dist, tc=tc)
    return static


def _replay(dist: DistributedCSR, config: LCCConfig, st: _ClusterStatic,
            pricing: tuple) -> tuple[list[float], list[RankTrace]]:
    """Every rank's replayed clock and trace totals."""
    network = config.network
    dur, hit = st.price_gets(dist, network)
    kern, own, read, tail, comp = pricing
    clocks = st.table.clock(config.overlap, own, st.remote, read,
                            dur[0::2], dur[1::2], kern, tail)
    if st.tc:
        nranks = config.nranks
        stages = math.ceil(math.log2(nranks)) if nranks > 1 else 0
        reduce = stages * (network.alpha + 8 * network.beta)
        clocks = [clock + reduce for clock in clocks]
    totals = get_totals(dur, hit, st.get_nbytes, 2 * st.gbound)
    traces = [RankTrace.from_totals(
        rank, n_local_reads=st.n_local_reads[rank],
        bytes_local=st.bytes_local[rank], comp_time=comp[rank],
        **{name: values[rank] for name, values in totals.items()})
        for rank in range(dist.engine.nranks)]
    return clocks, traces


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
    st = _cluster_static(dist, tc=tc)
    # The cluster is priced before any cache is touched, so a pricing that
    # raises leaves the caches as the previous query left them.
    pricing = st.pricing(config, omp)
    clocks, traces = _replay(dist, config, st, pricing)
    dist.close_epochs()

    per_vertex = vertex_scores(graph, "tmin" if tc else "tpv")
    total = int(per_vertex.sum())
    outcome = RunOutcome(
        time=max(clocks), clocks=clocks, traces=traces,
        results=_segment_sums(per_vertex[st.vs], st.vbound).tolist())
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
