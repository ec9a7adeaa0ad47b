"""Batched replay of distributed LCC/TC runs: one slot table, one fold.

The per-edge loops in :mod:`repro.core.lcc` and :mod:`repro.core.tc` are
exact but pay a Python round trip (``read_adjacency`` → ``SimContext.get``
→ ``ClampiCache.access`` plus a real intersection) per edge.  A rank's
access pattern is a pure function of the partitioned CSR, so this module
replays the same run in bulk — for **every rank at once**: one
:class:`_ClusterStatic` per ``(dist, kernel)`` reads every rank's edge
stream off the graph version's :class:`EdgeRecord` and its partition off
the dist's rank-major CSR (the arrays behind the windows), and each stage
below is one NumPy pass over the whole cluster, cut into ranks by
per-rank bounds:

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

**Pricing record.**  What reads no cache output is priced before the
first fold that needs it and kept, under keys naming every model field
it read, at the level it depends on:

* *per graph version*, in the :class:`EdgeRecord` that every cluster
  shape and both kernels share: the edge stream in CSR order with its
  list-length pairs, ``tc``'s upper-edge selection, and each
  ``(OpenMPModel, method)``'s kernel times, one
  :func:`kernel_times_vectorized` call over every edge.  An edge's
  Eq. 3 time is a function of its pair alone, computed element by
  element, so a new rank count, partition or kernel reads the same
  values bit for bit;
* *per partition*, on the :class:`_ClusterStatic`: ``kern`` read through
  the static's rank-major → CSR edge positions (the record's own array
  for ``lcc`` under the block partition, one gather otherwise), the local
  reads (``own``, ``loc``) and the whole comp fold.

A warm query computes only what the caches decide: stage 1, the clock
fold with the gets written in, stage 3.  The only Python left per rank
is the CLaMPI calls, the segment folds and the ``RankTrace``
construction.

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
from repro.graph.csr import CSRGraph
from repro.graph.distributed import DistributedCSR
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


#: Pricings a record keeps before it starts over (bounds a model sweep).
MAX_PRICED = 32


def _price_once(memo: dict, key: tuple, price: Callable[[], object]):
    """``price()`` once per ``key``, which names every field it reads."""
    value = memo.get(key)
    if value is None:
        if len(memo) >= MAX_PRICED:
            memo.clear()
        value = memo[key] = price()
    return value


class EdgeRecord:
    """The partition-free half of the replay, one per graph version.

    An edge's list-length pair ``(deg(u), deg(v))``, and so its Eq. 3
    kernel time, depends on the graph alone: every cluster shape and both
    kernels read the same values.  The record holds them once, in CSR
    order: the edge stream (``dst``, int64), each edge's target degree
    (``lb``), ``tc``'s upper-edge selection (``upper_mask``, the edges
    ``u < v``, and ``upper_degrees``, their count per vertex) and, per
    ``(OpenMPModel, method)``, every edge's kernel time from one
    :func:`kernel_times_vectorized` call (:meth:`kernel_times`).

    A :class:`_ClusterStatic` reads it through its rank-major → CSR edge
    positions (:func:`_edge_positions`).  The owner of a ``DistributedCSR``
    hands the record on to a rebuilt one while the graph version stays
    (``graphstore.resident.Cluster1D``); ``rebind_graph`` drops it.  It is
    never stored on the graph, which outlives the clusters built on it.
    """

    def __init__(self, graph: CSRGraph):
        n = graph.n
        self.degrees = deg = graph.degrees().astype(np.int64)
        self.dst = graph.adjacency.astype(np.int64)
        self.lb = deg[self.dst]
        src = np.repeat(np.arange(n, dtype=np.int64), deg)
        self.upper_mask = self.dst > src
        self.upper_degrees = np.bincount(src[self.upper_mask],
                                         minlength=n).astype(np.int64)
        self._kern: dict[tuple, np.ndarray] = {}

    def kernel_times(self, omp: OpenMPModel, method: str) -> np.ndarray:
        """Every edge's kernel time under ``(omp, method)``, priced on
        first use and kept."""
        return _price_once(self._kern, (omp, method), lambda: (
            kernel_times_vectorized(omp, method,
                                    np.repeat(self.degrees, self.degrees),
                                    self.lb)))


def _edge_positions(dist: DistributedCSR, record: EdgeRecord, degs: np.ndarray,
                    tc: bool) -> np.ndarray | None:
    """The CSR position of each edge of the kernel's rank-major stream;
    ``None`` for the whole CSR stream in order (``lcc`` when every rank's
    vertices are consecutive ids in order, as under a block partition)."""
    vs = dist.vs
    if np.array_equal(vs, np.arange(vs.shape[0])):
        return np.flatnonzero(record.upper_mask) if tc else None
    # Edge j of rank-major vertex k is CSR edge ``offsets[vs[k]] + j``.
    rm_start = np.zeros(vs.shape[0], dtype=np.int64)
    np.cumsum(degs[:-1], out=rm_start[1:])
    emap = np.repeat(dist.graph.offsets[vs] - rm_start, degs)
    emap += np.arange(emap.shape[0], dtype=np.int64)
    return emap[record.upper_mask[emap]] if tc else emap


class _ClusterStatic:
    """The partition half of the replay: every rank's access pattern and
    the pricing record, cached on the ``dist`` per kernel.

    What depends on the graph version alone (the edge stream, list
    lengths, ``tc``'s upper edges, kernel times) is read from the dist's
    :class:`EdgeRecord` through the kernel's rank-major → CSR edge
    positions: the record's own arrays for ``lcc`` under the block
    partition, one gather otherwise.
    What depends on the partition is built here, from the dist's
    rank-major arrays: each edge's owner and remote/local split, the
    slot table, the remote gets' ``(targets, offsets, counts)`` arrays
    for the two windows, and the per-rank vertex, edge and get bounds
    into those arrays.  A resident session replays it query after
    query, so it is computed once per ``DistributedCSR``; one rank's
    :class:`BatchStream` on one window is built the first time a cache
    attached to *that* window replays it, and kept.  The pricing record
    (:meth:`pricing`) adds what the cost models alone derive from it.
    ``dist._replay_memo`` holds nothing else: scores belong to the graph.
    """

    def __init__(self, dist: DistributedCSR, *, tc: bool):
        vs, vbound, owner, local = dist.vs, dist.vbound, dist.owner, dist.local
        self.record = record = dist.edge_record
        degs = record.degrees[vs]  # full local-vertex degrees, rank-major
        # ``start_of[v]``: where adj(v) begins in its owner's window part,
        # read off the owner's rebased offsets (at ``vbound[r] + r`` on).
        start_of = dist.offsets[vbound[owner] + owner + local]

        self.positions = pos = _edge_positions(dist, record, degs, tc)
        dst, lb = ((record.dst, record.lb) if pos is None
                   else (record.dst[pos], record.lb[pos]))
        e_degs = record.upper_degrees[vs] if tc else degs
        self.table = table = SlotTable(e_degs, vbound)

        owners = owner[dst]
        self.remote = remote = owners != np.repeat(owner[vs], e_degs)
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
        """:func:`_price_once` on this static's record."""
        return _price_once(self._priced, key, price)

    def _kernel_times(self, omp: OpenMPModel, method: str) -> np.ndarray:
        """The record's kernel times of this kernel's edges, rank-major."""
        kern = self.record.kernel_times(omp, method)
        return kern if self.positions is None else kern[self.positions]

    def pricing(self, config: LCCConfig, omp: OpenMPModel) -> tuple:
        """``(kern, own, read, tail, comp)`` for the cluster; ``omp``
        carries ``compute``, so the comp key covers ``tail``
        (``vertex_overhead``) too.  ``comp`` holds one value per rank."""
        memory, method, overlap = config.memory, config.method, config.overlap
        kern = self.priced(("kern", omp, method),
                           partial(self._kernel_times, omp, method))
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
        if dist.edge_record is None:  # this graph version's first replay
            dist.edge_record = EdgeRecord(dist.graph)
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
        results=_segment_sums(per_vertex[dist.vs], dist.vbound).tolist())
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
