"""The CLaMPI cache proper.

One :class:`ClampiCache` instance sits between one initiating rank and one
RMA window (Figure 3 of the paper: MPI_Gets are intercepted, looked up in
the cache, and only on a miss does the remote access happen, after which
the retrieved data is stored).

Keyed by ``(target_rank, offset, count)``, entries hold the fetched bytes;
the index is a bounded-probing hash table and the data lives in a bounded
buffer managed by a best-fit allocator (sorted free list).  Replayed
streams go through :meth:`ClampiCache.access_batch`, whose hit runs (warm)
and fill runs (cold, on a one-extent free list) are array operations on
key and metadata columns indexed by each entry's live-table row.  Evictions are
driven by a :class:`~repro.clampi.scores.ScorePolicy`; victim candidates
are drawn with deterministic sampling (a standard approximation of
global-minimum-score selection that keeps eviction O(sample) — exact
selection is used inside hash probe windows, where the candidate set is
already small).  Either way the victim and its score come from one
:meth:`~repro.clampi.scores.ScorePolicy.pick` call over the candidates;
the per-entry ``victim_score`` is the oracle ``pick`` must agree with.

The cache also *prices* itself: every lookup/insert/eviction charges
management overhead, which is how the paper's "CLaMPI's overhead leads to
worse performance than the non-cached version" regime (high compulsory
misses, Section IV-D2 scenario 2) emerges in our simulation.
"""

from __future__ import annotations

import enum
import heapq
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.clampi.allocator import BufferAllocator
from repro.clampi.hashtable import HashIndex
from repro.clampi.scores import DefaultScorePolicy, ScorePolicy
from repro.clampi.stats import CacheStats
from repro.obs.trace import span as obs_span
from repro.runtime.network import MemoryModel, NetworkModel
from repro.runtime.window import Window
from repro.utils.errors import CacheError
from repro.utils.rng import derive_seed, randrange_draws
from repro.utils.units import NS

#: Sentinel appended to the batch event log when the whole cache was
#: emptied mid-batch (flush / adaptive resize), as opposed to a removal,
#: whose event is ``(key, -1)``, or a row move, ``(key, new_row)``.
_CLEARED = object()


class ConsistencyMode(enum.Enum):
    """CLaMPI's three consistency modes (paper Section II-F)."""

    TRANSPARENT = "transparent"    # flush at every epoch closure
    ALWAYS_CACHE = "always_cache"  # data is read-only; never flush
    USER_DEFINED = "user_defined"  # application calls flush() explicitly


#: Application-score callback: ``(target, offset, count, data) -> score``.
AppScoreFn = Callable[[int, int, int, np.ndarray], float]


@dataclass
class ClampiConfig:
    """Tuning knobs of one cache instance.

    ``capacity_bytes`` and ``nslots`` are the two parameters the paper's
    Section III-B1 is about; ``score_policy`` switches between stock CLaMPI
    and the degree-centrality extension; the ``*_overhead`` constants price
    cache management (they are what makes caching non-free).
    """

    capacity_bytes: int
    nslots: int = 1024
    probe_limit: int = 8
    mode: ConsistencyMode = ConsistencyMode.ALWAYS_CACHE
    score_policy: ScorePolicy = field(default_factory=DefaultScorePolicy)
    app_score_fn: Optional[AppScoreFn] = None
    eviction_sample: int = 16
    max_evictions_per_insert: int = 64
    lookup_overhead: float = 150 * NS
    insert_overhead: float = 250 * NS
    eviction_overhead: float = 200 * NS
    seed: int = 0x5EED
    adaptive: "AdaptiveConfig | None" = None  # resolved lazily to avoid cycle

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise CacheError(f"capacity_bytes must be > 0, got {self.capacity_bytes}")
        if self.nslots <= 0:
            raise CacheError(f"nslots must be > 0, got {self.nslots}")
        if self.probe_limit <= 0:
            raise CacheError(f"probe_limit must be > 0, got {self.probe_limit}")
        if self.eviction_sample <= 0:
            raise CacheError("eviction_sample must be > 0")
        if self.max_evictions_per_insert < 0:
            raise CacheError("max_evictions_per_insert must be >= 0, got "
                             f"{self.max_evictions_per_insert}")
        # A negative (or NaN) charge would make a get cost less than nothing.
        for name in ("lookup_overhead", "insert_overhead",
                     "eviction_overhead"):
            if not getattr(self, name) >= 0:
                raise CacheError(f"{name} must be >= 0, got "
                                 f"{getattr(self, name)}")
        if self.score_policy.uses_app_score and self.app_score_fn is None:
            raise CacheError(
                "an application-score policy needs app_score_fn to supply scores"
            )


def _key_columns(keys) -> np.ndarray:
    """``keys`` as ``(k, 3)`` int64 key columns; CacheError on any other shape.

    An empty sequence is the empty key set.
    """
    try:
        cols = np.asarray(keys)
    except ValueError as exc:  # ragged rows
        raise CacheError(f"cache keys must be (k, 3) integer columns: {exc}"
                         ) from None
    if cols.shape == (0,):
        cols = cols.reshape(0, 3)
    if (cols.ndim != 2 or cols.shape[1] != 3
            or (cols.size and cols.dtype.kind not in "iu")):
        raise CacheError("cache keys must be (k, 3) integer columns, got "
                         f"shape {cols.shape} of {cols.dtype}")
    return cols.astype(np.int64, copy=False)


def _pack_keys(cols: np.ndarray) -> np.ndarray:
    """One mixed-radix integer per key column of the ``(3, n)`` ``cols``.

    Order-preserving (lexicographic on target, offset, count) and
    injective over these keys, so sorting or joining key rows is sorting
    or joining integers.
    """
    lo = cols.min(axis=1)
    span = (cols.max(axis=1) - lo + 1).tolist()
    if span[0] * span[1] * span[2] >= 1 << 63:
        raise CacheError("batch stream keys do not pack into 63 bits")
    return (((cols[0] - lo[0]) * span[1] + (cols[1] - lo[1])) * span[2]
            + (cols[2] - lo[2]))


class BatchStream:
    """A precomputed access stream for :meth:`ClampiCache.access_batch`.

    Bundles the ``(targets, offsets, counts)`` arrays with their
    deduplicated key table, inverse mapping, each position's previous
    occurrence of its key and the (lazily built) occurrence index, so
    replay engines that push the same stream through a cache query after
    query — a resident :class:`~repro.session.Session` cluster — pay the
    ``O(m log m)`` preprocessing once.  The pattern is immutable and
    cache-agnostic: the same instance may be replayed through any number
    of caches.  Its per-position hit costs (:meth:`hit_costs`) are kept
    for the last cost model that asked; a cache under another one
    reprices them.
    """

    __slots__ = ("targets", "offsets", "counts", "m", "uniq", "inv", "prev",
                 "_occ", "_key2uid", "_hit_costs")

    def __init__(self, targets: np.ndarray, offsets: np.ndarray,
                 counts: np.ndarray):
        cols = [np.asarray(col) for col in (targets, offsets, counts)]
        # A cast would truncate 1.9 to 1; scalar ``access`` refuses floats.
        if any(col.size and col.dtype.kind not in "iu" for col in cols):
            raise CacheError("a batch stream needs integer columns, got "
                             + ", ".join(str(col.dtype) for col in cols))
        self.targets, self.offsets, self.counts = (
            np.ascontiguousarray(col, dtype=np.int64) for col in cols)
        if not (self.targets.shape == self.offsets.shape == self.counts.shape
                and self.targets.ndim == 1):
            raise CacheError("a batch stream needs three equal-length "
                             "1-D arrays")
        self.m = m = self.targets.shape[0]
        self.uniq = np.zeros((0, 3), dtype=np.int64)
        self.inv = np.zeros(m, dtype=np.int64)
        #: Position of the same key's previous get (-1: none), so "first
        #: occurrence at or after p" is ``prev[p:] < p`` for any p.  Kept
        #: for the stream's lifetime, hence the narrow dtype.
        self.prev = np.full(m, -1, dtype=np.int32)
        if m:
            # One stable sort of the packed keys groups equal keys with
            # their positions ascending: unique rows, inverse and prev.
            cols = np.stack([self.targets, self.offsets, self.counts])
            packed = _pack_keys(cols)
            order = np.argsort(packed, kind="stable")
            ranked = packed[order]
            new = np.ones(m, dtype=bool)
            new[1:] = ranked[1:] != ranked[:-1]
            self.uniq = np.ascontiguousarray(cols[:, order[new]].T)
            self.inv[order] = np.cumsum(new) - 1
            self.prev[order[~new]] = order[:-1][~new[1:]]
        self._occ = None
        self._key2uid = None
        self._hit_costs: tuple | None = None

    def hit_costs(self, itemsize: int, memory: MemoryModel,
                  lookup_overhead: float) -> tuple[np.ndarray, np.ndarray]:
        """``(hit_dur, nbytes_pref)``: each position's duration as a hit
        and the bytes before it.  A hit's cost reads its key and the cost
        model, never cache state: priced once per model (the memo key)."""
        key = (itemsize, memory.cache_hit_latency, memory.cache_bandwidth,
               lookup_overhead)
        if self._hit_costs is None or self._hit_costs[0] != key:
            nbytes = self.counts * itemsize
            service = memory.cache_hit_latency + nbytes / memory.cache_bandwidth
            nbytes_pref = np.zeros(self.m + 1, dtype=np.int64)
            np.cumsum(nbytes, out=nbytes_pref[1:])
            self._hit_costs = (key, lookup_overhead + service, nbytes_pref)
        return self._hit_costs[1:]

    def occurrence_index(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, starts)``: positions grouped by unique key."""
        if self._occ is None:
            order = np.argsort(self.inv, kind="stable")
            starts = np.searchsorted(self.inv[order],
                                     np.arange(self.uniq.shape[0] + 1))
            self._occ = (order, starts)
        return self._occ

    def key_to_uid(self) -> dict[tuple, int]:
        """Key tuple -> row in :attr:`uniq` (built on first use)."""
        if self._key2uid is None:
            self._key2uid = {tuple(row): i
                             for i, row in enumerate(self.uniq.tolist())}
        return self._key2uid


class CacheEntry:
    """One cached get result; ``slot`` is its row in the owning cache's
    live table while it is live (see :class:`ClampiCache`)."""

    __slots__ = ("key", "data", "buffer_offset", "nbytes", "last_access",
                 "n_accesses", "app_score", "slot")

    def __init__(self, key: tuple, data: np.ndarray, buffer_offset: int,
                 nbytes: int, clock: int, app_score: float | None):
        self.key = key
        self.data = data
        self.buffer_offset = buffer_offset
        self.nbytes = nbytes
        self.last_access = clock
        self.n_accesses = 1
        self.app_score = app_score
        self.slot = -1


class ClampiCache:
    """Per-(rank, window) RMA cache implementing the CLaMPI design.

    Beside the hash index and the allocator sits one *live table*, touched
    only by ``_attach``/``_detach``/``_clear``: row ``i`` is the entry
    ``_entries[i]`` (whose ``slot`` is ``i``), its key ``_mirror[i]`` and
    its pending hit metadata ``_pend_n[i]``/``_pend_last[i]``.  Victim
    sampling indexes the rows; an attach appends one; a removal is a
    swap-pop that moves the last row into the freed one.  Rows are what
    :meth:`access_batch` works on instead of objects: a stream's unique
    keys are joined against ``_mirror[:len(_entries)]`` once per key-set
    epoch — the per-stream memo keeps that row array, never an entry — and
    hit runs past ``_SMALL_RUN`` leave their counts and last clocks in the
    pending columns.  Metadata is write-mostly, so it *settles* into
    ``CacheEntry.n_accesses`` / ``last_access`` only for the candidates a
    victim selection is about to score, for an entry being detached or
    moved and wholesale in :meth:`entries` / :meth:`check_invariants`;
    scalar hits and short runs write the object directly.
    """

    def __init__(
        self,
        window: Window,
        rank: int,
        config: ClampiConfig,
        *,
        network: NetworkModel | None = None,
        memory: MemoryModel | None = None,
    ):
        self.window = window
        self.rank = rank
        self.config = config
        self.network = network or NetworkModel.aries()
        self.memory = memory or MemoryModel()
        self.stats = CacheStats()
        self._clock = 0  # logical access clock (drives recency)
        self._seen: set[tuple] = set()  # for compulsory-miss classification
        # Victim sampling gets a private, reproducibly-derived stream so
        # identical configs evict identically across process runs.
        self._rng = random.Random(derive_seed(config.seed, "clampi-evict", rank))
        # The live table's rows (class docstring).
        self._entries: list[CacheEntry] = []
        self._mirror = np.empty((64, 3), dtype=np.int64)
        self._pend_n = np.zeros(64, dtype=np.int64)
        self._pend_last = np.zeros(64, dtype=np.int64)
        self._pending = False  # False: every _pend_n row is zero
        self._batch_events: list | None = None  # armed during access_batch
        # Batch-replay memo: id(stream) -> (epoch, uniq, rows), valid while
        # no insert/evict/flush changed the key set (_state_epoch).
        self._state_epoch = 0
        self._batch_memo: dict[int, tuple] = {}
        #: Which path ``access_batch`` took, bumped once per run (a debugging
        #: aid outside ``stats``): vectorised hit runs and fill runs, the
        #: entries fill runs inserted, misses served by scalar ``access``
        #: (so ``filled_entries + scalar_fallbacks`` is the batches' misses)
        #: and the batches whose eviction-dense rest went to a scalar loop.
        self.run_counts = {"hit_runs": 0, "fill_runs": 0,
                           "filled_entries": 0, "scalar_fallbacks": 0,
                           "scalar_loops": 0}
        self.allocator = BufferAllocator(config.capacity_bytes)
        self.index = HashIndex(config.nslots, config.probe_limit)
        self._tuner = None
        if config.adaptive is not None:
            from repro.clampi.adaptive import AdaptiveTuner

            self._tuner = AdaptiveTuner(config.adaptive)

    # -- CacheProtocol -----------------------------------------------------------
    def access(self, target: int, offset: int, count: int
               ) -> tuple[np.ndarray, float, bool]:
        """Serve a get through the cache.

        Returns ``(data, duration_seconds, hit)``.  Exact-match semantics:
        a cached ``(target, offset, count)`` triple only serves an identical
        request, as in CLaMPI (no partial-range reuse).
        """
        self._clock += 1
        cfg = self.config
        duration = cfg.lookup_overhead
        self.stats.mgmt_time += cfg.lookup_overhead
        key = (target, offset, count)
        entry: CacheEntry | None = self.index.lookup(key)

        if entry is not None:
            entry.last_access = self._clock
            entry.n_accesses += 1
            duration += self.memory.cache_service_time(entry.nbytes)
            self.stats.hits += 1
            self.stats.bytes_served_from_cache += entry.nbytes
            return entry.data, duration, True

        # Miss: fetch over the network.
        self.stats.misses += 1
        if key not in self._seen:
            self.stats.compulsory_misses += 1
            self._seen.add(key)
        data = self.window.read(self.rank, target, offset, count)
        nbytes = data.nbytes
        duration += self.network.get_time(nbytes)
        self.stats.bytes_fetched += nbytes

        duration += self._try_insert(key, data, nbytes)

        if self._tuner is not None:
            duration += self._tuner.observe(self)

        return data, duration, False

    def on_epoch_close(self) -> None:
        """Epoch-closure hook: transparent mode flushes (paper Section II-F)."""
        if self.config.mode is ConsistencyMode.TRANSPARENT:
            self.flush()

    # -- batched access ------------------------------------------------------------
    def access_batch(self, targets: np.ndarray | None = None,
                     offsets: np.ndarray | None = None,
                     counts: np.ndarray | None = None, *,
                     stream: BatchStream | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Serve a whole get stream; returns ``(durations, hits)`` arrays.

        Semantically identical to calling :meth:`access` once per element —
        every hit/miss verdict, duration, statistic, eviction decision and
        entry-metadata update comes out bit-identical — but runs of
        consecutive hits are resolved with NumPy lookups against the
        mirrored array-backed key index, stretches of clean misses by
        :meth:`_fill_run`, and only what those cannot serve (a miss that
        evicts, meets a hash conflict or is not cacheable, with its
        insert/evict/resize side effects) falls back to the scalar path.
        The cached payloads are not materialized: replay callers only need
        timing and verdicts, the data stays in the cache.

        Runs of hits are safe to vectorize because a hit never changes
        cache *membership*: between two misses the key set is frozen, so
        one membership query decides every access in the run.  Each scalar
        miss logs the evictions/flushes it caused and the predictions for
        the remaining stream are patched incrementally.  Once the batch's
        evictions are dense (:attr:`_DENSE_MIN`), that machinery cannot
        win: the rest of the batch is a plain loop over :meth:`access`.
        ``run_counts`` records which path served what.

        Pass a prebuilt :class:`BatchStream` via ``stream`` to amortize
        the stream preprocessing across repeated replays of the same
        access pattern (how warm resident-session queries run).
        """
        if stream is None:
            stream = BatchStream(targets, offsets, counts)
        m = stream.m
        targets, offsets, counts = stream.targets, stream.offsets, stream.counts
        durations = np.empty(m, dtype=np.float64)
        hits = np.zeros(m, dtype=bool)
        if m == 0:
            return durations, hits
        if self._batch_events is not None:
            raise CacheError("access_batch is not reentrant")

        inv = stream.inv
        # Each unique key's row survives across replays of the same stream
        # while the key set is unchanged (warm resident queries).  Patched in
        # place below: rows only change together with the epoch.
        memo = self._batch_memo.get(id(stream))
        if (memo is not None and memo[0] == self._state_epoch
                and memo[1] is stream.uniq):
            slots = memo[2]
        else:
            slots = self._join_slots(stream.uniq)

        hit_dur, nbytes_pref = stream.hit_costs(
            self.window.itemsize, self.memory, self.config.lookup_overhead)

        # Candidate miss positions: the initially-predicted ones (sorted)
        # plus positions re-flagged after evictions, merged via a heap.
        init_miss = np.flatnonzero(slots[inv] < 0)
        ptr = 0
        heap: list[int] = []
        key2uid: dict[tuple, int] | None = None
        cur = 0

        def pop_candidate() -> int | None:
            nonlocal ptr
            while True:
                a = int(init_miss[ptr]) if ptr < init_miss.shape[0] else None
                b = heap[0] if heap else None
                if a is None and b is None:
                    return None
                if b is None or (a is not None and a <= b):
                    ptr += 1
                    c = a
                else:
                    c = heapq.heappop(heap)
                if c >= cur:
                    return c

        def push_next(uid: int, after: int) -> None:
            """Queue the next occurrence of ``uid`` past ``after`` as a miss."""
            occ_order, occ_starts = stream.occurrence_index()
            positions = occ_order[occ_starts[uid]:occ_starts[uid + 1]].tolist()
            j = bisect_right(positions, after)
            if j < len(positions):
                heapq.heappush(heap, positions[j])

        # A tuner may resize (replace the allocator) at any miss: no runs.
        free_extent = (self.allocator.single_free_extent
                       if self._tuner is None else None)
        hit_runs = scalar_fallbacks = 0
        stats = self.stats
        evicted0 = stats.capacity_evictions + stats.conflict_evictions
        events: list = []
        self._batch_events = events
        try:
            while True:
                p = pop_candidate()
                while p is not None and slots[inv[p]] >= 0:
                    p = pop_candidate()  # key reinserted since prediction
                stop = m if p is None else p
                if stop > cur:
                    self._apply_hit_run(slots[inv[cur:stop]], cur, stop,
                                        durations, hit_dur, nbytes_pref)
                    hits[cur:stop] = True
                    hit_runs += 1
                if p is None:
                    # Drop memos a newer epoch made useless (they would
                    # never validate again) and bound the table against
                    # a cache replaying many one-off streams.
                    epoch = self._state_epoch
                    memos = {k: v for k, v in self._batch_memo.items()
                             if v[0] == epoch}
                    if len(memos) >= 16:
                        memos.clear()
                    memos[id(stream)] = (epoch, stream.uniq, slots)
                    self._batch_memo = memos
                    return durations, hits
                if m - p >= self._MIN_FILL_RUN and free_extent is not None:
                    extent = free_extent()
                    if extent is not None:
                        cur = self._fill_run(stream, slots, p, extent,
                                             durations, hits, hit_dur,
                                             nbytes_pref)
                        if cur > p:
                            ptr = int(np.searchsorted(init_miss, cur))
                            continue
                evicted = (stats.capacity_evictions + stats.conflict_evictions
                           - evicted0)
                if evicted >= self._DENSE_MIN and evicted * self._DENSE_MISS >= p:
                    # Eviction-dense: the rest is the oracle loop, whose
                    # evictions nothing patches and whose slots go stale.
                    self._batch_events = None
                    self._batch_memo.pop(id(stream), None)
                    self.run_counts["scalar_loops"] += 1
                    access, dts, verdicts = self.access, [], []
                    for key in zip(targets[p:].tolist(), offsets[p:].tolist(),
                                   counts[p:].tolist()):
                        _, dt, was_hit = access(*key)
                        dts.append(dt)
                        verdicts.append(was_hit)
                    durations[p:] = dts
                    hits[p:] = verdicts
                    scalar_fallbacks += verdicts.count(False)
                    return durations, hits
                scalar_fallbacks += 1
                key = (int(targets[p]), int(offsets[p]), int(counts[p]))
                _, dt, was_hit = self.access(*key)
                if was_hit:  # pragma: no cover - mirror invariant
                    raise CacheError("access_batch: key index mirror diverged")
                durations[p] = dt
                if events:
                    for ev in events:
                        if ev is _CLEARED:
                            # Flush/resize: every later access is a
                            # candidate miss again.
                            slots[:] = -1
                            init_miss = np.arange(p + 1, m, dtype=np.int64)
                            ptr = 0
                            heap.clear()
                        else:
                            if key2uid is None:
                                key2uid = stream.key_to_uid()
                            uid = key2uid.get(ev[0])
                            if uid is None:
                                continue
                            if ev[1] >= 0:
                                slots[uid] = ev[1]  # moved by a swap-pop
                            elif slots[uid] >= 0:
                                slots[uid] = -1
                                push_next(uid, p)
                    events.clear()
                u = int(inv[p])
                # An insert appends, so it is the last row if it happened.
                entries = self._entries
                if entries and entries[-1].key == key:
                    slots[u] = len(entries) - 1
                else:
                    push_next(u, p)  # insert failed: later uses still miss
                cur = p + 1
        finally:
            self._batch_events = None
            self.run_counts["hit_runs"] += hit_runs
            self.run_counts["scalar_fallbacks"] += scalar_fallbacks

    #: When a batch hands its rest to scalar ``access``: its evictions so
    #: far number at least ``_DENSE_MIN`` and one per ``_DENSE_MISS``
    #: positions served.  Measured per batch (NumPy 2.4, kernel1d_pressure):
    #: a scalar miss costs ~17 us inside the batch machinery (hit-run
    #: slicing, the candidate heap, the occurrence bisects, event patching)
    #: and ~12 us in the loop, a hit ~0.2 us in a hit run and ~0.6 us
    #: through ``access``; at an eviction per four gets the loop wins.  No
    #: other ledger workload's batch gets this dense.
    _DENSE_MIN = 8
    _DENSE_MISS = 4

    def _join_slots(self, uniq: np.ndarray) -> np.ndarray:
        """Live-table row of each unique key row (-1 = absent): one join.

        ``uniq`` is duplicate-free and lexicographically sorted, so packing
        the key columns (:func:`_pack_keys`) keeps it sorted and every
        mirror row finds its match with a single ``searchsorted``.
        """
        n = uniq.shape[0]
        slots = np.full(n, -1, dtype=np.int64)
        live = self._mirror[:len(self._entries)]
        if not (n and live.shape[0]):
            return slots
        packed = _pack_keys(np.concatenate([uniq.T, live.T], axis=1))
        at = np.searchsorted(packed[:n], packed[n:])
        at[at == n] = 0
        found = packed[at] == packed[n:]
        slots[at[found]] = np.flatnonzero(found)
        return slots

    #: Measured crossover (NumPy 2.4): a plain loop over the entry objects
    #: costs ~1.5 us + 0.09 us/hit, the array writes ~6 us + 0.01 us/hit.
    _SMALL_RUN = 64

    def _apply_hit_run(self, run: np.ndarray, start: int, stop: int,
                       durations: np.ndarray, hit_dur: np.ndarray,
                       nbytes_pref: np.ndarray) -> None:
        """Apply consecutive hits on the entries in rows ``run``, O(k)."""
        k = stop - start
        cfg = self.config
        durations[start:stop] = hit_dur[start:stop]
        self.stats.hits += k
        self.stats.bytes_served_from_cache += int(nbytes_pref[stop]
                                                  - nbytes_pref[start])
        c0 = self._clock
        self._clock = c0 + k
        if k <= self._SMALL_RUN:
            # mgmt_time: k sequential `+= lookup_overhead` additions.
            mgmt = self.stats.mgmt_time
            overhead = cfg.lookup_overhead
            entries = self._entries
            for clock, row in enumerate(run.tolist(), c0 + 1):
                mgmt += overhead
                entry = entries[row]
                entry.n_accesses += 1
                entry.last_access = clock
            self.stats.mgmt_time = mgmt
            return
        self._charge(cfg.lookup_overhead, k)
        self._defer_hits(run, np.arange(c0 + 1, c0 + 1 + k))

    def _defer_hits(self, run: np.ndarray, clocks: np.ndarray) -> None:
        """Leave hits on rows ``run`` (at ascending ``clocks``) to _settle.

        Write-mostly metadata stays in the pending columns until then: a
        repeated row counts every hit and keeps its last (largest) clock.
        """
        np.add.at(self._pend_n, run, 1)
        self._pend_last[run] = clocks
        self._pending = True

    #: Shortest stretch worth a fill run, and the longest one run looks
    #: ahead.  Measured (NumPy 2.4): a run costs ~65 us of array set-up and
    #: ~1.3 us per miss, scalar ``access`` ~5.5 us per clean miss — even at
    #: ~14 accesses when all miss, ~42 at one miss in four.  The minimum is
    #: compared first, so the 2D kernels' <= 4-get streams leave on one
    #: comparison; the window bounds what a run that ends early has wasted
    #: (a stream that keeps ending runs would otherwise cost O(m) each).
    _MIN_FILL_RUN = 32
    _FILL_WINDOW = 2048

    def _fill_run(self, stream: BatchStream, slots: np.ndarray, p: int,
                  extent: tuple[int, int], durations: np.ndarray,
                  hits: np.ndarray, hit_dur: np.ndarray,
                  nbytes_pref: np.ndarray) -> int:
        """Resolve the stretch from candidate miss ``p`` as array work.

        While the allocator holds one free ``extent``, best fit is a bump
        pointer and a miss that neither evicts nor meets a hash conflict
        changes nothing a later access depends on: from ``p`` on, the first
        occurrence of every absent key is a miss placed at the extent's
        front, every other access a hit — on a resident entry or on one
        this run inserted.  Returns the first position that state cannot
        serve (an uncacheable size, the extent overflowing, a full probe
        window, a get the window refuses), left to scalar :meth:`access`,
        or the end of the look-ahead window; ``p`` itself when no run
        forms.  Bit-identical to the scalar path.
        """
        # O(1) gates, or a nearly full cache would set up a run per miss:
        # the extent must hold the shortest run even if all of it missed,
        # and the first key's probe window must have room.
        index = self.index
        if (nbytes_pref[p + self._MIN_FILL_RUN] - nbytes_pref[p] > extent[1]
                or len(index.probe_window(
                    (int(stream.targets[p]), int(stream.offsets[p]),
                     int(stream.counts[p])))) == index.probe_limit):
            return p
        cfg, stats = self.config, self.stats
        hi = min(stream.m, p + self._FILL_WINDOW)
        uids = stream.inv[p:hi]
        miss = (slots[uids] < 0) & (stream.prev[p:hi] < p)
        rel = np.flatnonzero(miss)          # run-relative miss positions
        sizes = stream.counts[p:hi][rel] * self.window.itemsize
        ends = np.cumsum(sizes)
        unfit = (sizes <= 0) | (ends > extent[1])
        k = int(unfit.argmax()) if unfit.any() else rel.shape[0]
        at = rel[:k] + p
        key_cols = stream.targets[at], stream.offsets[at], stream.counts[at]
        k = self.window.servable(self.rank, *key_cols)

        # What stays per entry: the object and its index placement.  The
        # run appends rows n0 .. n0 + k - 1, as `_attach` would one by one.
        c0, n0 = self._clock, len(self._entries)
        place, score_fn = index.place, cfg.app_score_fn
        keys = list(zip(*(col[:k].tolist() for col in key_cols)))
        copy_out = self.window.copy_out
        made: list[CacheEntry] = []
        try:
            for key, end, nbytes, clock, row in zip(
                    keys, (extent[0] + ends[:k]).tolist(),
                    sizes[:k].tolist(), (c0 + 1 + rel[:k]).tolist(),
                    range(n0, n0 + k)):
                entry = CacheEntry(key, None, end - nbytes, nbytes, clock,
                                   None)
                if not place(key, entry):
                    break  # full probe window: the scalar path's to resolve
                made.append(entry)
                # Only a placed entry's payload is copied.
                entry.data = data = copy_out(*key)
                if score_fn is not None:
                    entry.app_score = float(score_fn(*key, data))
                entry.slot = row
        except BaseException:
            # Fail closed, as the scalar path does: nothing else has changed
            # yet, and unplacing newest-first restores the index's layout.
            for entry in reversed(made):
                index.remove(entry.key)
            raise
        k = len(made)
        if k == 0:
            return p
        n = int(rel[k]) if k < rel.shape[0] else hi - p
        q = p + n
        del keys[k:]
        rel, sizes, fetched = rel[:k], sizes[:k], int(ends[k - 1])
        self.allocator.take_front(sizes.tolist())
        self._entries += made
        while n0 + k > self._pend_n.shape[0]:
            self._grow_slot_arrays()
        slots[uids[rel]] = np.arange(n0, n0 + k)
        self._mirror[n0:n0 + k] = np.stack(key_cols, axis=1)[:k]
        seen_before = len(self._seen)
        self._seen.update(keys)
        stats.compulsory_misses += len(self._seen) - seen_before
        self._state_epoch += k
        self._clock = c0 + n

        hits[p:q] = ~miss[:n]
        durations[p:q] = hit_dur[p:q]
        durations[at[:k]] = ((cfg.lookup_overhead
                              + self.network.get_times(sizes))
                             + cfg.insert_overhead)
        # mgmt_time: `+= lookup` per access and `+= insert` right after each
        # miss, as one strict left-to-right fold (see _apply_hit_run).
        fold = np.full(1 + n + k, cfg.lookup_overhead)
        fold[0] = stats.mgmt_time
        fold[rel + np.arange(2, k + 2)] = cfg.insert_overhead
        stats.mgmt_time = float(np.cumsum(fold)[-1])
        stats.misses += k
        stats.bytes_fetched += fetched
        stats.hits += n - k
        stats.bytes_served_from_cache += int(nbytes_pref[q]
                                             - nbytes_pref[p]) - fetched
        if n > k:
            at_hits = np.flatnonzero(hits[p:q])
            self._defer_hits(slots[uids[at_hits]], c0 + 1 + at_hits)
        self.run_counts["fill_runs"] += 1
        self.run_counts["filled_entries"] += k
        return q

    def _settle(self, entries: Iterable[CacheEntry]) -> None:
        """Fold pending hit-run metadata into these live entries' objects."""
        pend_n, pend_last = self._pend_n, self._pend_last
        for entry in entries:
            slot = entry.slot
            n = int(pend_n[slot])
            if n:
                pend_n[slot] = 0
                entry.n_accesses += n
                # Scalar hits write the object directly, so it may be ahead.
                entry.last_access = max(entry.last_access,
                                        int(pend_last[slot]))

    # -- insertion & eviction ------------------------------------------------------
    def _prospective_score(self, key: tuple, app_score: float | None) -> float:
        """Score the candidate entry *as if* freshly inserted (for guards)."""
        probe = CacheEntry(key, np.empty(0), 0, 0, self._clock, app_score)
        return self.config.score_policy.pick((probe,), self.allocator,
                                             self._clock)[1]

    def _try_insert(self, key: tuple, data: np.ndarray, nbytes: int) -> float:
        """Attempt to cache a fetched entry; returns management time spent."""
        cfg = self.config
        t = cfg.insert_overhead
        self.stats.mgmt_time += cfg.insert_overhead
        if nbytes <= 0 or nbytes > cfg.capacity_bytes:
            self.stats.insert_failures += 1
            return t

        app_score: float | None = None
        if cfg.app_score_fn is not None:
            app_score = float(cfg.app_score_fn(*key, data))
        guard = cfg.score_policy.uses_app_score
        new_score = self._prospective_score(key, app_score) if guard else None

        # 1. Buffer space (capacity evictions).
        allocator = self.allocator
        buf_off = allocator.alloc(nbytes)
        evictions = 0
        while buf_off is None:
            if evictions >= cfg.max_evictions_per_insert:
                self.stats.insert_failures += 1
                return t
            if not self._entries:
                self.stats.insert_failures += 1
                return t
            victim, victim_score = self._sample_victim()
            if guard and victim_score > new_score:
                # Everything sampled is more valuable than the newcomer:
                # do not cache (protects high-degree entries, paper III-B2).
                self.stats.insert_failures += 1
                return t
            self._remove_entry(victim)
            self.stats.capacity_evictions += 1
            t += cfg.eviction_overhead
            self.stats.mgmt_time += cfg.eviction_overhead
            evictions += 1
            buf_off = allocator.alloc(nbytes)

        entry = CacheEntry(key, data, buf_off, nbytes, self._clock, app_score)

        # 2. Hash slot (conflict evictions inside the probe window).
        if not self._attach(entry):
            self.stats.hash_conflicts += 1
            window_entries = [e for _, e in self.index.probe_window(key)]
            if not window_entries:
                # Pathological (probe window empty yet insert failed).
                allocator.free(buf_off)
                self.stats.insert_failures += 1
                return t  # pragma: no cover - defensive
            victim, victim_score = self._lowest_score(window_entries)
            if guard and victim_score > new_score:
                allocator.free(buf_off)
                self.stats.insert_failures += 1
                return t
            self._remove_entry(victim)
            self.stats.conflict_evictions += 1
            t += cfg.eviction_overhead
            self.stats.mgmt_time += cfg.eviction_overhead
            if not self._attach(entry):  # pragma: no cover - defensive
                allocator.free(buf_off)
                self.stats.insert_failures += 1
        return t

    def _lowest_score(self, candidates: list[CacheEntry]
                      ) -> tuple[CacheEntry, float]:
        """The first lowest-score entry of a non-empty candidate list and
        its score: one :meth:`ScorePolicy.pick` call on settled metadata."""
        if self._pending:
            self._settle(candidates)
        return self.config.score_policy.pick(candidates, self.allocator,
                                             self._clock)

    def _sample_victim(self) -> tuple[CacheEntry, float]:
        """The lowest-score entry of a deterministic random sample of the
        non-empty live table, and its score."""
        candidates = self._entries
        n = len(candidates)
        if self.config.eviction_sample < n:
            candidates = [candidates[i] for i in randrange_draws(
                self._rng, n, self.config.eviction_sample)]
        return self._lowest_score(candidates)

    # -- the live table ------------------------------------------------------------
    def _attach(self, entry: CacheEntry) -> bool:
        """Index ``entry`` under its key and append its live-table row.

        False (nothing changed) when the key's probe window is full.
        """
        key = entry.key
        if not self.index.insert(key, entry):
            return False
        row = entry.slot = len(self._entries)
        if row == self._pend_n.shape[0]:
            self._grow_slot_arrays()
        self._mirror[row] = key
        self._entries.append(entry)
        self._state_epoch += 1
        return True

    def _grow_slot_arrays(self) -> None:
        """Double the row-indexed columns; fresh rows read zero."""
        self._mirror, self._pend_n, self._pend_last = (
            np.concatenate([a, np.zeros_like(a)])
            for a in (self._mirror, self._pend_n, self._pend_last))

    def _detach(self, entries: Sequence[CacheEntry]) -> None:
        """Drop ``entries`` from index and live table, in order; their
        buffers stay allocated.

        Each removal is a swap-pop: the last row's entry, settled, moves
        into the freed row with its key mirror row (a batch logs the move
        as ``(key, new_row)``, the removal as ``(key, -1)``).  Settling the
        dropped entries first keeps a rekeyed object's metadata.
        """
        if not entries:
            return
        if self._pending:
            self._settle(entries)
        remove, live, mirror = self.index.remove, self._entries, self._mirror
        events = self._batch_events
        for entry in entries:
            remove(entry.key)
            row = entry.slot
            last = live.pop()
            if last is not entry:
                if self._pending:
                    self._settle((last,))
                live[row] = last
                last.slot = row
                mirror[row] = mirror[len(live)]
                if events is not None:
                    events.append((last.key, row))
            if events is not None:
                events.append((entry.key, -1))
        self._state_epoch += 1

    def _clear(self) -> None:
        """Empty the cache under the current geometry (counts as a flush)."""
        self.index = HashIndex(self.config.nslots, self.config.probe_limit)
        self.allocator = BufferAllocator(self.config.capacity_bytes)
        self._entries.clear()
        self._pend_n[:] = 0
        self._pending = False
        self._state_epoch += 1
        if self._batch_events is not None:
            self._batch_events.append(_CLEARED)
        self.stats.flushes += 1

    def _remove_entry(self, entry: CacheEntry) -> None:
        """Remove an entry from the live table and free its buffer (no stats)."""
        self._detach((entry,))
        self.allocator.free(entry.buffer_offset)

    # -- invalidation ---------------------------------------------------------------
    def invalidate(self, keys: np.ndarray) -> tuple[int, int]:
        """Targeted eviction: drop exactly the entries matching ``keys``.

        The dynamic-graph subsystem calls this after an edge-update batch
        with the ``(target, offset, count)`` rows whose remote data
        changed, as ``(k, 3)`` integer key columns (anything
        ``np.asarray`` reads as such), so stale entries are gone while the
        rest of the warm cache stays resident (unlike :meth:`flush`, which
        drops everything).  Rows naming no live entry, and repeats of a
        row already matched, are ignored; keys of any other shape raise
        :class:`CacheError` before the cache is touched.  The entries are
        matched in one join (:meth:`_match`) and detached in one batch, in
        row order — bit-identical to dropping them one key at a time.
        Each dropped entry is priced like an eviction
        (``eviction_overhead``) and counted in ``stats.invalidations``.
        Returns ``(entries_dropped, bytes_dropped)``.
        """
        if self._batch_events is not None:
            raise CacheError("invalidate() is not allowed during access_batch")
        keys = _key_columns(keys)
        with obs_span("invalidate", cat="cache") as sp:
            entries, _ = self._match(keys)
            self._detach(entries)
            free = self.allocator.free
            for entry in entries:
                free(entry.buffer_offset)
            dropped = len(entries)
            dropped_bytes = sum(entry.nbytes for entry in entries)
            self._charge(self.config.eviction_overhead, dropped)
            self.stats.invalidations += dropped
            self.stats.invalidated_bytes += dropped_bytes
            sp.note(dropped=dropped, bytes=dropped_bytes)
        return dropped, dropped_bytes

    def rekey(self, old: np.ndarray, new: np.ndarray) -> tuple[int, int]:
        """Remap entries whose cached bytes merely *moved* in the window.

        ``old`` and ``new`` are equally long ``(k, 3)`` key columns: row i
        moves the entry under ``old[i]`` to ``new[i]`` — the dynamic-graph
        resync computes them for adjacency lists that an update shifted
        without changing their content.  Each live ``old`` entry (matched
        at its first row whose new key differs) is re-registered under its
        new key, keeping its buffer, data and score metadata, so the
        warmth survives where plain invalidation would drop it.  Malformed
        columns raise :class:`CacheError` before the cache is touched.

        The remap is two-phase (detach every match in one batch, then
        reattach in row order) because a new key may equal *another* row's
        old key when rows slide past each other.  An entry whose new slot
        is already occupied — only possible by a positionally-retained
        entry serving identical bytes, or an earlier row moving to the
        same key — or whose probe window is full is dropped and counted as
        an invalidation instead.  Each matched entry is priced like an
        eviction.  Returns ``(entries_rekeyed, bytes_rekeyed)``.
        """
        if self._batch_events is not None:
            raise CacheError("rekey() is not allowed during access_batch")
        old, new = _key_columns(old), _key_columns(new)
        if old.shape[0] != new.shape[0]:
            raise CacheError(f"rekey needs as many new keys as old ones, got "
                             f"{old.shape[0]} old and {new.shape[0]} new")
        with obs_span("rekey", cat="cache") as sp:
            moving = np.flatnonzero((old != new).any(axis=1))
            entries, rows = self._match(old[moving])
            self._detach(entries)
            self._charge(self.config.eviction_overhead, len(entries))
            moved = moved_bytes = dropped = dropped_bytes = 0
            lookup, free = self.index.lookup, self.allocator.free
            for entry, key in zip(entries,
                                  map(tuple, new[moving[rows]].tolist())):
                entry.key = key
                if lookup(key) is None and self._attach(entry):
                    moved += 1
                    moved_bytes += entry.nbytes
                else:
                    free(entry.buffer_offset)
                    dropped += 1
                    dropped_bytes += entry.nbytes
            stats = self.stats
            stats.invalidations += dropped
            stats.invalidated_bytes += dropped_bytes
            stats.rekeys += moved
            stats.rekeyed_bytes += moved_bytes
            sp.note(moved=moved, bytes=moved_bytes)
        return moved, moved_bytes

    #: Measured crossover (NumPy 2.4): the join costs ~17 us + 0.035 us per
    #: mirror row + 0.05 us per key row, a hash lookup ~0.4 us per key row;
    #: so :meth:`_match` looks keys up below 48 rows plus one per 8 mirror
    #: rows (~70 on the serve workloads' ~200-entry caches).
    _SMALL_MATCH = 48

    def _match(self, keys: np.ndarray) -> tuple[list[CacheEntry], np.ndarray]:
        """Live entries the ``(k, 3)`` key rows name, and each one's row.

        Every entry is matched at its first row, and the matches come in
        row order.  Below the ``_SMALL_MATCH`` crossover each distinct key
        is one :meth:`HashIndex.lookup`; above it the rows are packed and
        sorted once (:func:`_pack_keys`, as :meth:`_join_slots` does) and
        every mirror row finds its key with a single ``searchsorted``.
        """
        k = keys.shape[0]
        if k < self._SMALL_MATCH + len(self._entries) // 8:
            first: dict[tuple, int] = {}
            for row, key in enumerate(map(tuple, keys.tolist())):
                first.setdefault(key, row)
            lookup = self.index.lookup
            found = [(entry, row) for key, row in first.items()
                     if (entry := lookup(key)) is not None]
            return ([entry for entry, _ in found],
                    np.array([row for _, row in found], dtype=np.int64))
        if not self._entries:
            return [], np.zeros(0, dtype=np.int64)
        live = self._mirror[:len(self._entries)]
        try:
            packed = _pack_keys(np.concatenate([keys.T, live.T], axis=1))
        except CacheError:
            # Rows outside the live keys' box cannot match; without them
            # the packing fits, as it does for the live keys alone.
            inside = np.flatnonzero(((keys >= live.min(axis=0))
                                     & (keys <= live.max(axis=0))).all(axis=1))
            entries, rows = self._match(keys[inside])
            return entries, inside[rows]
        # A stable sort puts each key's first row first among its repeats,
        # and the left ``searchsorted`` lands on it.
        order = np.argsort(packed[:k], kind="stable")
        ranked = packed[:k][order]
        at = np.searchsorted(ranked, packed[k:])
        at[at == k] = 0
        found = ranked[at] == packed[k:]
        live_rows = np.flatnonzero(found)
        rows = order[at[found]]
        by_row = np.argsort(rows)
        entries = self._entries
        return ([entries[row] for row in live_rows[by_row].tolist()],
                rows[by_row])

    def _charge(self, overhead: float, times: int) -> None:
        """``times`` sequential ``mgmt_time += overhead`` additions.

        ``cumsum`` is a strict left-to-right fold, so one call reproduces
        the scalar ``+=`` sequence bit-identically.
        """
        fold = np.empty(times + 1, dtype=np.float64)
        fold[0] = self.stats.mgmt_time
        fold[1:] = overhead
        self.stats.mgmt_time = float(np.cumsum(fold)[-1])

    # -- maintenance ---------------------------------------------------------------
    def flush(self) -> None:
        """Drop every entry (compulsory-miss history is preserved)."""
        with obs_span("flush", cat="cache", entries=len(self._entries)):
            self._clear()

    def resize(self, *, nslots: int | None = None,
               capacity_bytes: int | None = None) -> None:
        """Adaptive-tuning hook: change geometry, flushing as CLaMPI does."""
        if nslots is not None:
            if nslots <= 0:
                raise CacheError(f"nslots must be > 0, got {nslots}")
            self.config.nslots = int(nslots)
        if capacity_bytes is not None:
            if capacity_bytes <= 0:
                raise CacheError(f"capacity must be > 0, got {capacity_bytes}")
            self.config.capacity_bytes = int(capacity_bytes)
        self._clear()
        self.stats.adaptive_resizes += 1

    # -- inspection -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def used_bytes(self) -> int:
        return self.allocator.used_bytes

    def entries(self) -> list[CacheEntry]:
        """Snapshot of live entries, metadata settled (reporting / tests)."""
        if self._pending:
            self._settle(self._entries)
            self._pending = False
        return list(self._entries)

    def check_invariants(self) -> None:
        """Cross-structure consistency (exercised by property tests)."""
        self.allocator.check_invariants()
        self.index.check_invariants()
        entries = self.entries()
        n = len(entries)
        assert n == len(self.index)
        assert [entry.slot for entry in entries] == list(range(n)), \
            "an entry's slot is not its row in the live table"
        assert self._mirror[:n].tolist() == [list(e.key) for e in entries], \
            "key mirror out of step with the live table"
        assert not self._pend_n.any(), "pending metadata outlived a settle"
        for entry in entries:
            assert self.index.lookup(entry.key) is entry, \
                f"live entry not indexed under its key: {entry.key}"
            assert self.allocator.block_size(entry.buffer_offset) == entry.nbytes
        assert sum(entry.nbytes for entry in entries) == self.allocator.used_bytes
        assert n == self.allocator.n_used_blocks()
