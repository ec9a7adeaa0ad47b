"""The CLaMPI cache proper.

One :class:`ClampiCache` instance sits between one initiating rank and one
RMA window (Figure 3 of the paper: MPI_Gets are intercepted, looked up in
the cache, and only on a miss does the remote access happen, after which
the retrieved data is stored).

Keyed by ``(target_rank, offset, count)``, entries hold the fetched bytes.
As in CLaMPI, the bytes live in one buffer at the offsets of a best-fit
allocator (sorted free list), and a bounded-probing hash table maps each
key to its entry's *slot*: its row in the :class:`SlotTable`, whose
slot-indexed columns are the only storage an entry has.  Replayed streams
go through :meth:`ClampiCache.access_batch`, whose hit runs (warm) and
fill runs (cold, on a one-extent free list) are array operations on those
columns.  Evictions are driven by a
:class:`~repro.clampi.scores.ScorePolicy`; victim candidates are drawn
with deterministic sampling (a standard approximation of
global-minimum-score selection that keeps eviction O(sample) — exact
selection is used inside hash probe windows, where the candidate set is
already small).  Either way the victim and its score come from one
:meth:`~repro.clampi.scores.ScorePolicy.pick` call over the candidate
rows; the per-entry ``victim_score`` of a :class:`CacheEntry` snapshot is
the oracle ``pick`` must agree with.

The cache also *prices* itself: every lookup/insert/eviction charges
management overhead, which is how the paper's "CLaMPI's overhead leads to
worse performance than the non-cached version" regime (high compulsory
misses, Section IV-D2 scenario 2) emerges in our simulation.
"""

from __future__ import annotations

import enum
import heapq
import numbers
import operator
import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

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
        for name in _GEOMETRY:
            setattr(self, name, _geometry(name, getattr(self, name)))
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


#: The config fields that size or count something, with their minimum.
_GEOMETRY = {"capacity_bytes": 1, "nslots": 1, "probe_limit": 1,
             "eviction_sample": 1, "max_evictions_per_insert": 0}


def _geometry(name: str, value) -> int:
    """``value`` as a Python int of at least ``_GEOMETRY[name]``.

    Python and NumPy integers pass, and so does an integral float;
    4096.5, NaN, infinities, non-numbers and values below the minimum
    raise :class:`CacheError`.
    """
    try:
        value = operator.index(value)
    except TypeError:
        if not (isinstance(value, numbers.Real) and float(value).is_integer()):
            raise CacheError(f"{name} must be an integer, got {value!r}"
                             ) from None
        value = int(value)
    if value < _GEOMETRY[name]:
        raise CacheError(f"{name} must be >= {_GEOMETRY[name]}, got {value}")
    return value


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


class CacheEntry(NamedTuple):
    """A read-only snapshot of one live entry: row ``slot`` of the owning
    cache's :class:`SlotTable`, with a copy of its payload as ``data``.

    :meth:`ClampiCache.entries` returns these.  The base
    :meth:`~repro.clampi.scores.ScorePolicy.pick` scores records whose
    ``data`` is None: a victim score reads the entry's metadata only.
    """

    key: tuple
    data: np.ndarray | None
    buffer_offset: int
    nbytes: int
    last_access: int
    app_score: float | None = None
    n_accesses: int = 1
    slot: int = -1


class SlotTable:
    """The live entries as slot-indexed columns over one payload buffer.

    Row ``i`` — the entry's *slot* — is one live entry, and the columns are
    all the storage it has: ``meta[i]`` is the ``(key, offset, nbytes,
    app_score)`` tuple written once per row; ``n_accesses``,
    ``last_access`` and ``mirror`` (the keys again, three values per row)
    are int64 ``array`` columns, which append, pop and write at list speed
    and which :meth:`hit` and :meth:`key_rows` view as NumPy arrays
    without a copy.  Only this class changes the row layout: :meth:`append`
    adds a row, :meth:`swap_pop` removes one and :meth:`extend` adds a fill
    run's.  Row ``i``'s payload is ``buffer[offset:offset + nbytes]``,
    bytes of ``dtype``: one ``bytearray`` at the allocator's offsets, as
    long as the highest byte written (a block is written at the front of a
    free extent, which starts at 0 or where a written block ends), so
    never longer than the allocator's high-water mark.
    """

    __slots__ = ("meta", "n_accesses", "last_access", "mirror", "buffer",
                 "dtype")

    def __init__(self, dtype) -> None:
        self.dtype = np.dtype(dtype)
        self.meta: list[tuple] = []
        self.n_accesses, self.last_access, self.mirror = (
            array("q") for _ in range(3))
        self.buffer = bytearray()

    def __len__(self) -> int:
        return len(self.meta)

    def append(self, key: tuple, offset: int, nbytes: int,
               app_score: float | None, n_accesses: int,
               last_access: int) -> None:
        """Add one row (the order of :meth:`row`'s fields)."""
        self.meta.append((key, offset, nbytes, app_score))
        self.n_accesses.append(n_accesses)
        self.last_access.append(last_access)
        self.mirror.extend(key)

    def swap_pop(self, row: int) -> tuple | None:
        """Remove row ``row``: the last row's columns move into it.

        Returns the moved row's key, or None when ``row`` was the last.
        """
        meta, mirror = self.meta, self.mirror
        moved = meta.pop()
        n_accesses, last_access = self.n_accesses.pop(), self.last_access.pop()
        del mirror[-3:]
        if row == len(meta):
            return None
        meta[row] = moved
        self.n_accesses[row] = n_accesses
        self.last_access[row] = last_access
        key = moved[0]
        i = 3 * row
        mirror[i], mirror[i + 1], mirror[i + 2] = key
        return key

    def extend(self, keys: list[tuple], offsets: list[int],
               nbytes: list[int], app_scores: list, clocks: np.ndarray,
               key_rows: np.ndarray) -> None:
        """Add one row per key, each with one access (at ``clocks``)."""
        self.meta += zip(keys, offsets, nbytes, app_scores)
        self.n_accesses.extend([1] * len(keys))
        self.last_access.frombytes(clocks.astype(np.int64).tobytes())
        self.mirror.frombytes(key_rows.astype(np.int64).tobytes())

    def hit(self, rows: np.ndarray, clocks: np.ndarray) -> None:
        """Record hits on ``rows`` at ascending ``clocks``: a repeated row
        counts every hit and keeps its last clock."""
        np.add.at(np.frombuffer(self.n_accesses, np.int64), rows, 1)
        np.frombuffer(self.last_access, np.int64)[rows] = clocks

    def key_rows(self) -> np.ndarray:
        """The keys as an ``(n, 3)`` int64 view of ``mirror`` (drop it
        before the table changes: a view pins the array's size)."""
        return np.frombuffer(self.mirror, np.int64).reshape(-1, 3)

    def row(self, row: int) -> tuple:
        """Row ``row``'s ``(key, offset, nbytes, app_score, n_accesses,
        last_access)``, :meth:`append`'s arguments."""
        return (*self.meta[row], self.n_accesses[row], self.last_access[row])

    def write(self, offset: int, data: np.ndarray) -> None:
        """Store ``data``'s bytes at ``offset`` (at most the buffer's end)."""
        self.buffer[offset:offset + data.nbytes] = data.tobytes()

    def payload(self, row: int) -> np.ndarray:
        """A copy of row ``row``'s payload (never a view of the buffer)."""
        _, offset, nbytes, _ = self.meta[row]
        return np.frombuffer(self.buffer[offset:offset + nbytes], self.dtype)

    def record(self, row: int, payload: bool = True) -> CacheEntry:
        """Row ``row`` as a :class:`CacheEntry` snapshot (``data`` None
        without ``payload``)."""
        key, offset, nbytes, app_score, n_accesses, last_access = self.row(row)
        return CacheEntry(key, self.payload(row) if payload else None, offset,
                          nbytes, last_access, app_score, n_accesses, row)

    def clear(self) -> None:
        """Drop every row and the buffer."""
        for col in (self.meta, self.n_accesses, self.last_access,
                    self.mirror):
            del col[:]
        self.buffer = bytearray()


class ClampiCache:
    """Per-(rank, window) RMA cache implementing the CLaMPI design.

    An entry is one row of the :class:`SlotTable` ``_table``, touched only
    by ``_attach``/``_detach``/``_clear``, a fill run and the hit paths:
    the hash index maps its key to the row, the allocator places its bytes
    in the table's buffer.  Victim sampling indexes the rows; an attach
    appends one; a removal is a :meth:`SlotTable.swap_pop`, after which the
    moved key's index value is re-pointed at its new row.
    Rows are what :meth:`access_batch` works on: a stream's unique keys are
    joined against :meth:`SlotTable.key_rows` once per key-set epoch — the
    per-stream memo keeps that row array — and hit runs write the
    ``n_accesses`` / ``last_access`` columns directly.
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
        self._table = SlotTable(window.dtype)
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

        Returns ``(data, duration_seconds, hit)``; ``data`` is the caller's
        own copy.  Exact-match semantics: a cached ``(target, offset,
        count)`` triple only serves an identical request, as in CLaMPI (no
        partial-range reuse).  A get the window refuses raises its
        ``EpochError`` / ``WindowError`` before anything is counted.
        """
        key = (target, offset, count)
        row = self.index.lookup(key)
        if row is not None:
            return self._table.payload(row), self._hit(row), True

        # Miss: fetch over the network.
        cfg, stats = self.config, self.stats
        data = self.window.read(self.rank, target, offset, count)
        self._clock += 1
        stats.mgmt_time += cfg.lookup_overhead
        stats.misses += 1
        if key not in self._seen:
            stats.compulsory_misses += 1
            self._seen.add(key)
        nbytes = data.nbytes
        duration = cfg.lookup_overhead + self.network.get_time(nbytes)
        stats.bytes_fetched += nbytes

        duration += self._try_insert(key, data, nbytes)

        if self._tuner is not None:
            duration += self._tuner.observe(self)

        return data, duration, False

    def _hit(self, row: int) -> float:
        """Count a hit on row ``row``; returns the hit's duration."""
        cfg, stats, table = self.config, self.stats, self._table
        self._clock = clock = self._clock + 1
        stats.mgmt_time += cfg.lookup_overhead
        table.n_accesses[row] += 1
        table.last_access[row] = clock
        nbytes = table.meta[row][2]
        stats.hits += 1
        stats.bytes_served_from_cache += nbytes
        return cfg.lookup_overhead + self.memory.cache_service_time(nbytes)

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
        live = self._table.meta
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
                    # A hit is counted without copying its payload out; a
                    # miss is an ``access`` call (which may resize: the
                    # index is looked up afresh).
                    self._batch_events = None
                    self._batch_memo.pop(id(stream), None)
                    self.run_counts["scalar_loops"] += 1
                    hit, access = self._hit, self.access
                    dts, verdicts = [], []
                    for key in zip(targets[p:].tolist(), offsets[p:].tolist(),
                                   counts[p:].tolist()):
                        row = self.index.lookup(key)
                        if row is None:
                            dts.append(access(*key)[1])
                        else:
                            dts.append(hit(row))
                        verdicts.append(row is not None)
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
                if live and live[-1][0] == key:
                    slots[u] = len(live) - 1
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
        live = self._table.key_rows()
        if not (n and live.shape[0]):
            return slots
        packed = _pack_keys(np.concatenate([uniq.T, live.T], axis=1))
        at = np.searchsorted(packed[:n], packed[n:])
        at[at == n] = 0
        found = packed[at] == packed[n:]
        slots[at[found]] = np.flatnonzero(found)
        return slots

    #: Measured crossover (NumPy 2.4): the loop of scalar column writes
    #: costs ~1.9 us + 0.23 us per hit, the array path (:meth:`_charge` and
    #: :meth:`SlotTable.hit`) ~11 us + 0.01 us per hit.
    _SMALL_RUN = 40

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
            n_accesses, last_access = (self._table.n_accesses,
                                       self._table.last_access)
            for clock, row in enumerate(run.tolist(), c0 + 1):
                mgmt += overhead
                n_accesses[row] += 1
                last_access[row] = clock
            self.stats.mgmt_time = mgmt
            return
        self._charge(cfg.lookup_overhead, k)
        self._table.hit(run, np.arange(c0 + 1, c0 + 1 + k))

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
        forms.  The placed entries' payloads arrive in one
        :meth:`Window.gather` and land in the buffer as one block.
        Bit-identical to the scalar path.
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
        cfg, stats, table = self.config, self.stats, self._table
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

        # What stays per entry: its index placement.  The run appends rows
        # n0 .. n0 + k - 1, as `_attach` would one by one.
        c0, n0 = self._clock, len(table)
        place, score_fn = index.place, cfg.app_score_fn
        keys = list(zip(*(col[:k].tolist() for col in key_cols)))
        placed = 0
        try:
            for key in keys:
                if not place(key, n0 + placed):
                    break  # full probe window: the scalar path's to resolve
                placed += 1
            k = placed
            if k == 0:
                return p
            del keys[k:]
            data = self.window.gather(*(col[:k] for col in key_cols))
            app_scores = [None] * k
            if score_fn is not None:
                cuts = [0, *np.cumsum(key_cols[2][:k]).tolist()]
                app_scores = [float(score_fn(*key, data[a:b]))
                              for key, a, b in zip(keys, cuts, cuts[1:])]
        except BaseException:
            # Fail closed, as the scalar path does: nothing else has changed
            # yet, and unplacing newest-first restores the index's layout.
            for key in reversed(keys[:placed]):
                index.remove(key)
            raise
        n = int(rel[k]) if k < rel.shape[0] else hi - p
        q = p + n
        rel, sizes, fetched = rel[:k], sizes[:k], int(ends[k - 1])
        size_list = sizes.tolist()
        self.allocator.take_front(size_list)
        table.extend(keys, (extent[0] + ends[:k] - sizes).tolist(), size_list,
                     app_scores, c0 + 1 + rel,
                     np.stack(key_cols, axis=1)[:k])
        table.write(extent[0], data)
        slots[uids[rel]] = np.arange(n0, n0 + k)
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
            table.hit(slots[uids[at_hits]], c0 + 1 + at_hits)
        self.run_counts["fill_runs"] += 1
        self.run_counts["filled_entries"] += k
        return q

    # -- insertion & eviction ------------------------------------------------------
    def _prospective_score(self, key: tuple, app_score: float | None) -> float:
        """Score the candidate entry *as if* freshly inserted (for guards)."""
        probe = CacheEntry(key, None, 0, 0, self._clock, app_score)
        return self.config.score_policy.victim_score(probe, self.allocator,
                                                     self._clock)

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
            if not self._table.meta:
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

        # 2. Hash slot (conflict evictions inside the probe window).
        if self._attach(key, buf_off, nbytes, app_score) is None:
            self.stats.hash_conflicts += 1
            window_rows = [row for _, row in self.index.probe_window(key)]
            if not window_rows:
                # Pathological (probe window empty yet insert failed).
                allocator.free(buf_off)
                self.stats.insert_failures += 1
                return t  # pragma: no cover - defensive
            victim, victim_score = cfg.score_policy.pick(
                window_rows, self._table, allocator, self._clock)
            if guard and victim_score > new_score:
                allocator.free(buf_off)
                self.stats.insert_failures += 1
                return t
            self._remove_entry(victim)
            self.stats.conflict_evictions += 1
            t += cfg.eviction_overhead
            self.stats.mgmt_time += cfg.eviction_overhead
            if self._attach(key, buf_off, nbytes, app_score) is None:
                allocator.free(buf_off)  # pragma: no cover - defensive
                self.stats.insert_failures += 1
                return t
        self._table.write(buf_off, data)
        return t

    def _sample_victim(self) -> tuple[int, float]:
        """The lowest-score row of a deterministic random sample of the
        non-empty live table, and its score (one ``pick`` call)."""
        n, sample = len(self._table.meta), self.config.eviction_sample
        rows = randrange_draws(self._rng, n, sample) if sample < n else range(n)
        return self.config.score_policy.pick(rows, self._table,
                                             self.allocator, self._clock)

    # -- the live table ------------------------------------------------------------
    def _attach(self, key: tuple, offset: int, nbytes: int,
                app_score: float | None, n_accesses: int = 1,
                last_access: int | None = None) -> int | None:
        """Index ``key`` and append its row (last access: now by default).

        Returns the row, or None (nothing changed) when the key's probe
        window is full.  The payload is the caller's to write.
        """
        table = self._table
        row = len(table.meta)
        if not self.index.insert(key, row):
            return None
        table.append(key, offset, nbytes, app_score, n_accesses,
                     self._clock if last_access is None else last_access)
        self._state_epoch += 1
        return row

    def _detach(self, keys: Sequence[tuple]) -> None:
        """Drop the live entries under ``keys`` from index and table, in
        order; their buffer blocks stay allocated.

        Each removal is a :meth:`SlotTable.swap_pop`, and the moved key's
        index value is re-pointed at its new row (a batch logs the move as
        ``(key, new_row)``, the removal as ``(key, -1)``).
        """
        if not keys:
            return
        index, swap_pop, events = (self.index, self._table.swap_pop,
                                   self._batch_events)
        for key in keys:
            row = index.remove(key)
            moved = swap_pop(row)
            if moved is not None:
                index.place(moved, row)
                if events is not None:
                    events.append((moved, row))
            if events is not None:
                events.append((key, -1))
        self._state_epoch += 1

    def _clear(self) -> None:
        """Empty the cache under the current geometry (counts as a flush)."""
        self.index = HashIndex(self.config.nslots, self.config.probe_limit)
        self.allocator = BufferAllocator(self.config.capacity_bytes)
        self._table.clear()
        self._state_epoch += 1
        if self._batch_events is not None:
            self._batch_events.append(_CLEARED)
        self.stats.flushes += 1

    def _remove_entry(self, row: int) -> None:
        """Remove row ``row``'s entry and free its buffer block (no stats)."""
        key, offset, _, _ = self._table.meta[row]
        self._detach((key,))
        self.allocator.free(offset)

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
            rows, _ = self._match(keys)
            meta = [self._table.meta[row] for row in rows]
            dropped_bytes = sum(nbytes for _, _, nbytes, _ in meta)
            self._detach([key for key, _, _, _ in meta])
            free = self.allocator.free
            for _, offset, _, _ in meta:
                free(offset)
            dropped = len(rows)
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
        new key, keeping its buffer block, payload and score metadata, so
        the warmth survives where plain invalidation would drop it.
        Malformed columns raise :class:`CacheError` before the cache is
        touched.

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
            rows, key_rows = self._match(old[moving])
            taken = [self._table.row(row) for row in rows]
            self._detach([key for key, *_ in taken])
            self._charge(self.config.eviction_overhead, len(rows))
            moved = moved_bytes = dropped = dropped_bytes = 0
            lookup, free = self.index.lookup, self.allocator.free
            for (_, offset, nbytes, *metadata), key in zip(
                    taken, map(tuple, new[moving[key_rows]].tolist())):
                if (lookup(key) is None
                        and self._attach(key, offset, nbytes, *metadata)
                        is not None):
                    moved += 1
                    moved_bytes += nbytes
                else:
                    free(offset)
                    dropped += 1
                    dropped_bytes += nbytes
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

    def _match(self, keys: np.ndarray) -> tuple[list[int], np.ndarray]:
        """Live rows the ``(k, 3)`` key rows name, and each one's key row.

        Every entry is matched at its first key row, and the matches come
        in key-row order.  Below the ``_SMALL_MATCH`` crossover each
        distinct key is one :meth:`HashIndex.lookup`; above it the key rows
        are packed and sorted once (:func:`_pack_keys`, as
        :meth:`_join_slots` does) and every mirror row finds its key with a
        single ``searchsorted``.
        """
        k = keys.shape[0]
        n = len(self._table)
        if k < self._SMALL_MATCH + n // 8:
            first: dict[tuple, int] = {}
            for krow, key in enumerate(map(tuple, keys.tolist())):
                first.setdefault(key, krow)
            lookup = self.index.lookup
            found = [(row, krow) for key, krow in first.items()
                     if (row := lookup(key)) is not None]
            return ([row for row, _ in found],
                    np.array([krow for _, krow in found], dtype=np.int64))
        if not n:
            return [], np.zeros(0, dtype=np.int64)
        live = self._table.key_rows()
        try:
            packed = _pack_keys(np.concatenate([keys.T, live.T], axis=1))
        except CacheError:
            # Rows outside the live keys' box cannot match; without them
            # the packing fits, as it does for the live keys alone.
            inside = np.flatnonzero(((keys >= live.min(axis=0))
                                     & (keys <= live.max(axis=0))).all(axis=1))
            rows, key_rows = self._match(keys[inside])
            return rows, inside[key_rows]
        # A stable sort puts each key's first row first among its repeats,
        # and the left ``searchsorted`` lands on it.
        order = np.argsort(packed[:k], kind="stable")
        ranked = packed[:k][order]
        at = np.searchsorted(ranked, packed[k:])
        at[at == k] = 0
        found = ranked[at] == packed[k:]
        key_rows = order[at[found]]
        by_key_row = np.argsort(key_rows)
        return (np.flatnonzero(found)[by_key_row].tolist(),
                key_rows[by_key_row])

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
        with obs_span("flush", cat="cache", entries=len(self._table)):
            self._clear()

    def resize(self, *, nslots: int | None = None,
               capacity_bytes: int | None = None) -> None:
        """Adaptive-tuning hook: change geometry, flushing as CLaMPI does.

        Both arguments are checked before either is applied, with
        :class:`ClampiConfig`'s rules: a refused resize changes nothing.
        """
        if nslots is not None:
            nslots = _geometry("nslots", nslots)
        if capacity_bytes is not None:
            capacity_bytes = _geometry("capacity_bytes", capacity_bytes)
        if nslots is not None:
            self.config.nslots = nslots
        if capacity_bytes is not None:
            self.config.capacity_bytes = capacity_bytes
        self._clear()
        self.stats.adaptive_resizes += 1

    # -- inspection -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._table)

    @property
    def used_bytes(self) -> int:
        return self.allocator.used_bytes

    def entries(self) -> list[CacheEntry]:
        """Snapshot records of the live entries, in row order."""
        return [self._table.record(row) for row in range(len(self._table))]

    def check_invariants(self) -> None:
        """Cross-structure consistency (exercised by property tests)."""
        self.allocator.check_invariants()
        self.index.check_invariants()
        table = self._table
        n = len(table)
        assert n == len(self.index) == self.allocator.n_used_blocks()
        assert (len(table.n_accesses) == len(table.last_access)
                == len(table.mirror) // 3 == n), "table columns differ in length"
        keys = [key for key, _, _, _ in table.meta]
        assert table.key_rows().tolist() == [list(key) for key in keys], \
            "key mirror out of step with the live table"
        for row, key in enumerate(keys):
            assert self.index.lookup(key) == row, \
                f"key not indexed under its row: {key}"
        assert min(table.n_accesses, default=1) >= 1, "an entry counts no access"
        assert max(table.last_access, default=0) <= self._clock, \
            "an entry's last access is in the future"
        # One block per entry, each the allocator's, of the entry's size.
        blocks = {offset: nbytes for _, offset, nbytes, _ in table.meta}
        assert len(blocks) == n, "two entries share a buffer block"
        assert blocks == self.allocator.used_blocks(), \
            "the entries' blocks are not the allocator's used blocks"
        assert len(table.buffer) <= self.allocator.high_water, \
            "payload buffer past the allocator's high-water mark"
        assert all(offset + nbytes <= len(table.buffer)
                   for offset, nbytes in blocks.items()), \
            "an entry's payload lies past the buffer's end"
