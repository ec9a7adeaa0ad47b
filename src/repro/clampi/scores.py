"""Eviction-score policies.

CLaMPI's default victim selection is "LRU weighted on a positional score to
limit external fragmentation" (paper Section III-B2).  The paper's extension
replaces the score with an **application-defined** value — for LCC, the
degree of the cached vertex, because degree predicts future reuse
(Observation 3.1) — at the cost of losing the anti-fragmentation spatial
term (explicitly noted in the paper).

A policy maps a cache entry to a scalar; the entry with the **lowest**
score is evicted first.  :meth:`ScorePolicy.victim_score` scores one entry
(a :class:`~repro.clampi.cache.CacheEntry` snapshot record, whose ``data``
is None: a score reads metadata only) and is the oracle; :meth:`ScorePolicy.pick` is the one call a victim selection makes,
over candidate rows of the cache's
:class:`~repro.clampi.cache.SlotTable`.  Its base implementation is
``min`` over ``victim_score`` of each row's record, and the stock policies
override it with one loop over the candidates' column values that yields
the same victim and the same score bits.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Sequence

from repro.clampi.allocator import BufferAllocator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.clampi.cache import CacheEntry, SlotTable


class ScorePolicy(abc.ABC):
    """Strategy object computing eviction scores (lower = evict first)."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # A subclass that redefines the per-entry score but not the
        # selection must select on its own score, not an inherited loop.
        if "victim_score" in cls.__dict__ and "pick" not in cls.__dict__:
            cls.pick = ScorePolicy.pick

    @abc.abstractmethod
    def victim_score(self, entry: "CacheEntry", allocator: BufferAllocator,
                     clock: int) -> float:
        """Score ``entry`` given the allocator state and the logical clock."""

    def pick(self, rows: Sequence[int], table: "SlotTable",
             allocator: BufferAllocator, clock: int) -> tuple[int, float]:
        """The first lowest-score row of non-empty ``rows`` and its score:
        exactly ``min`` over ``victim_score(table.record(row, False), ...)``.

        The records carry no payload (``data`` is None): copying each
        candidate's bytes out of the buffer would cost more than scoring
        it.  ``rows`` may repeat a row; a tie goes to the first candidate.
        Overrides read the table's columns (``last_access``,
        ``n_accesses`` and the ``(key, offset, nbytes, app_score)`` rows
        of ``meta``) and must select the same row with the same score bits.
        """
        scores = [self.victim_score(table.record(row, False), allocator, clock)
                  for row in rows]
        i = min(range(len(scores)), key=scores.__getitem__)
        return rows[i], scores[i]

    @property
    def uses_app_score(self) -> bool:
        """Whether the policy consumes application-supplied scores."""
        return False


class DefaultScorePolicy(ScorePolicy):
    """CLaMPI's stock policy: temporal locality + positional placement.

    ``score = w_recency * recency - w_positional * coalescing_relief``

    * *recency* is the entry's last access normalized by the logical clock,
      in [0, 1] — plain LRU when ``w_positional == 0``.
    * *coalescing_relief* is the free space adjacent to the entry divided by
      (adjacent + own size): an entry surrounded by free space scores lower
      and is evicted earlier, even with high temporal locality, exactly the
      behaviour the paper describes.
    """

    def __init__(self, w_recency: float = 1.0, w_positional: float = 0.5):
        if w_recency < 0 or w_positional < 0:
            raise ValueError("score weights must be non-negative")
        self.w_recency = w_recency
        self.w_positional = w_positional

    def victim_score(self, entry: "CacheEntry", allocator: BufferAllocator,
                     clock: int) -> float:
        recency = entry.last_access / clock if clock > 0 else 0.0
        relief = 0.0
        if self.w_positional > 0.0:
            adjacent = allocator.adjacent_free(entry.buffer_offset,
                                               entry.nbytes)
            denom = adjacent + entry.nbytes
            relief = adjacent / denom if denom > 0 else 0.0
        return self.w_recency * recency - self.w_positional * relief

    def pick(self, rows, table, allocator, clock):
        w_recency, w_positional = self.w_recency, self.w_positional
        adjacent_free = allocator.adjacent_free
        last_access, meta = table.last_access, table.meta
        best, best_score = None, 0.0
        for row in rows:
            recency = last_access[row] / clock if clock > 0 else 0.0
            relief = 0.0
            if w_positional > 0.0:
                _, offset, nbytes, _ = meta[row]
                adjacent = adjacent_free(offset, nbytes)
                denom = adjacent + nbytes
                relief = adjacent / denom if denom > 0 else 0.0
            score = w_recency * recency - w_positional * relief
            if best is None or score < best_score:
                best, best_score = row, score
        return best, best_score


class AppScorePolicy(ScorePolicy):
    """The paper's extension: user-supplied scores drive victim selection.

    For the adjacency cache the application passes the out-degree of the
    fetched vertex ("after completing the get targeting the offsets window,
    we know the out-degree of the non-local vertex"), so low-degree — i.e.
    unlikely-to-be-reused — entries are evicted first.  A small recency term
    breaks ties among equal scores.  The positional (anti-fragmentation)
    term is deliberately absent, as in the paper.
    """

    def __init__(self, recency_tiebreak: float = 1e-6):
        if recency_tiebreak < 0:
            raise ValueError("recency_tiebreak must be non-negative")
        self.recency_tiebreak = recency_tiebreak

    @property
    def uses_app_score(self) -> bool:
        return True

    def victim_score(self, entry: "CacheEntry", allocator: BufferAllocator,
                     clock: int) -> float:
        app = entry.app_score if entry.app_score is not None else 0.0
        recency = entry.last_access / clock if clock > 0 else 0.0
        return app + self.recency_tiebreak * recency

    def pick(self, rows, table, allocator, clock):
        tiebreak = self.recency_tiebreak
        last_access, meta = table.last_access, table.meta
        best, best_score = None, 0.0
        for row in rows:
            app = meta[row][3]
            if app is None:
                app = 0.0
            recency = last_access[row] / clock if clock > 0 else 0.0
            score = app + tiebreak * recency
            if best is None or score < best_score:
                best, best_score = row, score
        return best, best_score


class LRUScorePolicy(ScorePolicy):
    """Pure LRU (positional weight zero) — used by ablation benchmarks."""

    def victim_score(self, entry: "CacheEntry", allocator: BufferAllocator,
                     clock: int) -> float:
        return entry.last_access / clock if clock > 0 else 0.0

    def pick(self, rows, table, allocator, clock):
        last_access = table.last_access
        best, best_score = None, 0.0
        for row in rows:
            score = last_access[row] / clock if clock > 0 else 0.0
            if best is None or score < best_score:
                best, best_score = row, score
        return best, best_score
