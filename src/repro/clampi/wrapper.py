"""Glue between CLaMPI caches and the simulated runtime.

The LCC application enables caching on **both** RMA windows at every rank
(paper Section III-B), producing two caches per rank:

* ``C_offsets`` — fixed-size entries (the (start, end) offset pair of a
  remote adjacency list).  The paper sizes its hash table as roughly one
  slot per storable entry: ``capacity / entry_bytes``.
* ``C_adj`` — variable-size entries (the adjacency lists).  Under a power
  -law degree distribution, a cache of relative size ``c = capacity /
  graph_bytes`` is expected to hold about ``n * c**alpha`` entries with
  ``alpha = 2`` ("we found that alpha = 2 results in a good approximation",
  Section III-B1).

The helpers here build per-rank caches with those heuristics and attach
them to the simulation contexts so that every remote get is intercepted.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.clampi.cache import (
    AppScoreFn,
    ClampiCache,
    ClampiConfig,
    ConsistencyMode,
)
from repro.clampi.scores import DefaultScorePolicy, ScorePolicy
from repro.runtime.context import SimContext
from repro.runtime.window import Window


def offsets_hash_slots(capacity_bytes: int, entry_nbytes: int) -> int:
    """Paper heuristic: one slot per storable fixed-size entry."""
    return max(64, capacity_bytes // max(1, entry_nbytes))


def adjacency_hash_slots(capacity_bytes: int, graph_nbytes: int, n_vertices: int,
                         alpha: float = 2.0) -> int:
    """Paper heuristic: ``n * (relative_size) ** alpha`` slots, alpha = 2."""
    rel = min(1.0, capacity_bytes / max(1, graph_nbytes))
    return max(64, int(n_vertices * rel ** alpha))


def degree_app_score(target: int, offset: int, count: int,
                     data: np.ndarray) -> float:
    """The paper's application score for ``C_adj``: the vertex out-degree.

    The degree is exactly the length of the adjacency list just fetched
    ("after completing the get targeting w_offsets, we know the out-degree
    of the non-local vertex, and we can assign it as a score").
    """
    return float(len(data))


def attach_per_rank(contexts: Sequence[SimContext], window: Window,
                    **config) -> list[ClampiCache]:
    """Create and attach one cache per rank over ``window``; returns them.

    ``config`` holds the :class:`ClampiConfig` fields; every rank's cache
    gets its own config object.
    """
    caches = []
    for ctx in contexts:
        cache = ClampiCache(window, ctx.rank, ClampiConfig(**config),
                            network=ctx.network, memory=ctx.memory)
        ctx.attach_cache(window, cache)
        caches.append(cache)
    return caches


def attach_offset_caches(
    contexts: Sequence[SimContext],
    window: Window,
    capacity_bytes: int,
    *,
    mode: ConsistencyMode = ConsistencyMode.ALWAYS_CACHE,
    score_policy: ScorePolicy | None = None,
    entry_count: int = 2,
    adaptive=None,
) -> list[ClampiCache]:
    """Create and attach one ``C_offsets`` per rank; returns the caches.

    ``entry_count`` is the number of window elements per cached read (the
    LCC kernel reads (start, end) pairs, i.e. two offsets).
    """
    entry_nbytes = entry_count * window.itemsize
    return attach_per_rank(
        contexts, window, capacity_bytes=capacity_bytes,
        nslots=offsets_hash_slots(capacity_bytes, entry_nbytes), mode=mode,
        score_policy=score_policy or DefaultScorePolicy(), adaptive=adaptive)


def attach_adjacency_caches(
    contexts: Sequence[SimContext],
    window: Window,
    capacity_bytes: int,
    *,
    mode: ConsistencyMode = ConsistencyMode.ALWAYS_CACHE,
    score_policy: ScorePolicy | None = None,
    app_score_fn: AppScoreFn | None = None,
    n_vertices: int | None = None,
    adaptive=None,
) -> list[ClampiCache]:
    """Create and attach one ``C_adj`` per rank; returns the caches.

    When ``score_policy`` is an :class:`AppScorePolicy` and no callback is
    given, the degree score (:func:`degree_app_score`) is used, reproducing
    the paper's extension.
    """
    policy = score_policy or DefaultScorePolicy()
    if policy.uses_app_score and app_score_fn is None:
        app_score_fn = degree_app_score
    graph_nbytes = window.total_nbytes()
    n = n_vertices if n_vertices is not None else graph_nbytes // max(1, window.itemsize)
    return attach_per_rank(
        contexts, window, capacity_bytes=capacity_bytes,
        nslots=adjacency_hash_slots(capacity_bytes, graph_nbytes, n),
        mode=mode, score_policy=policy, app_score_fn=app_score_fn,
        adaptive=adaptive)
