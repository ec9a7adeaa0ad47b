"""Configuration and result types for distributed runs.

:class:`LCCConfig` is the single knob panel of the public API; it selects
everything the paper's experiments vary: rank count, intersection method,
thread count/wait policy, partitioning, communication overlap, network
preset, and the caching setup (:class:`CacheSpec`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

import numpy as np

from repro.clampi.cache import ConsistencyMode
from repro.clampi.scores import (
    AppScorePolicy,
    DefaultScorePolicy,
    LRUScorePolicy,
    ScorePolicy,
)
from repro.runtime.compute import ComputeModel
from repro.runtime.engine import RunOutcome
from repro.runtime.network import MemoryModel, NetworkModel
from repro.utils.errors import ConfigError


#: Score policies selectable by name in CacheSpec.
SCORE_POLICIES = {
    "default": DefaultScorePolicy,
    "degree": AppScorePolicy,
    "lru": LRUScorePolicy,
}


@dataclass(frozen=True)
class CacheSpec:
    """How to size and drive the two CLaMPI caches.

    ``offsets_bytes`` / ``adj_bytes`` are **per rank**.  The paper's overall
    configuration reserves a total budget and sizes ``C_offsets`` to hold
    the offset pairs of ``0.4 * |V|`` vertices — at 16 bytes per (start,
    end) pair of int64 offsets that is ``6.4 * |V|`` bytes — with the
    remainder of the budget going to ``C_adj`` (Section IV-D2); use
    :meth:`paper_split` for that.  ``score`` picks the eviction policy:
    ``"default"`` (LRU + positional), ``"degree"`` (the paper's extension)
    or ``"lru"``.
    """

    offsets_bytes: int
    adj_bytes: int
    score: str = "default"
    mode: ConsistencyMode = ConsistencyMode.ALWAYS_CACHE
    adaptive: Any = None  # Optional[AdaptiveConfig]

    def __post_init__(self) -> None:
        if self.offsets_bytes < 0 or self.adj_bytes < 0:
            raise ConfigError("cache sizes must be non-negative")
        if self.offsets_bytes == 0 and self.adj_bytes == 0:
            raise ConfigError("CacheSpec with both caches empty; pass cache=None")
        if self.score not in SCORE_POLICIES:
            raise ConfigError(
                f"unknown score policy {self.score!r}; "
                f"expected one of {sorted(SCORE_POLICIES)}"
            )

    def make_policy(self) -> ScorePolicy:
        """Instantiate the configured eviction-score policy."""
        return SCORE_POLICIES[self.score]()

    #: Bytes of one C_offsets entry: an (start, end) pair of int64 offsets.
    OFFSETS_ENTRY_BYTES = 16

    @classmethod
    def paper_split(cls, total_bytes: int, n_vertices: int,
                    score: str = "default") -> "CacheSpec":
        """The paper's allocation (Section IV-D2).

        C_offsets is sized to hold offsets for **0.4 * |V|** vertices —
        "with this configuration C_offsets can store 0.4 |V| many vertices,
        as the position of a remote adjacency list is given as a pair of
        (start, end) positions" — i.e. ``0.4 * n * 16`` bytes with our
        int64 pairs; the rest of the budget goes to C_adj.
        """
        offsets = int(0.4 * n_vertices) * cls.OFFSETS_ENTRY_BYTES
        offsets = min(offsets, max(1, total_bytes // 2))
        adj = max(1, total_bytes - offsets)
        return cls(offsets_bytes=max(1, offsets), adj_bytes=adj, score=score)

    @classmethod
    def relative(cls, graph_nbytes: int, offsets_fraction: float,
                 adj_fraction: float, score: str = "default") -> "CacheSpec":
        """Size caches as fractions of the graph's CSR footprint (Figure 7)."""
        return cls(
            offsets_bytes=max(1, int(offsets_fraction * graph_nbytes)),
            adj_bytes=max(1, int(adj_fraction * graph_nbytes)),
            score=score,
        )


@dataclass(frozen=True)
class LCCConfig:
    """Everything a distributed LCC/TC run depends on."""

    nranks: int = 8
    method: str = "hybrid"           # 'ssi' | 'binary' | 'hybrid'
    threads: int = 1
    wait_policy: str = "active"
    partition: str = "block"         # 'block' | 'cyclic'
    overlap: bool = True             # double-buffering (Section III-A)
    fast_path: bool = True           # batched replay instead of per-edge loop
    cache: Optional[CacheSpec] = None
    network: NetworkModel = field(default_factory=NetworkModel.aries)
    memory: MemoryModel = field(default_factory=MemoryModel)
    compute: ComputeModel = field(default_factory=ComputeModel)

    def __post_init__(self) -> None:
        if self.nranks < 1:
            raise ConfigError(f"nranks must be >= 1, got {self.nranks}")
        if self.method not in ("ssi", "binary", "hybrid"):
            raise ConfigError(f"unknown method {self.method!r}")
        if self.partition not in ("block", "cyclic"):
            raise ConfigError(f"unknown partition {self.partition!r}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")

    def replace(self, **changes: Any) -> "LCCConfig":
        """Functional update (sweeps mutate one knob at a time)."""
        return replace(self, **changes)


@dataclass
class DistributedRunResult:
    """Outcome of one distributed LCC or TC run.

    From the batched replay, ``lcc`` and ``triangles_per_vertex`` are the
    graph version's own **read-only** vectors
    (:func:`repro.core.local.vertex_scores`), shared by every result on
    that graph: writing into one raises ``ValueError`` — ``.copy()`` first.
    """

    lcc: Optional[np.ndarray]        # per-vertex LCC (None for TC-only runs)
    triangles_per_vertex: Optional[np.ndarray]
    global_triangles: int
    outcome: RunOutcome
    offsets_cache_stats: Optional[dict] = None
    adj_cache_stats: Optional[dict] = None

    @property
    def time(self) -> float:
        """Job runtime: the longest-running rank (paper methodology)."""
        return self.outcome.time

    @property
    def comm_time(self) -> float:
        return self.outcome.comm_time

    @property
    def comp_time(self) -> float:
        return self.outcome.comp_time

    def summary(self) -> dict[str, Any]:
        s = self.outcome.summary()
        s["global_triangles"] = self.global_triangles
        if self.adj_cache_stats:
            s["adj_hit_rate"] = self.adj_cache_stats["hit_rate"]
            s["adj_miss_rate"] = self.adj_cache_stats["miss_rate"]
            s["adj_compulsory_miss_rate"] = self.adj_cache_stats[
                "compulsory_miss_rate"]
        if self.offsets_cache_stats:
            s["offsets_hit_rate"] = self.offsets_cache_stats["hit_rate"]
            s["offsets_miss_rate"] = self.offsets_cache_stats["miss_rate"]
            s["offsets_compulsory_miss_rate"] = self.offsets_cache_stats[
                "compulsory_miss_rate"]
        return s
