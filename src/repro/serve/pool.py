"""A bounded pool of resident :class:`~repro.session.Session`s.

Memory on a real cluster bounds how many partitioned graphs (plus their
CLaMPI caches) can stay resident at once; the pool models that with a
``capacity`` on live sessions.  Acquiring a key that is not resident
builds a session (cold partition, cold caches) and, at capacity, evicts
one first — ``lru`` (least recently served) or ``lfu`` (least queries
served, ties broken LRU).  Eviction closes the session, so its warm cache
contents are genuinely gone: re-acquiring the key pays the cold cost
again.  That is the contention the cache-affinity scheduler manages.

Graph state lives **outside** the pool, in a
:class:`~repro.graphstore.store.GraphStore`: sessions are built from the
store's latest snapshot of their graph, and committed updates advance
the store's version — so a key's graph history is a property of the
workload, never of pool-eviction luck, and every variant of one graph
resolves to the same versioned truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.core.config import LCCConfig
from repro.graph.csr import CSRGraph
from repro.graphstore.store import GraphStore
from repro.obs.trace import span as obs_span
from repro.serve.request import SessionKey
from repro.session import Session
from repro.utils.errors import ConfigError, SimulationError

#: Supported eviction policies.
POOL_POLICIES = ("lru", "lfu")


@dataclass
class PoolStats:
    """Counters the serving report surfaces."""

    builds: int = 0          # sessions constructed (cold partition + caches)
    evictions: int = 0       # sessions closed to make room
    reuses: int = 0          # acquisitions served by a resident session
    queries: dict = field(default_factory=dict)  # key -> queries served

    def as_dict(self) -> dict:
        return {"builds": self.builds, "evictions": self.evictions,
                "reuses": self.reuses}


class _Entry:
    __slots__ = ("session", "last_used", "uses", "pinned")

    def __init__(self, session: Session):
        self.session = session
        self.last_used = 0
        self.uses = 0
        self.pinned = False


class SessionPool:
    """At most ``capacity`` resident sessions, keyed by ``SessionKey``.

    ``catalog`` may be a plain ``{name: CSRGraph}`` mapping (wrapped into
    a fresh :class:`~repro.graphstore.store.GraphStore` at version 0) or
    an existing store to share.  ``config_for`` maps ``(graph,
    overrides_dict)`` to the :class:`~repro.core.config.LCCConfig` the
    session is built with — the serving engine injects rank count and
    cache sizing there.
    """

    def __init__(self, catalog: "Mapping[str, CSRGraph] | GraphStore",
                 config_for: Callable[[CSRGraph, dict], LCCConfig],
                 capacity: int = 4, policy: str = "lru", router=None):
        if capacity < 1:
            raise ConfigError(f"pool capacity must be >= 1, got {capacity}")
        if policy not in POOL_POLICIES:
            raise ConfigError(f"unknown pool policy {policy!r}; "
                              f"expected one of {POOL_POLICIES}")
        if isinstance(catalog, GraphStore):
            self.store = catalog
        elif callable(getattr(catalog, "graph", None)):
            # Any store duck-typing the GraphStore read surface — e.g. a
            # ShardedGraphStore — serves sessions the same way.
            self.store = catalog
        else:
            self.store = GraphStore(catalog)
        self.router = router
        self.config_for = config_for
        self.capacity = capacity
        self.policy = policy
        self.stats = PoolStats()
        self._entries: dict[SessionKey, _Entry] = {}
        self._clock = 0  # logical use counter for LRU recency

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: SessionKey) -> bool:
        return key in self._entries

    def resident_keys(self) -> list[SessionKey]:
        """Resident keys, least-recently-used first."""
        return sorted(self._entries, key=lambda k: self._entries[k].last_used)

    # -- dynamic graph state -------------------------------------------------
    def store_of(self, key: SessionKey):
        """The store serving ``key``: routed if a router is attached.

        With a :class:`~repro.shardstore.router.ShardRouter`, the pool
        resolves each session key to the replica store owning it on the
        consistent-hash ring; without one, every key reads the pool's
        own store.
        """
        if self.router is not None:
            return self.router.store_for(key)
        return self.store

    def graph_for(self, key: SessionKey) -> CSRGraph:
        """The key's current graph: its store's latest version."""
        graph_name = key[0]
        store = self.store_of(key)
        if graph_name not in store:
            raise ConfigError(
                f"graph {graph_name!r} is not in the serving catalog "
                f"({', '.join(store.names())})")
        return store.graph(graph_name)

    def sessions_of(self, graph_name: str) -> list[tuple[SessionKey, Session]]:
        """Every resident ``(key, session)`` serving ``graph_name``.

        The propagation set of a store commit: an update to the graph
        must reach all of these, whatever their config variant.
        """
        return [(key, entry.session) for key, entry in self._entries.items()
                if key[0] == graph_name]

    # -- the one mutating operation -----------------------------------------
    def acquire(self, key: SessionKey) -> tuple[Session, bool]:
        """Return ``(session, built)`` for a key, evicting if necessary."""
        self._clock += 1
        entry = self._entries.get(key)
        built = entry is None
        with obs_span("acquire", cat="pool", graph=key[0],
                      built=built) as sp:
            if built:
                _, overrides = key
                # Validate before evicting: a bad key must not cost a
                # warm resident session.
                graph = self.graph_for(key)
                if len(self._entries) >= self.capacity:
                    self._evict_one()
                entry = _Entry(Session(
                    graph, self.config_for(graph, dict(overrides))))
                self._entries[key] = entry
                self.stats.builds += 1
            else:
                self.stats.reuses += 1
            sp.note(resident=len(self._entries))
        entry.last_used = self._clock
        entry.uses += 1
        self.stats.queries[key] = self.stats.queries.get(key, 0) + 1
        return entry.session, built

    def _evict_one(self) -> None:
        victims = [k for k, e in self._entries.items() if not e.pinned]
        if not victims:
            raise SimulationError(
                "session pool is full of pinned sessions; admission must "
                "check can_admit() before acquiring a new key")
        if self.policy == "lfu":
            victim = min(victims,
                         key=lambda k: (self._entries[k].uses,
                                        self._entries[k].last_used))
        else:
            victim = min(victims,
                         key=lambda k: self._entries[k].last_used)
        with obs_span("evict", cat="pool", graph=victim[0],
                      policy=self.policy):
            self._entries.pop(victim).session.close()
        self.stats.evictions += 1

    # -- concurrency support (the cooperative engine) -----------------------
    def pin(self, key: SessionKey) -> None:
        """Exempt a resident session from eviction while a task uses it.

        The cooperative engine pins a key for the lifetime of the query
        running on it: a concurrent acquisition of a *different* key
        must never evict a session whose simulated run is still in
        flight.  Pins are exclusive per key because the engine also
        serializes same-key queries (one resident cluster serves one
        query at a time).
        """
        self._entries[key].pinned = True

    def unpin(self, key: SessionKey) -> None:
        """Release a pin (idempotent; the key may have been evicted)."""
        entry = self._entries.get(key)
        if entry is not None:
            entry.pinned = False

    def can_admit(self, key: SessionKey) -> bool:
        """Could :meth:`acquire` serve this key right now without
        touching a pinned session?  Resident keys always admit; a build
        needs either spare capacity or an unpinned victim."""
        if key in self._entries or len(self._entries) < self.capacity:
            return True
        return any(not e.pinned for e in self._entries.values())

    def evict_where(self, predicate: Callable[[SessionKey], bool]) -> int:
        """Force-close every resident session whose key matches.

        The failover hook: killing a replica closes its resident
        clusters, so the warm state is genuinely gone and a re-routed
        key pays its cold build at the surviving store.  Returns how
        many sessions were evicted (counted in :attr:`stats`).
        """
        victims = [key for key in self._entries if predicate(key)]
        for key in victims:
            self._entries.pop(key).session.close()
            self.stats.evictions += 1
        return len(victims)

    def close(self) -> None:
        """Close every resident session (idempotent)."""
        for entry in self._entries.values():
            entry.session.close()
        self._entries.clear()

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SessionPool({len(self)}/{self.capacity} resident, "
                f"policy={self.policy}, builds={self.stats.builds}, "
                f"evictions={self.stats.evictions})")
