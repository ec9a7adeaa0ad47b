"""Read replicas over sharded stores, with convergence you can check.

A :class:`ReplicaSet` keeps one **primary** :class:`~repro.shardstore
.sharded.ShardedGraphStore` plus ``replicas`` read-only copies, all
built from the same catalog.  Writes go through :meth:`commit`: the
batch is applied to the primary and then, **independently**, to every
live replica.  Application is deterministic, so each replica's shard
chains re-derive the same chained digests — and that is the whole
consistency story: :meth:`verify` compares chained history digests, and
equal digests prove the replica walked the *same version-by-version
history* as the primary, not merely that it arrived at similar bytes.

A replica that diverges (bit rot, a write that bypassed the set, a lost
commit) is detected by exactly that check, **evicted** from the routing
ring, and **re-seeded** from a primary snapshot — adopting the primary's
chain digests via :meth:`~repro.graphstore.store.GraphStore.seed`, so
convergence is provable again from the next commit on.  This is the
codebase's first fault-handling path.

Reads are served by :meth:`serve_reads`: each query routes through the
consistent-hash ring (:class:`~repro.shardstore.router.ShardRouter`) to
the replica owning its ``session_key``, and each replica drains its own
queue on its own simulated clock with its own resident
:class:`~repro.serve.pool.SessionPool` — so read throughput scales with
replica count, which `BENCH_shard.json` gates.  Because replicas hold
bit-identical graphs, *where* a query lands changes its latency, never
its answer; the failover scenario (kill a replica mid-burst, re-route,
re-seed, rejoin) is digest-checked against an undisturbed run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.dynamic.delta import UpdateBatch
from repro.graph.csr import CSRGraph
from repro.serve.engine import ServeConfig
from repro.serve.pool import SessionPool
from repro.serve.records import result_digest
from repro.serve.request import arrival_order
from repro.shardstore.router import DEFAULT_VNODES, ShardRouter
from repro.shardstore.sharded import ShardedGraphStore, ShardedUpdate
from repro.utils.errors import ConfigError

__all__ = ["ReadRecord", "ReplicaReadOutcome", "ReplicaSet"]


@dataclass
class ReadRecord:
    """One query served by one replica."""

    qid: int
    tenant: int
    graph: str
    kernel: str
    replica: str          # which replica the router placed it on
    arrival: float        # simulated
    start: float
    finish: float
    service_s: float
    wall_s: float
    warm_cache: bool
    built_session: bool
    version: int          # logical graph version the query observed
    digest: str           # same digest scheme as the serving engine

    @property
    def latency(self) -> float:
        return self.finish - self.arrival


@dataclass
class ReplicaReadOutcome:
    """Everything one routed read burst produced."""

    records: list[ReadRecord]
    makespan_s: float          # latest finish across replica clocks
    throughput_qps: float
    wall_clock_s: float
    replica_counts: dict = field(default_factory=dict)  # rid -> queries
    pool_stats: dict = field(default_factory=dict)      # rid -> counters
    killed: str | None = None
    rejoined: bool = False

    def digests(self) -> dict[int, str]:
        """qid -> answer digest; placement-independent by construction."""
        return {r.qid: r.digest for r in self.records}


class ReplicaSet:
    """One primary plus N read replicas of a sharded catalog."""

    def __init__(self, catalog: dict[str, CSRGraph], *, replicas: int = 2,
                 nshards: int = 2, nranks: int | None = None,
                 vnodes: int = DEFAULT_VNODES):
        if replicas < 1:
            raise ConfigError(f"need >= 1 replica, got {replicas}")

        def build() -> ShardedGraphStore:
            return ShardedGraphStore(catalog, nshards=nshards, nranks=nranks)

        self.primary = build()
        self._stores = {f"r{i}": build() for i in range(replicas)}
        self.router = ShardRouter(dict(self._stores), vnodes=vnodes)
        self.reseeds = 0

    # -- membership ----------------------------------------------------------
    def replica_ids(self) -> list[str]:
        """Every replica, live or evicted."""
        return sorted(self._stores)

    def live_ids(self) -> list[str]:
        return self.router.store_ids()

    def replica(self, rid: str) -> ShardedGraphStore:
        try:
            return self._stores[rid]
        except KeyError:
            raise ConfigError(
                f"unknown replica {rid!r} "
                f"({', '.join(self.replica_ids())})") from None

    # -- the write path ------------------------------------------------------
    def commit(self, name: str, batch: UpdateBatch, *,
               strict: bool = False) -> ShardedUpdate:
        """Apply one batch to the primary and every *live* replica.

        Each store applies independently — nothing is copied — so equal
        post-commit digests are evidence of equal computation, which is
        what :meth:`verify` leans on.  An evicted replica misses the
        commit by design: it must re-seed before rejoining.
        """
        update = self.primary.apply(name, batch, strict=strict)
        for rid in self.live_ids():
            self._stores[rid].apply(name, batch, strict=strict)
        return update

    def commit_edges(self, name: str, inserts=None, deletes=None,
                     ) -> ShardedUpdate:
        """Convenience: build the batch from raw edge arrays and commit."""
        head = self.primary.graph(name)
        return self.commit(name, UpdateBatch.build(
            inserts, deletes, n=head.n, directed=head.directed))

    # -- convergence proof ---------------------------------------------------
    def verify(self, name: str | None = None) -> list[str]:
        """Chained-digest comparison of every live replica vs the primary.

        Returns problem strings (empty = converged).  Checks the logical
        version, the version vector and the folded chain digest — the
        digest alone would do (it covers the history), the rest makes
        failures diagnosable.
        """
        names = [name] if name is not None else self.primary.names()
        problems = []
        for n in names:
            want_v = self.primary.version(n).version
            want_vec = self.primary.version_vector(n)
            want_d = self.primary.digest(n)
            for rid in self.live_ids():
                store = self._stores[rid]
                if n not in store:
                    problems.append(f"{rid}: graph {n!r} missing")
                    continue
                if store.version(n).version != want_v:
                    problems.append(
                        f"{rid}: {n} at v{store.version(n).version}, "
                        f"primary at v{want_v}")
                if store.version_vector(n) != want_vec:
                    problems.append(
                        f"{rid}: {n} version vector "
                        f"{store.version_vector(n)} != {want_vec}")
                if store.digest(n) != want_d:
                    problems.append(
                        f"{rid}: {n} history digest diverged from primary")
        return problems

    def divergent(self) -> list[str]:
        """Live replicas whose history digests disagree with the primary."""
        out = []
        for rid in self.live_ids():
            store = self._stores[rid]
            if any(n not in store
                   or store.digest(n) != self.primary.digest(n)
                   for n in self.primary.names()):
                out.append(rid)
        return out

    # -- fault handling ------------------------------------------------------
    def evict(self, rid: str) -> None:
        """Take ``rid`` out of rotation; its keys re-route immediately."""
        self.replica(rid)
        if rid not in self.router:
            raise ConfigError(f"replica {rid!r} is already evicted")
        self.router.remove_store(rid)

    def rejoin(self, rid: str) -> None:
        """Re-seed ``rid`` from primary snapshots and put it back in."""
        store = self.replica(rid)
        if rid in self.router:
            raise ConfigError(f"replica {rid!r} is already live")
        for name in self.primary.names():
            store.seed(name, self.primary.snapshot(name))
        self.reseeds += 1
        self.router.add_store(rid, store)

    def heal(self) -> list[str]:
        """Evict + re-seed + rejoin every divergent replica; return them."""
        bad = self.divergent()
        for rid in bad:
            self.evict(rid)
            self.rejoin(rid)
        return bad

    # -- the read path -------------------------------------------------------
    def serve_reads(self, requests: list, config: ServeConfig | None = None,
                    *, kill_replica: str | None = None,
                    kill_at: int | None = None,
                    rejoin_at: int | None = None) -> ReplicaReadOutcome:
        """Drain a query-only burst through the router, FIFO per replica.

        Each live replica owns a resident pool and a simulated clock;
        a query starts at ``max(replica clock, arrival)`` on whichever
        replica the ring places its session key.  ``kill_replica`` /
        ``kill_at`` model the failover scenario: just before serving qid
        ``kill_at``, the named replica dies — its resident sessions are
        closed (warm state genuinely gone) and it leaves the ring, so
        its keys re-route to survivors.  At qid ``rejoin_at`` it
        re-seeds from the primary and rejoins.  Answer digests are
        placement-independent (replicas are digest-converged), so a
        killed run must match an undisturbed one bit-for-bit — the
        failover gate.
        """
        if not requests:
            raise ConfigError("cannot serve an empty read burst")
        if any(req.is_update for req in requests):
            raise ConfigError(
                "serve_reads takes queries only; route writes through "
                "ReplicaSet.commit")
        if (kill_replica is None) != (kill_at is None):
            raise ConfigError(
                "kill_replica and kill_at come as a pair")
        if rejoin_at is not None and kill_at is None:
            raise ConfigError("rejoin_at needs a kill to recover from")
        config = config or ServeConfig()
        pools: dict[str, SessionPool] = {}
        clocks: dict[str, float] = {}
        counts: dict[str, int] = {}
        for rid in self.live_ids():
            pools[rid] = SessionPool(
                self._stores[rid], config.session_config,
                capacity=config.pool_capacity, policy=config.pool_policy)
            clocks[rid] = 0.0
            counts[rid] = 0
        records: list[ReadRecord] = []
        killed = None
        rejoined = False
        t_run = time.perf_counter()
        try:
            for req in sorted(requests, key=arrival_order):
                if kill_at is not None and req.qid == kill_at:
                    if kill_replica not in pools:
                        raise ConfigError(
                            f"cannot kill {kill_replica!r}: not live")
                    pools.pop(kill_replica).close()
                    self.evict(kill_replica)
                    killed = kill_replica
                if (rejoin_at is not None and req.qid == rejoin_at
                        and killed is not None and not rejoined):
                    self.rejoin(killed)
                    pools[killed] = SessionPool(
                        self._stores[killed], config.session_config,
                        capacity=config.pool_capacity,
                        policy=config.pool_policy)
                    clocks.setdefault(killed, 0.0)
                    counts.setdefault(killed, 0)
                    rejoined = True
                rid = self.router.route(req.session_key)
                pool = pools[rid]
                t0 = time.perf_counter()
                session, built = pool.acquire(req.session_key)
                result = session.run(req.kernel, keep_cache=True)
                wall = time.perf_counter() - t0
                service = float(result.time)
                start = max(clocks[rid], req.arrival)
                finish = start + service
                clocks[rid] = finish
                counts[rid] = counts.get(rid, 0) + 1
                version = self._stores[rid].version(req.graph).version
                records.append(ReadRecord(
                    qid=req.qid, tenant=req.tenant, graph=req.graph,
                    kernel=req.kernel, replica=rid, arrival=req.arrival,
                    start=start, finish=finish, service_s=service,
                    wall_s=wall, warm_cache=result.warm_cache,
                    built_session=built, version=version,
                    digest=result_digest(result, version)))
            pool_stats = {rid: pool.stats.as_dict()
                          for rid, pool in pools.items()}
        finally:
            for pool in pools.values():
                pool.close()
        wall_clock = time.perf_counter() - t_run
        records.sort(key=lambda r: r.qid)
        makespan = max(r.finish for r in records)
        return ReplicaReadOutcome(
            records=records, makespan_s=float(makespan),
            throughput_qps=float(len(records) / makespan),
            wall_clock_s=wall_clock, replica_counts=counts,
            pool_stats=pool_stats, killed=killed, rejoined=rejoined)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ReplicaSet({len(self.live_ids())}/"
                f"{len(self._stores)} live, reseeds={self.reseeds})")
