"""One logical graph, many shards: the distributed version of GraphStore.

A :class:`ShardedGraphStore` partitions every registered graph by a
:class:`~repro.shardstore.plan.ShardPlan` and keeps each shard in its own
independent :class:`~repro.graphstore.store.GraphStore` with its own
version chain and chained history digest.  The logical store's surface
duck-types the subset of ``GraphStore`` the serving layer uses
(``graph`` / ``apply`` / ``version`` / ``digest`` / ``names`` /
``__contains__``), so the :class:`~repro.serve.pool.SessionPool` and
:class:`~repro.serve.engine.ServingEngine` run over it unchanged.

**Commit protocol** (:meth:`apply`): a batch touching ``k`` shards
commits as *one* logical version —

1. the logical truth is computed first (``apply_delta`` against the
   logical head), yielding the exact :class:`~repro.dynamic.delta
   .DeltaResult` resident sessions resync from;
2. the batch is split into per-shard sub-batches by the source vertex of
   each stored-form key and applied to each touched shard's store,
   advancing that shard's chain by exactly one;
3. a **barrier** fences readers for the duration: ``graph`` / ``digest``
   / ``version`` on a mid-commit graph raise, so no reader can observe
   the store with only some of the ``k`` shards advanced;
4. the commit is **digest-proved**: the shard slices are reassembled and
   their bytes compared against the logical head — a sharded store can
   never silently diverge from what a single ``GraphStore`` would hold.

**Version vector**: per graph, the tuple of shard-chain versions.  The
logical version is the commit count; each commit advances exactly the
touched shards, and :meth:`check_version_vector` re-derives the vector
from the commit log to prove they agree.

**Digests under shard fencing**: updates with *disjoint* shard sets may
be served in different orders by different schedulers (that is the
concurrency the per-(graph, shard-set) fence unlocks), so a per-request
digest over the global commit counter would be scheduler-dependent.
Instead, an update's digest covers only its **touched shards'** chain
states — invariant under reordering of disjoint commits — and the
store-level :meth:`digest` folds every shard's chain digest in shard
order, which is deterministic because each shard's own chain is.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.dynamic.delta import DeltaResult, UpdateBatch, apply_delta
from repro.graph.csr import CSRGraph
from repro.graphstore.store import GraphStore, GraphVersion, graph_digest
from repro.obs.trace import span as obs_span
from repro.shardstore.plan import ShardPlan
from repro.utils.errors import ConfigError, SimulationError

__all__ = ["ShardSnapshot", "ShardedGraphStore", "ShardedUpdate",
           "annotate_shard_sets"]


@dataclass(frozen=True)
class ShardedUpdate:
    """What one logical commit did to a sharded store.

    Duck-types :class:`~repro.graphstore.store.StoreUpdate` for the
    serving engine (``version`` / ``delta`` / ``digest`` / ``graph`` /
    ``changed`` / ``coalesced``), plus the shard-level outcome.
    """

    version: GraphVersion             # logical commit count after this commit
    delta: DeltaResult                # logical outcome (new graph, affected)
    digest: str                       # over the touched shards' chain states
    shards: frozenset                 # shard ids this commit advanced
    shard_versions: tuple             # ((shard, version after commit), ...)
    coalesced: int = 0

    @property
    def graph(self) -> CSRGraph:
        return self.delta.graph

    @property
    def changed(self) -> bool:
        return self.delta.changed


@dataclass(frozen=True)
class ShardSnapshot:
    """A consistent copy of one graph's sharded state (replica reseed)."""

    name: str
    version: int                      # logical commit count
    log: tuple                        # touched frozenset per commit
    head: CSRGraph = field(repr=False)
    shards: tuple = field(repr=False)  # (version, digest, slice) per shard


class ShardedGraphStore:
    """Partition-aligned shards over a catalog of named graphs.

    ``nshards`` shards per graph, with boundaries grouping the
    ``nranks``-rank 1D block partition (``nranks`` defaults to
    ``nshards``; it must be a multiple so the plan aligns — see
    :meth:`ShardPlan.align_1d`).  ``plan_for`` overrides the geometry
    per graph (e.g. :meth:`ShardPlan.align_2d` for ``tc2d``-heavy
    catalogs).
    """

    def __init__(self, catalog: Mapping[str, CSRGraph] | None = None, *,
                 nshards: int = 2, nranks: int | None = None,
                 plan_for: Callable[[CSRGraph], ShardPlan] | None = None):
        if nshards < 1:
            raise ConfigError(f"need >= 1 shard, got {nshards}")
        self.nshards = int(nshards)
        self.nranks = int(nranks) if nranks is not None else self.nshards
        self._plan_for = plan_for
        self._plans: dict[str, ShardPlan] = {}
        self._shards: dict[str, list[GraphStore]] = {}
        self._heads: dict[str, CSRGraph] = {}
        self._counts: dict[str, int] = {}
        self._log: dict[str, list[frozenset]] = {}
        self._fenced: set[str] = set()
        if catalog:
            for name, graph in catalog.items():
                self.add(name, graph)

    # -- registration --------------------------------------------------------
    def add(self, name: str, graph: CSRGraph, *,
            overwrite: bool = False) -> GraphVersion:
        """Register ``graph``: slice it into shards, each at version 0."""
        if not name:
            raise ConfigError("a stored graph needs a non-empty name")
        if name in self._plans and not overwrite:
            raise ConfigError(
                f"graph {name!r} is already stored; pass overwrite=True to "
                "restart its history")
        plan = (self._plan_for(graph) if self._plan_for is not None
                else ShardPlan.align_1d(graph.n, self.nranks, self.nshards))
        self._plans[name] = plan
        self._shards[name] = [
            GraphStore({name: plan.slice_shard(graph, s)})
            for s in range(plan.nshards)]
        self._heads[name] = graph
        self._counts[name] = 0
        self._log[name] = []
        self._fenced.discard(name)
        return GraphVersion(name, 0)

    # -- introspection -------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._plans

    def __len__(self) -> int:
        return len(self._plans)

    def names(self) -> list[str]:
        return sorted(self._plans)

    def plan(self, name: str) -> ShardPlan:
        self._check_name(name)
        return self._plans[name]

    def _check_name(self, name: str) -> None:
        if name not in self._plans:
            raise ConfigError(
                f"graph {name!r} is not in the store "
                f"({', '.join(self.names()) or 'empty'})")

    def _check_fence(self, name: str) -> None:
        if name in self._fenced:
            raise ConfigError(
                f"graph {name!r} is mid-commit: the cross-shard barrier "
                "fences readers until every touched shard has landed")

    def fenced(self, name: str) -> bool:
        """Is ``name`` mid-commit right now (readers fenced)?

        The non-blocking probe: a cooperative reader can ask instead of
        catching the fence's :class:`~repro.utils.errors.ConfigError`,
        and fall back to a :meth:`graph` ``stable=True`` read.
        """
        self._check_name(name)
        return name in self._fenced

    def version(self, name: str, *, stable: bool = False) -> GraphVersion:
        """The logical version: how many commits ``name`` has taken.

        With ``stable=True`` the read never blocks on the commit
        barrier: the logical count only advances *after* the barrier
        drops, so mid-commit it is exactly the latest committed
        version — the one a ``stable`` graph read serves.
        """
        self._check_name(name)
        if not stable:
            self._check_fence(name)
        return GraphVersion(name, self._counts[name])

    def version_vector(self, name: str) -> tuple[int, ...]:
        """Per-shard chain versions, in shard order."""
        self._check_name(name)
        self._check_fence(name)
        return tuple(store.version(name).version
                     for store in self._shards[name])

    def graph(self, name: str, version: int | None = None, *,
              stable: bool = False) -> CSRGraph:
        """The logical snapshot: the head, or any retained ``version``.

        Historical versions are **assembled from the shard chains**: the
        commit log says which shard version corresponds to logical
        version ``v`` (the number of commits among the first ``v`` that
        touched the shard), so the sharded store time-travels without
        retaining any logical snapshot but the head.

        ``stable=True`` makes the head read **non-blocking**: mid-commit
        it returns the last *committed* head instead of raising — the
        head reference is only swapped after the cross-shard barrier
        drops, so what a fenced reader sees is a consistent pre-commit
        snapshot (never a half-applied mix of shards).  Historical reads
        assemble from the shard chains, which *are* mid-mutation during
        a commit, so they always honor the fence.
        """
        self._check_name(name)
        if version is None and stable:
            return self._heads[name]
        self._check_fence(name)
        count = self._counts[name]
        if version is None or version == count:
            return self._heads[name]
        if not (0 <= version <= count):
            raise ConfigError(
                f"graph {name!r} has versions 0..{count}, not {version}")
        plan, head = self._plans[name], self._heads[name]
        log = self._log[name][:version]
        slices = [
            store.graph(name, sum(1 for touched in log if s in touched))
            for s, store in enumerate(self._shards[name])]
        return plan.assemble(slices, directed=head.directed, name=head.name)

    def shard_digest(self, name: str, shard: int) -> str:
        """One shard's chained history digest."""
        self._check_name(name)
        self._check_fence(name)
        return self._shards[name][shard].digest(name)

    def digest(self, name: str) -> str:
        """The store-level digest: every shard's chain digest, folded.

        Shard order is deterministic and each shard's chain is
        scheduler-independent (conflicting commits are fenced into
        arrival order; disjoint commits touch disjoint chains), so this
        value is too — it is what ``graph_versions`` comparisons between
        serving runs check.
        """
        self._check_name(name)
        self._check_fence(name)
        h = hashlib.sha1()
        for s, store in enumerate(self._shards[name]):
            h.update(f"{s}:{store.digest(name)}|".encode())
        return h.hexdigest()

    def digests(self) -> dict[str, str]:
        return {name: self.digest(name) for name in self.names()}

    # -- the commit path -----------------------------------------------------
    def apply(self, name: str, batch: UpdateBatch, *, strict: bool = False,
              coalesced: int = 0,
              _on_subcommit: Callable | None = None) -> ShardedUpdate:
        """Commit one batch across every shard it touches, atomically.

        See the module docstring for the protocol.  ``_on_subcommit`` is
        a test hook invoked after each shard sub-commit, while the
        barrier still fences readers.  A batch that touches nothing
        still advances the logical version (history records the write),
        without advancing any shard chain.
        """
        self._check_name(name)
        self._check_fence(name)
        head = self._heads[name]
        res = apply_delta(head, batch, strict=strict)
        plan = self._plans[name]
        sub = plan.split_batch(batch)
        self._fenced.add(name)
        try:
            with obs_span("barrier", cat="shard", graph=name,
                          shards=sorted(sub)) as sp:
                pieces = []
                for s in sorted(sub):
                    pieces.append((s, self._shards[name][s].apply(
                        name, sub[s], strict=strict)))
                    if _on_subcommit is not None:
                        _on_subcommit(name, s)
                assembled = plan.assemble(
                    [store.graph(name) for store in self._shards[name]],
                    directed=head.directed, name=head.name)
                if graph_digest(assembled) != graph_digest(res.graph):
                    # Per-shard application == whole-batch application
                    # is a structural invariant (the property suite pins
                    # it); serving from diverged shards would be silent
                    # corruption, so fail loudly mid-barrier.
                    raise SimulationError(
                        f"sharded commit for {name!r} diverged from the "
                        "unsharded application (assembly digest mismatch)")
                sp.note(subcommits=len(pieces))
        finally:
            self._fenced.discard(name)
        self._heads[name] = res.graph
        self._counts[name] += 1
        touched = frozenset(sub)
        self._log[name].append(touched)
        h = hashlib.sha1()
        shard_versions = []
        for s, upd in pieces:
            shard_versions.append((s, upd.version.version))
            h.update(f"{s}:{upd.version.version}:{upd.digest}|".encode())
        return ShardedUpdate(
            version=GraphVersion(name, self._counts[name]), delta=res,
            digest=h.hexdigest(), shards=touched,
            shard_versions=tuple(shard_versions), coalesced=coalesced)

    def touched_by(self, name: str, inserts=None, deletes=None) -> frozenset:
        """Which shards a raw edge-array update for ``name`` would touch.

        Batch content is a pure function of the arrays (mirroring how the
        engine builds them), so the answer is service-order independent —
        it is what workload annotation stamps on requests for the
        per-(graph, shard-set) fence.
        """
        self._check_name(name)
        head = self._heads[name]
        batch = UpdateBatch.build(inserts, deletes, n=head.n,
                                  directed=head.directed)
        return self._plans[name].touched_shards(batch)

    # -- consistency proofs --------------------------------------------------
    def check_version_vector(self, name: str) -> list[str]:
        """Re-derive the version vector from the commit log; return problems.

        Each shard's chain version must equal the number of logical
        commits that touched it, and the logical version must equal the
        log length — the cross-shard barrier's "all k land as one
        logical version" contract, checked after the fact.
        """
        self._check_name(name)
        self._check_fence(name)
        problems = []
        log = self._log[name]
        if self._counts[name] != len(log):
            problems.append(
                f"{name}: logical version {self._counts[name]} != "
                f"{len(log)} logged commits")
        for s, actual in enumerate(self.version_vector(name)):
            expected = sum(1 for touched in log if s in touched)
            if actual != expected:
                problems.append(
                    f"{name}: shard {s} at version {actual}, but "
                    f"{expected} commits touched it")
        return problems

    # -- replica snapshot / reseed -------------------------------------------
    def snapshot(self, name: str) -> ShardSnapshot:
        """A consistent copy of ``name``'s sharded state (for reseeding)."""
        self._check_name(name)
        self._check_fence(name)
        shards = tuple(
            (store.version(name).version, store.digest(name),
             store.graph(name))
            for store in self._shards[name])
        return ShardSnapshot(name=name, version=self._counts[name],
                             log=tuple(self._log[name]),
                             head=self._heads[name], shards=shards)

    def seed(self, name: str, snap: ShardSnapshot, *,
             overwrite: bool = True) -> GraphVersion:
        """Adopt a primary's :meth:`snapshot` wholesale.

        Every shard chain restarts at the snapshot's (version, digest)
        via :meth:`GraphStore.seed` — adopting the primary's chained
        digests is what lets a re-seeded replica prove convergence with
        the primary on the very next commit.  The snapshot's geometry
        must match this store's plan for the graph (same boundaries).
        """
        if snap.name != name:
            raise ConfigError(
                f"snapshot is of {snap.name!r}, not {name!r}")
        self._check_name(name)
        plan = self._plans[name]
        if len(snap.shards) != plan.nshards:
            raise ConfigError(
                f"snapshot has {len(snap.shards)} shards, plan expects "
                f"{plan.nshards}")
        with obs_span("reseed", cat="shard", graph=name,
                      version=snap.version, nshards=len(snap.shards)):
            for s, (version, digest, piece) in enumerate(snap.shards):
                store = GraphStore()
                store.seed(name, piece, version=version, digest=digest)
                self._shards[name][s] = store
            self._heads[name] = snap.head
            self._counts[name] = snap.version
            self._log[name] = list(snap.log)
        if overwrite:  # signature symmetry with add(); seed always replaces
            self._fenced.discard(name)
        return GraphVersion(name, snap.version)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = ", ".join(
            f"{name}@v{self._counts[name]}x{self._plans[name].nshards}"
            for name in self.names())
        return f"ShardedGraphStore({parts})"


def annotate_shard_sets(requests: Iterable, store: ShardedGraphStore) -> list:
    """Stamp each update request with the shard set its batch touches.

    Returns a new request list: updates carry ``shards=frozenset(...)``
    (empty sets conservatively stay ``None`` — fence everything), queries
    keep ``shards=None`` because a kernel reads the whole graph and must
    conflict with every update on it.  Annotation is a pure function of
    request content, so the per-(graph, shard-set) fence stays
    scheduler-independent.
    """
    out = []
    for req in requests:
        if req.is_update and req.graph in store:
            touched = store.touched_by(req.graph, req.inserts, req.deletes)
            out.append(req.with_shards(touched))
        else:
            out.append(req)
    return out
