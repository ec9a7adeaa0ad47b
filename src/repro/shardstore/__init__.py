"""Sharding, routing and replication over the versioned graph store.

The distribution layer the single-node :class:`~repro.graphstore.store
.GraphStore` was missing::

    ShardRouter        (consistent hashing: session_key -> store)
        |
        v
    ReplicaSet         (1 primary + N read replicas, digest-converged)
        |                 a diverged replica is evicted + re-seeded
        v
    ShardedGraphStore  (one logical graph -> partition-aligned shards)
        |                 k-shard commit = one logical version (barrier)
        v
    GraphStore x nshards  (independent per-shard version chains)

Three guarantees, all *checked values* rather than conventions:

* **bit-identity** — a sharded store answers every kernel exactly like
  the unsharded store; every commit is digest-proved by reassembling
  the shards against the logical application;
* **ring stability** — adding/removing a store moves only ~K/N session
  keys (the property suite pins both bounds);
* **convergence** — replicas apply commits independently, and equal
  chained history digests prove equal version-by-version histories.

Quickstart::

    from repro.shardstore import ReplicaSet, ShardedGraphStore

    store = ShardedGraphStore({"social": graph}, nshards=4, nranks=8)
    update = store.apply("social", batch)      # k shards, one version
    assert store.check_version_vector("social") == []

    rs = ReplicaSet({"social": graph}, replicas=3, nshards=4)
    rs.commit("social", batch)
    assert rs.verify() == []                   # digest-converged

``repro bench shard`` benches the layer end to end (read scaling vs replica
count, cross-shard commit latency, the failover drill) into the
committed ``BENCH_shard.json``.
"""

from repro.shardstore.plan import ShardPlan
from repro.shardstore.replica import ReadRecord, ReplicaReadOutcome, ReplicaSet
from repro.shardstore.router import HashRing, ShardRouter
from repro.shardstore.sharded import (
    ShardSnapshot,
    ShardedGraphStore,
    ShardedUpdate,
    annotate_shard_sets,
)

__all__ = [
    "HashRing",
    "ReadRecord",
    "ReplicaReadOutcome",
    "ReplicaSet",
    "ShardPlan",
    "ShardRouter",
    "ShardSnapshot",
    "ShardedGraphStore",
    "ShardedUpdate",
    "annotate_shard_sets",
]
