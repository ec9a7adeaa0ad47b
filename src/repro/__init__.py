"""Asynchronous distributed-memory triangle counting and LCC with RMA caching.

A production-quality Python reproduction of Strausz, Vella, Di Girolamo,
Besta and Hoefler (IPDPS 2022, arXiv:2202.13976): fully asynchronous
distributed TC/LCC over one-sided RMA reads of a 1D-partitioned CSR graph,
with CLaMPI-style caching of remote accesses and degree-centrality
eviction scores.

Quickstart — one resident cluster, many queries::

    from repro import Session
    from repro.core import CacheSpec, LCCConfig
    from repro.graph import load_dataset

    g = load_dataset("livejournal")
    cfg = LCCConfig(nranks=64, threads=12,
                    cache=CacheSpec.paper_split(2 * g.nbytes, g.n,
                                                score="degree"))
    with Session(g, cfg) as session:
        lcc = session.run("lcc", keep_cache=True)    # cold CLaMPI caches
        warm = session.run("lcc", keep_cache=True)   # warm: paper's reuse win
        tric = session.run("tric")                   # baselines by name
        cells = session.sweep({"ssi": {"method": "ssi"},
                               "hybrid": {"method": "hybrid"}})

Kernels (``lcc``, ``tc``, ``tc2d``, ``tric``, ``disttc``, ``mapreduce``)
are registered by name; add your own with
:func:`~repro.session.register_kernel`.  The single-shot helpers
(:func:`repro.core.compute_lcc`, :func:`repro.core.count_triangles`)
remain as thin wrappers.

Subpackages: :mod:`repro.runtime` (simulated MPI/RMA), :mod:`repro.clampi`
(the cache), :mod:`repro.graph` (CSR/generators/partitioning),
:mod:`repro.core` (the paper's algorithms), :mod:`repro.baselines`
(TriC, DistTC, MapReduce), :mod:`repro.analysis` (the experiment harness
regenerating every table and figure); :mod:`repro.session` (the
resident-cluster query API); :mod:`repro.dynamic` (batched edge updates,
per-version rescoring and targeted cache invalidation);
:mod:`repro.graphstore` (the versioned graph store and the resident 1D /
2D clusters it feeds); :mod:`repro.serve` (multi-tenant query serving
with cache-affinity scheduling over a bounded session pool, mixing reads
with versioned graph updates — serially or through the cooperative
async engine, whose overlapped answers are pinned bit-identical to the
serial oracle); :mod:`repro.shardstore` (partition-aligned
shards with cross-shard commit barriers, consistent-hash routing and
digest-verified read replicas over the store); :mod:`repro.obs` (the
observability layer: simulated-clock span tracing, the typed metrics
registry, the replayable decision journal with its fence-legality
verifier, and the Chrome-trace/utilization exporters — pass
``Observation.enabled()`` to the async engine to collect everything).
"""

__version__ = "1.7.0"

from repro.dynamic import (  # noqa: E402
    DeltaBuffer,
    UpdateBatch,
    apply_delta,
)
from repro.graphstore import (  # noqa: E402
    GraphStore,
    GraphVersion,
    GridCluster2D,
    ResidentCluster,
)
from repro.obs import (  # noqa: E402
    MetricsRegistry,
    Observation,
    SpanTracer,
)
from repro.shardstore import (  # noqa: E402
    ReplicaSet,
    ShardPlan,
    ShardRouter,
    ShardedGraphStore,
)
from repro.session import (  # noqa: E402
    KernelResult,
    KernelSpec,
    Session,
    UpdateOutcome,
    get_kernel,
    kernel_names,
    register_kernel,
    run_kernel,
    unregister_kernel,
)

__all__ = [
    "DeltaBuffer",
    "GraphStore",
    "GraphVersion",
    "GridCluster2D",
    "KernelResult",
    "KernelSpec",
    "MetricsRegistry",
    "Observation",
    "ReplicaSet",
    "ResidentCluster",
    "Session",
    "ShardPlan",
    "ShardRouter",
    "ShardedGraphStore",
    "SpanTracer",
    "UpdateBatch",
    "UpdateOutcome",
    "apply_delta",
    "get_kernel",
    "kernel_names",
    "register_kernel",
    "run_kernel",
    "unregister_kernel",
    "__version__",
]
