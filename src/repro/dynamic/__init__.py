"""Dynamic graphs: batched edge updates over the resident cluster.

The write path of the system.  Two layers:

* :mod:`repro.dynamic.delta` — validated insert/delete batches
  (:class:`UpdateBatch`, :class:`DeltaBuffer`) and the vectorized CSR
  merge :func:`apply_delta`, which also derives the affected-vertex set;
* :mod:`repro.dynamic.invalidate` — exact CLaMPI invalidation: which
  ``(target, offset, count)`` cache keys went stale when a rank's CSR
  slice was rebuilt, keeping the rest of the warm cache alive.

A new graph version's per-vertex LCC/TC scores are its own record
(:func:`repro.core.local.vertex_scores`), counted in full on its first
read (one oriented pass on an undirected graph); only a batch that
changed nothing shares its parent's record (see
:func:`repro.core.local.inherit_scores`).
:meth:`repro.session.Session.apply_updates` ties them to the resident
cluster; :mod:`repro.serve` adds update traffic to the serving workload.

Quickstart::

    from repro import Session
    from repro.dynamic import UpdateBatch, random_update_batch

    with Session(graph, config) as session:
        warm = session.run("lcc", keep_cache=True)
        outcome = session.apply_updates(
            UpdateBatch.build(inserts=[(0, 7), (3, 9)], n=graph.n))
        fresh = session.run("lcc", keep_cache=True)   # warm where unaffected
"""

from repro.dynamic.delta import (
    DeltaBuffer,
    DeltaResult,
    UpdateBatch,
    apply_delta,
    random_update_arrays,
    random_update_batch,
)
from repro.dynamic.invalidate import (
    ResyncPlan,
    resync_distributed,
    stale_part_keys,
)

__all__ = [
    "DeltaBuffer",
    "DeltaResult",
    "ResyncPlan",
    "UpdateBatch",
    "apply_delta",
    "random_update_arrays",
    "random_update_batch",
    "resync_distributed",
    "stale_part_keys",
]
