"""Warm replays off the pricing record equal the per-edge loop, bit for bit.

A resident session answers a random sequence of ``lcc`` / ``tc`` queries
— intersection method, overlap, threads and wait policy drawn per query,
``memory=`` / ``compute=`` overrides, ``keep_cache`` on and off, and one
update batch somewhere in the sequence — so the replay's pricing record is
filled, reused, repriced under other models and dropped by the update.
Every answer must equal the same sequence on a ``fast_path=False`` twin:
per-rank clocks, every ``RankTrace`` field, both ``CacheStats`` snapshots,
and in the end the cache contents themselves.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CacheSpec, LCCConfig
from repro.dynamic.delta import UpdateBatch
from repro.graph.generators import powerlaw_configuration
from repro.runtime.compute import ComputeModel
from repro.runtime.network import MemoryModel
from repro.session import Session
from tests.helpers import assert_caches_identical

GRAPH = powerlaw_configuration(120, 700, seed=5)
SPEC = CacheSpec(offsets_bytes=1024, adj_bytes=4096)
#: Overrides that reprice a column: local reads, kernel times and tail.
MODELS = {"memory": MemoryModel(dram_latency=250e-9, dram_bandwidth=8e9),
          "compute": ComputeModel(c_ssi=30e-9, vertex_overhead=90e-9)}
HUB = int(GRAPH.degrees().argmax())
UPDATE = UpdateBatch.build(
    inserts=[[0, 7], [3, 90], [50, 51]],
    deletes=[[HUB, int(v)] for v in GRAPH.adj(HUB)[:2]], n=GRAPH.n)

queries = st.fixed_dictionaries({
    "kernel": st.sampled_from(["lcc", "tc"]),
    "method": st.sampled_from(["ssi", "binary", "hybrid"]),
    "overlap": st.booleans(),
    "threads": st.sampled_from([1, 4]),
    "wait_policy": st.sampled_from(["active", "passive"]),
    "keep_cache": st.sampled_from([True, True, False]),
    "model": st.sampled_from([None, None, "memory", "compute"]),
})


def run(session, query):
    opts = dict(query)
    model = opts.pop("model")
    if model is not None:
        opts[model] = MODELS[model]
    return session.run(opts.pop("kernel"), **opts)


def assert_same_run(loop, fast):
    assert [c.hex() for c in fast.outcome.clocks] == \
        [c.hex() for c in loop.outcome.clocks]
    assert [dataclasses.astuple(t) for t in fast.outcome.traces] == \
        [dataclasses.astuple(t) for t in loop.outcome.traces]
    assert fast.raw.offsets_cache_stats == loop.raw.offsets_cache_stats
    assert fast.raw.adj_cache_stats == loop.raw.adj_cache_stats
    assert fast.global_triangles == loop.global_triangles


@given(st.lists(queries, min_size=3, max_size=8), st.data())
@settings(max_examples=40, deadline=None)
def test_warm_sequence_equals_loop(sequence, data):
    update_at = data.draw(st.integers(1, len(sequence) - 1))
    cfg = LCCConfig(nranks=4, cache=SPEC)
    with Session(GRAPH, cfg) as fast, \
            Session(GRAPH, cfg.replace(fast_path=False)) as loop:
        for i, query in enumerate(sequence):
            if i == update_at:
                for session in (fast, loop):
                    session.apply_updates(UPDATE)
            assert_same_run(run(loop, query), run(fast, query))
        for ours, theirs in zip(fast.clusters()[0].caches,
                                loop.clusters()[0].caches):
            assert_caches_identical(ours, theirs)
