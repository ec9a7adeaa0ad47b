"""The replay's edge record: one per graph version, shared by every shape.

:class:`repro.core.replay.EdgeRecord` holds what depends on the graph
version alone (the edge stream, list lengths, ``tc``'s upper edges and
kernel times); each cluster shape builds only its partition half.  One
session swept over rank counts, partitions, kernels and an update must
answer exactly as a fresh session per shape and as the per-edge loop, and
the record must live exactly as long as its graph version on the
session's cluster.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core.config import CacheSpec, LCCConfig
from repro.dynamic.delta import UpdateBatch
from repro.graph.generators import powerlaw_configuration
from repro.session import Session
from tests.core.test_cached_fast_parity import assert_bit_identical

GRAPH = powerlaw_configuration(160, 900, seed=21)
SPEC = CacheSpec(offsets_bytes=2048, adj_bytes=8192)
#: Inserts one absent edge and one edge to a vertex of the tail.
CHANGE = UpdateBatch.build(np.array([[0, 1], [2, 150]]), n=GRAPH.n)
SWEEP = (4, 64, 4)


def record_of(session: Session):
    """The edge record on the session's resident 1D cluster."""
    return session._c1d._dist.edge_record


@pytest.mark.parametrize("overlap", [True, False], ids=["overlap", "seq"])
@pytest.mark.parametrize("cache", [SPEC, None], ids=["cached", "no-cache"])
@pytest.mark.parametrize("partition", ["block", "cyclic"])
def test_one_session_sweep_equals_fresh_sessions_and_the_loop(
        partition, cache, overlap):
    """4 -> 64 -> 4 ranks, before and after an update, on one session:
    results, clocks, traces and ``CacheStats`` equal a fresh session per
    shape and the ``fast_path=False`` loop, bit for bit."""
    cfg = LCCConfig(partition=partition, cache=cache, overlap=overlap)
    with Session(GRAPH, cfg) as swept:
        for update in (None, CHANGE):
            if update is not None:
                swept.apply_updates(update)
            for nranks in SWEEP:
                for kernel in ("lcc", "tc"):
                    got = swept.run(kernel, nranks=nranks)
                    for oracle in (cfg, cfg.replace(fast_path=False)):
                        with Session(swept.graph, oracle) as fresh:
                            assert_bit_identical(
                                fresh.run(kernel, nranks=nranks), got)
        # The update resyncs the 4-rank cluster, which the next query reuses.
        assert swept.partition_builds == 2 * len(SWEEP) - 1


class TestLifetime:
    def test_a_new_shape_keeps_the_record(self):
        with Session(GRAPH, LCCConfig(nranks=4)) as s:
            s.run("lcc")
            record = record_of(s)
            for opts in ({"nranks": 64}, {"partition": "cyclic"},
                         {"nranks": 4}):
                s.run("tc", **opts)
                assert record_of(s) is record
            assert s.partition_builds == 4

    def test_close_drops_the_record(self):
        s = Session(GRAPH, LCCConfig(nranks=4))
        results = [s.run("lcc"), s.run("tc", nranks=64)]
        record = record_of(s)
        refs = [weakref.ref(a) for a in (record.dst, record.lb,
                                         *record._kern.values())]
        del record
        s.close()
        gc.collect()
        assert [r() for r in refs] == [None] * len(refs)
        assert all(r.outcome.clocks for r in results)

    def test_an_unchanged_delta_keeps_the_record(self):
        with Session(GRAPH, LCCConfig(nranks=4)) as s:
            s.run("lcc")
            record = record_of(s)
            present = GRAPH.adjacency[GRAPH.offsets[0]:GRAPH.offsets[1]]
            out = s.apply_updates(UpdateBatch.build(
                np.array([[0, int(present[0])]]), n=GRAPH.n))
            assert not out.delta.changed
            s.run("tc", nranks=64)
            assert record_of(s) is record

    def test_a_changed_delta_replaces_the_record(self):
        with Session(GRAPH, LCCConfig(nranks=4)) as s:
            s.run("lcc")
            before = weakref.ref(record_of(s).dst)
            assert s.apply_updates(CHANGE).delta.changed
            assert record_of(s) is None
            gc.collect()
            assert before() is None
            s.run("lcc")
            assert record_of(s).dst.shape[0] == s.graph.adjacency.shape[0]
