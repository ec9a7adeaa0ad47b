"""The replay's pricing record: filled by the first query, used by the rest.

``core/replay.py`` prices every column that reads no cache output (kernel
times, local reads, the comp fold) once per partition and cost model.
These tests count the pricing calls, check that a model change reprices
exactly the columns that read it, and that a pricing which raises leaves
nothing behind: the next query equals the per-edge loop bit for bit.
"""

from collections import Counter

import numpy as np
import pytest

import repro.core.replay as replay
from repro.core.config import CacheSpec, LCCConfig
from repro.core.lcc import execute_lcc
from repro.dynamic.delta import UpdateBatch
from repro.graph.generators import powerlaw_configuration
from repro.runtime.network import MemoryModel
from repro.session import Session
from tests.core.test_cached_fast_parity import assert_bit_identical

GRAPH = powerlaw_configuration(160, 900, seed=21)
NRANKS = 4
SPEC = CacheSpec(offsets_bytes=2048, adj_bytes=8192)


@pytest.fixture
def calls(monkeypatch):
    """Calls of each pricing function (and of the slot-table fold)."""
    counts: Counter = Counter()

    def counting(name, fn):
        def wrapper(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)
        return wrapper

    for name in ("kernel_times_vectorized", "_adjacency_starts",
                 "fold_slots"):
        monkeypatch.setattr(replay, name,
                            counting(name, getattr(replay, name)))
    monkeypatch.setattr(MemoryModel, "local_read_times", counting(
        "local_read_times", MemoryModel.local_read_times))
    return counts


def per_query(calls, run, n=4) -> Counter:
    """What ``n`` calls of ``run`` add to ``calls``."""
    before = Counter(calls)
    for _ in range(n):
        run()
    return Counter(calls) - before


class TestRecordIsUsed:
    def test_warm_queries_price_once(self, calls):
        with Session(GRAPH, LCCConfig(nranks=NRANKS, cache=SPEC)) as s:
            first = per_query(calls, lambda: s.run("lcc", keep_cache=True))
            # Kernel times once per rank; own and loc reads once per rank
            # each; one start table per dist; two folds per rank on the
            # first query (clock and comp), then only the clock.
            assert first == Counter(
                kernel_times_vectorized=NRANKS, _adjacency_starts=1,
                local_read_times=2 * NRANKS, fold_slots=5 * NRANKS)
            warm = per_query(calls, lambda: s.run("lcc", keep_cache=True))
            assert warm == Counter(fold_slots=4 * NRANKS)

    def test_each_method_and_overlap_priced_once(self, calls):
        with Session(GRAPH, LCCConfig(nranks=NRANKS, cache=SPEC)) as s:
            s.run("lcc", keep_cache=True)
            for method in ("ssi", "binary"):
                added = per_query(calls, lambda: s.run(
                    "lcc", keep_cache=True, method=method))
                assert added == Counter(kernel_times_vectorized=NRANKS,
                                        fold_slots=5 * NRANKS)
            added = per_query(calls, lambda: s.run(
                "lcc", keep_cache=True, overlap=False))
            assert added == Counter(fold_slots=5 * NRANKS)  # comp only

    def test_update_reprices_once(self, calls):
        with Session(GRAPH, LCCConfig(nranks=NRANKS, cache=SPEC)) as s:
            s.run("lcc", keep_cache=True)
            s.apply_updates(UpdateBatch.build(
                np.array([[0, 1], [2, 150]]), n=GRAPH.n))
            added = per_query(calls, lambda: s.run("lcc", keep_cache=True))
            assert added == Counter(
                kernel_times_vectorized=NRANKS, _adjacency_starts=1,
                local_read_times=2 * NRANKS, fold_slots=5 * NRANKS)

    def test_memory_model_reprices_reads_not_kernels(self, calls):
        """On one partition, another ``MemoryModel`` reprices ``loc`` /
        ``own`` (and the comp fold that reads them), never kernel times."""
        config = LCCConfig(nranks=NRANKS, cache=SPEC)
        with Session(GRAPH, config) as s:
            s.run("lcc", keep_cache=True)
            other = config.replace(memory=MemoryModel(dram_latency=3e-7))

            def query():
                engine, dist, off, adj = s.resident_cluster(config, True)
                execute_lcc(engine, dist, other, off, adj)
            added = per_query(calls, query, n=3)
            assert added == Counter(local_read_times=2 * NRANKS,
                                    fold_slots=4 * NRANKS)


def test_keys_name_every_field_they_read():
    """Each knob a record key names, changed on one warm partition at a
    time: a key that missed one would replay the old pricing."""
    cfg = LCCConfig(nranks=NRANKS, cache=SPEC, method="binary")
    steps = [{}, {"threads": 4}, {"threads": 4, "wait_policy": "passive"},
             {"threads": 4, "method": "ssi"}, {"overlap": False}, {}]
    with Session(GRAPH, cfg) as fast, \
            Session(GRAPH, cfg.replace(fast_path=False)) as loop:
        for kernel in ("lcc", "tc"):
            for opts in steps:
                assert_bit_identical(
                    loop.run(kernel, keep_cache=True, **opts),
                    fast.run(kernel, keep_cache=True, **opts))
        assert fast.partition_builds == 1


class TestFailClosed:
    def test_raising_pricing_leaves_no_record(self, monkeypatch):
        cfg = LCCConfig(nranks=NRANKS, cache=SPEC)
        with Session(GRAPH, cfg) as fast, \
                Session(GRAPH, cfg.replace(fast_path=False)) as loop:
            assert_bit_identical(loop.run("lcc", keep_cache=True),
                                 fast.run("lcc", keep_cache=True))
            real = replay.kernel_times_vectorized
            priced = []

            def flaky(*args, **kw):
                if priced:  # the second rank's pricing raises
                    raise RuntimeError("pricing failed")
                priced.append(1)
                return real(*args, **kw)

            monkeypatch.setattr(replay, "kernel_times_vectorized", flaky)
            with pytest.raises(RuntimeError, match="pricing failed"):
                fast.run("lcc", keep_cache=True, method="ssi")
            monkeypatch.setattr(replay, "kernel_times_vectorized", real)
            # The caches saw no get of the failed query, so the warm
            # loop twin, which never ran it, is the oracle.
            for kw in ({"method": "ssi"}, {"method": "ssi"}, {}):
                assert_bit_identical(
                    loop.run("lcc", keep_cache=True, **kw),
                    fast.run("lcc", keep_cache=True, **kw))
