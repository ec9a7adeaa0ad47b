"""The replay's pricing record: filled by the first query, used by the rest.

``core/replay.py`` prices every column that reads no cache output (kernel
times, local reads, the comp fold) once per partition and cost model, for
every rank at once.  These tests count the pricing calls per cluster,
check that the counts do not grow with the rank count, that a model
change reprices exactly the columns that read it, and that a pricing
which raises leaves nothing behind: the next query equals the per-edge
loop bit for bit.
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


#: Segmented folds per query: the clock, then the misses' and the hits'
#: get times.  The comp fold is one more, once per pricing.
FOLDS = 3


@pytest.fixture
def calls(monkeypatch):
    """Calls of each pricing function (and of the segmented fold)."""
    counts: Counter = Counter()

    def counting(name, fn):
        def wrapper(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)
        return wrapper

    for name in ("kernel_times_vectorized", "_adjacency_starts",
                 "fold_segments"):
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
    """Every count is per cluster: none of them scales with the ranks."""

    def test_warm_queries_price_once(self, calls):
        with Session(GRAPH, LCCConfig(nranks=NRANKS, cache=SPEC)) as s:
            first = per_query(calls, lambda: s.run("lcc", keep_cache=True))
            # Kernel times once; own and loc reads once each; one start
            # table per dist; the comp fold on the first query only.
            assert first == Counter(
                kernel_times_vectorized=1, _adjacency_starts=1,
                local_read_times=2, fold_segments=1 + 4 * FOLDS)
            warm = per_query(calls, lambda: s.run("lcc", keep_cache=True))
            assert warm == Counter(fold_segments=4 * FOLDS)

    def test_each_method_and_overlap_priced_once(self, calls):
        with Session(GRAPH, LCCConfig(nranks=NRANKS, cache=SPEC)) as s:
            s.run("lcc", keep_cache=True)
            for method in ("ssi", "binary"):
                added = per_query(calls, lambda: s.run(
                    "lcc", keep_cache=True, method=method))
                assert added == Counter(kernel_times_vectorized=1,
                                        fold_segments=1 + 4 * FOLDS)
            added = per_query(calls, lambda: s.run(
                "lcc", keep_cache=True, overlap=False))
            assert added == Counter(fold_segments=1 + 4 * FOLDS)  # comp

    def test_update_reprices_once(self, calls):
        with Session(GRAPH, LCCConfig(nranks=NRANKS, cache=SPEC)) as s:
            s.run("lcc", keep_cache=True)
            s.apply_updates(UpdateBatch.build(
                np.array([[0, 1], [2, 150]]), n=GRAPH.n))
            added = per_query(calls, lambda: s.run("lcc", keep_cache=True))
            assert added == Counter(
                kernel_times_vectorized=1, _adjacency_starts=1,
                local_read_times=2, fold_segments=1 + 4 * FOLDS)

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
            assert added == Counter(local_read_times=2,
                                    fold_segments=1 + 3 * FOLDS)

    @pytest.mark.parametrize("cache", [SPEC, None], ids=["cached", "no-cache"])
    def test_counts_do_not_scale_with_ranks(self, calls, cache):
        """The same queries at 4 and at 16 ranks price and fold the same
        number of times: a per-rank loop would multiply these counts."""
        seen = []
        for nranks in (4, 16):
            with Session(GRAPH, LCCConfig(nranks=nranks, cache=cache)) as s:
                seen.append(per_query(calls, lambda: (
                    s.run("lcc", keep_cache=True),
                    s.run("tc", keep_cache=True)), n=2))
        assert seen[0] == seen[1]
        assert seen[0] == Counter(
            kernel_times_vectorized=2, _adjacency_starts=2,
            local_read_times=4, fold_segments=2 + 4 * FOLDS)


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
    @pytest.mark.parametrize("stage", ["kernel_times_vectorized", "comp"])
    def test_raising_pricing_leaves_no_record(self, monkeypatch, stage):
        """A pricing stage that raises — the kernel times, or the comp
        fold after them — leaves the caches and the record fit to use."""
        cfg = LCCConfig(nranks=NRANKS, cache=SPEC)
        with Session(GRAPH, cfg) as fast, \
                Session(GRAPH, cfg.replace(fast_path=False)) as loop:
            assert_bit_identical(loop.run("lcc", keep_cache=True),
                                 fast.run("lcc", keep_cache=True))

            def flaky(*args, **kw):
                raise RuntimeError("pricing failed")

            owner = replay if stage != "comp" else replay.SlotTable
            monkeypatch.setattr(owner, stage, flaky)
            with pytest.raises(RuntimeError, match="pricing failed"):
                fast.run("lcc", keep_cache=True, method="ssi")
            monkeypatch.undo()
            # The caches saw no get of the failed query, so the warm
            # loop twin, which never ran it, is the oracle.
            for kw in ({"method": "ssi"}, {"method": "ssi"}, {}):
                assert_bit_identical(
                    loop.run("lcc", keep_cache=True, **kw),
                    fast.run("lcc", keep_cache=True, **kw))
