"""The Session + kernel-registry subsystem.

Pins the PR's contract: registry registration/lookup semantics,
``Session.run`` results bit-identical to every legacy entry point, warm
CLaMPI caches across queries (the paper's reuse effect at the API level),
and sweeps amortizing one graph partitioning across variants.
"""

import numpy as np
import pytest

from repro.baselines.disttc import DistTCConfig, run_disttc
from repro.baselines.mapreduce import MapReduceConfig, run_mapreduce_tc
from repro.baselines.tric import TricConfig, run_tric
from repro.core.api import compute_lcc, count_triangles
from repro.core.config import CacheSpec, DistributedRunResult, LCCConfig
from repro.core.lcc import run_distributed_lcc
from repro.core.local import lcc_local, triangle_count_local
from repro.core.tc2d import run_distributed_tc_2d
from repro.graph.generators import rmat
from repro.session import (
    KernelResult,
    Session,
    get_kernel,
    kernel_names,
    register_kernel,
    run_kernel,
    unregister_kernel,
)
from repro.utils.errors import ConfigError, KernelError
from tests.helpers import spy_gets


@pytest.fixture(scope="module")
def graph():
    return rmat(9, 10, seed=7)


@pytest.fixture(scope="module")
def cache_spec(graph):
    return CacheSpec.paper_split(graph.nbytes, graph.n, score="degree")


def assert_identical(legacy: DistributedRunResult, res: KernelResult):
    """Bit-identical outcome: scores, counts, clocks and summaries."""
    assert isinstance(res, KernelResult)
    assert res.time == legacy.time
    assert res.outcome.clocks == legacy.outcome.clocks
    assert res.global_triangles == legacy.global_triangles
    if legacy.lcc is None:
        assert res.lcc is None
    else:
        assert np.array_equal(res.lcc, legacy.lcc)
    if legacy.triangles_per_vertex is None:
        assert res.triangles_per_vertex is None
    else:
        assert np.array_equal(res.triangles_per_vertex,
                              legacy.triangles_per_vertex)
    session_summary = res.summary()
    assert session_summary.pop("kernel") == res.kernel
    assert session_summary == legacy.summary()


class TestRegistry:
    def test_builtins_registered(self):
        for name in ("lcc", "tc", "tc2d", "tric", "disttc", "mapreduce"):
            assert name in kernel_names()

    def test_unknown_kernel_raises_with_listing(self, graph):
        with pytest.raises(KernelError, match="nope.*registered kernels"):
            Session(graph).run("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(KernelError, match="already registered"):
            @register_kernel("lcc")
            def clash(session, config, **opts):  # pragma: no cover
                return None

    def test_register_unregister_roundtrip(self, graph):
        @register_kernel("test-noop", description="noop")
        def noop(session, config, *, keep_cache=False, **opts):
            return run_distributed_lcc(session.graph, config)

        try:
            assert get_kernel("test-noop").description == "noop"
            res = Session(graph).run("test-noop")
            assert res.kernel == "test-noop"
            assert np.allclose(res.lcc, lcc_local(graph))
        finally:
            unregister_kernel("test-noop")
        assert "test-noop" not in kernel_names()
        with pytest.raises(KernelError, match="not registered"):
            unregister_kernel("test-noop")

    def test_overwrite_allowed_when_requested(self):
        @register_kernel("test-ow")
        def first(session, config, **opts):  # pragma: no cover
            return None

        try:
            @register_kernel("test-ow", overwrite=True, description="second")
            def second(session, config, **opts):  # pragma: no cover
                return None

            assert get_kernel("test-ow").description == "second"
        finally:
            unregister_kernel("test-ow")

    def test_closed_session_rejects_queries(self, graph):
        session = Session(graph)
        session.run("lcc", nranks=2)
        session.close()
        with pytest.raises(KernelError, match="closed"):
            session.run("lcc")


class TestKernelTraits:
    """``Session.run`` enforces a spec's declared traits, plugins included."""

    @pytest.fixture
    def plugin(self):
        @register_kernel("test-traits", undirected_only=True,
                         square_grid_only=True)
        def traits(session, config, **opts):
            return "ran"

        yield "test-traits"
        unregister_kernel("test-traits")

    def test_undirected_only_rejects_directed_graph(self, plugin):
        g = rmat(6, 4, seed=3, directed=True)
        with pytest.raises(ConfigError, match="test-traits.*undirected"):
            Session(g, LCCConfig(nranks=4)).run(plugin)

    def test_square_grid_only_rejects_rectangular_grid(self, plugin, graph):
        with pytest.raises(ConfigError,
                           match="test-traits.*square.*4 or 9"):
            Session(graph).run(plugin, nranks=8)

    def test_satisfied_traits_run(self, plugin, graph):
        assert Session(graph).run(plugin, nranks=4).raw == "ran"


class TestLoopGets2D:
    """A resident grid's per-edge loop issues the per-call run's gets."""

    CFG = LCCConfig(nranks=4, threads=2, fast_path=False)

    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cached"])
    def test_resident_and_per_call_issue_the_same_gets(self, graph, cached,
                                                       monkeypatch):
        cfg = self.CFG.replace(cache=CacheSpec.relative(
            graph.nbytes, 0.0, 1.0)) if cached else self.CFG
        gets = spy_gets(monkeypatch)
        per_call = run_distributed_tc_2d(graph, self.CFG)
        reference = list(gets)
        runs = []
        with Session(graph, cfg) as s:
            for kernel in ("tc2d", "tc2d", "tc2d_spgemm"):
                gets.clear()
                runs.append(s.run(kernel, keep_cache=True))
                assert gets == reference
        for res in runs:
            for trace in res.outcome.traces:
                # One remote get per remote block fetch, hit or miss.
                remote = [g for g in reference
                          if g[0] == trace.rank and g[2] != trace.rank]
                assert len(remote) == (trace.n_remote_gets
                                       + trace.n_cache_hits) > 0
        if cached:  # the warm queries were served from the block caches
            assert all(t.n_cache_hits for t in runs[-1].outcome.traces)
        else:
            assert runs[0].outcome.clocks == per_call.outcome.clocks
            assert runs[0].outcome.traces == per_call.outcome.traces


class TestLegacyParity:
    """`Session.run` is bit-identical to the scalar-loop oracle and to
    every baseline's entry point."""

    @staticmethod
    def oracle(kernel, graph, cfg):
        """The kernel's scalar loop on a fresh session."""
        return run_kernel(kernel, graph, cfg.replace(fast_path=False)).raw

    def test_lcc_cacheless(self, graph):
        cfg = LCCConfig(nranks=4, threads=4)
        with Session(graph, cfg) as s:
            assert_identical(self.oracle("lcc", graph, cfg), s.run("lcc"))

    def test_lcc_loop_path(self, graph):
        # The loop on a reused cluster prices what it does on a fresh one.
        cfg = LCCConfig(nranks=4, threads=4, fast_path=False)
        with Session(graph, cfg) as s:
            s.run("lcc")
            assert_identical(self.oracle("lcc", graph, cfg), s.run("lcc"))

    def test_lcc_cached(self, graph, cache_spec):
        cfg = LCCConfig(nranks=4, threads=4, cache=cache_spec)
        with Session(graph, cfg) as s:
            legacy = self.oracle("lcc", graph, cfg)
            res = s.run("lcc")
            assert_identical(legacy, res)
            assert res.adj_cache_stats == legacy.adj_cache_stats
            assert res.offsets_cache_stats == legacy.offsets_cache_stats

    def test_tc(self, graph):
        cfg = LCCConfig(nranks=4, threads=4)
        with Session(graph, cfg) as s:
            assert_identical(self.oracle("tc", graph, cfg), s.run("tc"))

    def test_tc2d(self, graph):
        cfg = LCCConfig(nranks=4)
        with Session(graph, cfg) as s:
            assert_identical(self.oracle("tc2d", graph, cfg), s.run("tc2d"))

    def test_tric(self, graph):
        with Session(graph, LCCConfig(nranks=4)) as s:
            legacy = run_tric(graph, TricConfig(nranks=4))
            res = s.run("tric")
            assert_identical(legacy, res)
            assert res.peak_buffer_bytes == legacy.peak_buffer_bytes

    def test_tric_buffered(self, graph):
        with Session(graph, LCCConfig(nranks=4)) as s:
            legacy = run_tric(graph, TricConfig(nranks=4,
                                                buffer_capacity=1 << 14))
            assert_identical(legacy,
                             s.run("tric", buffer_capacity=1 << 14))

    def test_disttc(self, graph):
        with Session(graph, LCCConfig(nranks=4)) as s:
            legacy = run_disttc(graph, DistTCConfig(nranks=4))
            res = s.run("disttc")
            assert_identical(legacy, res)
            assert res.precompute_time == legacy.precompute_time

    def test_mapreduce(self, graph):
        with Session(graph, LCCConfig(nranks=4)) as s:
            legacy = run_mapreduce_tc(graph, MapReduceConfig(nranks=4))
            assert_identical(legacy, s.run("mapreduce"))

    def test_interleaved_queries_stay_identical(self, graph, cache_spec):
        """Back-to-back mixed kernels never contaminate each other."""
        cfg = LCCConfig(nranks=4, threads=4)
        with Session(graph, cfg) as s:
            first = s.run("lcc", fast_path=False)
            s.run("tc")
            s.run("lcc", cache=cache_spec)
            again = s.run("lcc", fast_path=False)
            assert_identical(first.raw, again)

    def test_directed_graph_rejected_for_tc(self):
        g = rmat(6, 4, seed=3, directed=True)
        with pytest.raises(ConfigError, match="undirected"):
            Session(g).run("tc")


class TestWrappers:
    def test_compute_lcc_signature_kept(self, graph):
        local = compute_lcc(graph)
        assert isinstance(local, np.ndarray)
        cfg = LCCConfig(nranks=4)
        dist = compute_lcc(graph, cfg)
        assert isinstance(dist, DistributedRunResult)
        assert np.allclose(dist.lcc, local)

    def test_count_triangles_signature_kept(self, graph):
        assert count_triangles(graph) == triangle_count_local(graph)
        cfg = LCCConfig(nranks=4)
        dist = count_triangles(graph, cfg)
        assert isinstance(dist, DistributedRunResult)
        assert dist.global_triangles == triangle_count_local(graph)

    def test_run_kernel_one_shot(self, graph):
        res = run_kernel("lcc", graph, LCCConfig(nranks=4))
        assert np.allclose(res.lcc, lcc_local(graph))


class TestWarmCache:
    def test_keep_cache_raises_hit_rate_and_speed(self, graph, cache_spec):
        cfg = LCCConfig(nranks=4, threads=4, cache=cache_spec)
        with Session(graph, cfg) as s:
            cold = s.run("lcc", keep_cache=True)
            warm = s.run("lcc", keep_cache=True)
            assert not cold.warm_cache
            assert warm.warm_cache
            assert (warm.adj_cache_stats["hit_rate"]
                    > cold.adj_cache_stats["hit_rate"])
            assert warm.time < cold.time
            # Warm queries keep producing correct, identical scores.
            assert np.array_equal(warm.lcc, cold.lcc)

    def test_default_is_cold_every_query(self, graph, cache_spec):
        cfg = LCCConfig(nranks=4, threads=4, cache=cache_spec)
        with Session(graph, cfg) as s:
            first = s.run("lcc")
            second = s.run("lcc")
            assert not second.warm_cache
            assert_identical(first.raw, second)

    def test_cache_spec_change_invalidates_warm_state(self, graph, cache_spec):
        cfg = LCCConfig(nranks=4, threads=4, cache=cache_spec)
        other = CacheSpec.paper_split(max(4096, graph.nbytes // 4), graph.n)
        with Session(graph, cfg) as s:
            s.run("lcc", keep_cache=True)
            switched = s.run("lcc", cache=other, keep_cache=True)
            assert not switched.warm_cache

    def test_warm_cache_matches_legacy_scores(self, graph, cache_spec):
        """Warm runs change timing, never results."""
        cfg = LCCConfig(nranks=4, threads=4, cache=cache_spec)
        legacy = run_distributed_lcc(graph, cfg)
        with Session(graph, cfg) as s:
            s.run("lcc", keep_cache=True)
            warm = s.run("lcc", keep_cache=True)
            assert np.array_equal(warm.lcc, legacy.lcc)
            assert warm.global_triangles == legacy.global_triangles


class TestSweep:
    def test_sweep_reuses_one_partitioned_graph(self, graph, cache_spec):
        """≥3 variants, one CSR split — the resident-cluster guarantee."""
        cfg = LCCConfig(nranks=4, threads=4)
        with Session(graph, cfg) as s:
            results = s.sweep({
                "plain": {},
                "cached": {"cache": cache_spec},
                "ssi": {"method": "ssi", "fast_path": False},
                "no-overlap": {"overlap": False},
            })
            assert s.partition_builds == 1
            assert set(results) == {"plain", "cached", "ssi", "no-overlap"}
            for res in results.values():
                assert np.allclose(res.lcc, lcc_local(graph))
            assert results["cached"].reused_cluster

    def test_sweep_mixes_kernels(self, graph):
        with Session(graph, LCCConfig(nranks=4)) as s:
            results = s.sweep({
                "async": {"kernel": "tc"},
                "tric": {"kernel": "tric"},
                "mapreduce": {"kernel": "mapreduce"},
            })
            counts = {r.global_triangles for r in results.values()}
            assert counts == {triangle_count_local(graph)}

    def test_nranks_change_rebuilds_cluster(self, graph):
        with Session(graph, LCCConfig(nranks=4, threads=4)) as s:
            s.run("lcc", fast_path=False)
            s.run("lcc", fast_path=False)
            assert s.partition_builds == 1
            s.run("lcc", nranks=8, fast_path=False)
            assert s.partition_builds == 2

    def test_run_kernel_variants_driver(self, graph, cache_spec):
        from repro.analysis.sweep import run_kernel_variants, series

        cells = run_kernel_variants(
            graph, [2, 4],
            {"lcc": {}, "lcc-cached": {"cache": cache_spec},
             "tric": {"kernel": "tric"}},
            config=LCCConfig(threads=4))
        assert len(cells) == 6
        pts = series(cells, "lcc")
        assert [p for p, _ in pts] == [2, 4]
        legacy = run_distributed_lcc(graph, LCCConfig(nranks=2, threads=4))
        assert pts[0][1] == legacy.time


class TestResultSurface:
    def test_summary_tagged_with_kernel(self, graph):
        res = run_kernel("tc", graph, LCCConfig(nranks=2))
        s = res.summary()
        assert s["kernel"] == "tc"
        assert "time" in s and "global_triangles" in s

    def test_summary_reports_both_compulsory_miss_rates(self, graph,
                                                        cache_spec):
        res = run_kernel("lcc", graph,
                         LCCConfig(nranks=4, cache=cache_spec))
        s = res.summary()
        assert "adj_compulsory_miss_rate" in s
        assert "offsets_compulsory_miss_rate" in s

    def test_unknown_attribute_raises(self, graph):
        res = run_kernel("lcc", graph, LCCConfig(nranks=2))
        with pytest.raises(AttributeError):
            res.does_not_exist


def test_importing_the_session_does_not_import_the_analysis_layer():
    """Layering: core/session price their kernels with core + runtime
    models only; `repro.analysis` sits above them, never beneath."""
    import subprocess
    import sys

    code = ("import sys, repro.session, repro.core.replay, "
            "repro.core.linalg\n"
            "bad = sorted(m for m in sys.modules "
            "if m.startswith('repro.analysis'))\n"
            "assert not bad, bad")
    subprocess.run([sys.executable, "-c", code], check=True)
