"""Integration tests: full pipelines over every dataset at tiny scale."""

import numpy as np
import pytest

from repro.analysis.reuse import remote_read_counts
from repro.baselines.tric import TricConfig, run_tric
from repro.core.config import CacheSpec, LCCConfig
from repro.core.lcc import run_distributed_lcc
from repro.core.local import lcc_local, triangle_count_local
from repro.core.tc import run_distributed_tc
from repro.graph.datasets import dataset_names, load_dataset
from repro.graph.partition import BlockPartition1D
from tests.helpers import spy_gets

SMALL_SCALE = 0.12


@pytest.mark.parametrize("name", dataset_names())
def test_full_pipeline_every_dataset(name):
    g = load_dataset(name, scale=SMALL_SCALE, seed=2)
    cfg = LCCConfig(nranks=4, threads=4,
                    cache=CacheSpec.paper_split(max(4096, g.nbytes // 2), g.n))
    res = run_distributed_lcc(g, cfg)
    np.testing.assert_allclose(res.lcc, lcc_local(g), atol=1e-12)
    assert res.time > 0
    assert res.outcome.nranks == 4


@pytest.mark.parametrize("name", ["livejournal", "rmat-s21-ef16"])
def test_tc_and_tric_and_lcc_agree(name):
    g = load_dataset(name, scale=SMALL_SCALE, seed=2)
    expected = triangle_count_local(g)
    assert run_distributed_tc(g, LCCConfig(nranks=4)).global_triangles == expected
    assert run_tric(g, TricConfig(nranks=4)).global_triangles == expected
    assert run_distributed_lcc(g, LCCConfig(nranks=4)).global_triangles == expected


def _traced_remote_reads(g, nranks, gets) -> np.ndarray:
    """Remote adjacency gets per vertex id, from the spied gets."""
    part = BlockPartition1D(g.n, nranks)
    traced = np.zeros(g.n, dtype=np.int64)
    for rank, window, target, offset, _ in gets:
        if window != "adjacencies" or target == rank:
            continue
        # Map (target rank, window offset) back to the vertex id through
        # the target's local offsets.
        vs = part.local_vertices(target)
        local_offsets = np.zeros(vs.shape[0] + 1, dtype=np.int64)
        np.cumsum(g.offsets[vs + 1] - g.offsets[vs], out=local_offsets[1:])
        li = int(np.searchsorted(local_offsets, offset))
        assert li < vs.shape[0] and local_offsets[li] == offset
        traced[vs[li]] += 1
    return traced


def test_traced_reads_match_analytic_model(monkeypatch):
    # The analytic reuse analysis (Figures 1/4/5) must agree with the
    # remote adjacency gets the per-edge loop actually issues.
    g = load_dataset("facebook-circles", scale=0.5, seed=2)
    nranks = 2
    gets = spy_gets(monkeypatch)
    run_distributed_lcc(g, LCCConfig(nranks=nranks, fast_path=False,
                                     overlap=False))
    traced = _traced_remote_reads(g, nranks, gets)
    analytic = remote_read_counts(g, nranks)
    np.testing.assert_array_equal(traced, analytic)


@pytest.mark.parametrize("nranks", [3, 4])
def test_overlapped_loop_reads_match_analytic_model(monkeypatch, nranks):
    # Double buffering issues its gets through ``get_nowait``: the same
    # remote reads, prefetched.
    g = load_dataset("facebook-circles", scale=0.5, seed=2)
    gets = spy_gets(monkeypatch)
    run_distributed_lcc(g, LCCConfig(nranks=nranks, fast_path=False,
                                     overlap=True))
    np.testing.assert_array_equal(_traced_remote_reads(g, nranks, gets),
                                  remote_read_counts(g, nranks))


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cached"])
@pytest.mark.parametrize("overlap", [False, True],
                         ids=["blocking", "overlap"])
@pytest.mark.parametrize("run", [run_distributed_lcc, run_distributed_tc],
                         ids=["lcc", "tc"])
def test_loop_gets_match_trace_counters(monkeypatch, run, overlap, cached):
    # Every get the per-edge loop issues is counted once on its rank: a
    # local read when it targets the rank itself, else a remote get or a
    # cache hit.
    g = load_dataset("facebook-circles", scale=0.3, seed=2)
    cfg = LCCConfig(nranks=3, fast_path=False, overlap=overlap)
    if cached:
        cfg = cfg.replace(cache=CacheSpec.relative(g.nbytes, 0.05, 0.2))
    gets = spy_gets(monkeypatch)
    res = run(g, cfg)
    for trace in res.outcome.traces:
        mine = [t for r, _, t, _, _ in gets if r == trace.rank]
        remote = sum(t != trace.rank for t in mine)
        assert remote == trace.n_remote_gets + trace.n_cache_hits
        assert len(mine) - remote == trace.n_local_reads
        if not cached:
            assert trace.n_cache_hits == 0
    assert sum(t.n_remote_gets for t in res.outcome.traces) > 0
    if cached:
        assert sum(t.n_cache_hits for t in res.outcome.traces) > 0


def test_determinism_across_runs():
    g = load_dataset("orkut", scale=SMALL_SCALE, seed=2)
    cfg = LCCConfig(nranks=8, threads=12,
                    cache=CacheSpec.paper_split(1 << 18, g.n, score="degree"))
    a = run_distributed_lcc(g, cfg)
    b = run_distributed_lcc(g, cfg)
    assert a.time == b.time
    assert a.summary() == b.summary()
    np.testing.assert_array_equal(a.lcc, b.lcc)


def test_network_presets_affect_time_not_results():
    from repro.runtime.network import NetworkModel

    g = load_dataset("skitter", scale=SMALL_SCALE, seed=2)
    fast = run_distributed_lcc(g, LCCConfig(nranks=4,
                                            network=NetworkModel.aries()))
    slow = run_distributed_lcc(g, LCCConfig(nranks=4,
                                            network=NetworkModel.ethernet()))
    np.testing.assert_array_equal(fast.lcc, slow.lcc)
    assert slow.time > fast.time
