"""The per-graph-version score record (``vertex_scores`` / ``inherit_scores``).

The oriented pass and the raw counters are wrapped where the accessor
looks them up (``repro.core.local``), so every test states how many times
the counting *work* ran, not only that the answers agree.
"""

import gc
import weakref
from itertools import combinations, islice

import numpy as np
import pytest

from repro.core import local
from repro.core.config import LCCConfig
from repro.core.local import vertex_scores
from repro.dynamic import UpdateBatch, apply_delta, random_update_batch
from repro.graph.csr import CSRGraph
from repro.graph.generators import powerlaw_configuration
from repro.session import Session, run_kernel
from repro.utils.errors import ConfigError

RAW_ORIENTED = local.oriented_triangle_scores
RAW_TPV = local.triangles_per_vertex_batched
RAW_TMIN = local.triangles_min_vertex
RAW_SUBSET = local.triangles_per_vertex_subset
#: The independent reference: the SciPy path shares no body with the record.
REF_TPV = local.triangles_per_vertex_matrix


def make_graph(seed=3):
    return powerlaw_configuration(160, 900, seed=seed, name="scores")


def make_directed(seed=3):
    """Counted by the per-vertex loop, not the oriented pass."""
    rng = np.random.default_rng(seed)
    return CSRGraph.from_edges(rng.integers(0, 160, size=(900, 2)), n=160,
                               directed=True, name="scores-directed")


@pytest.fixture
def calls(monkeypatch):
    """Call logs: graphs counted by the oriented pass (``oriented``) or by
    the raw full counters (``tpv``/``tmin``), vertex sets patched
    (``subset``), and every run of the subset body (``work``)."""
    log = {"oriented": [], "tpv": [], "tmin": [], "subset": [], "work": 0}
    in_full_count = []

    def oriented(graph, *args, **kwargs):
        log["oriented"].append(graph)
        return RAW_ORIENTED(graph, *args, **kwargs)

    def tpv(graph):
        log["tpv"].append(graph)
        in_full_count.append(True)  # the full count runs the subset body
        try:
            return RAW_TPV(graph)
        finally:
            in_full_count.pop()

    def tmin(graph):
        log["tmin"].append(graph)
        return RAW_TMIN(graph)

    def subset(graph, vertices):
        log["work"] += 1
        if not in_full_count:
            log["subset"].append(vertices)
        return RAW_SUBSET(graph, vertices)

    monkeypatch.setattr(local, "oriented_triangle_scores", oriented)
    monkeypatch.setattr(local, "triangles_per_vertex_batched", tpv)
    monkeypatch.setattr(local, "triangles_min_vertex", tmin)
    monkeypatch.setattr(local, "triangles_per_vertex_subset", subset)
    return log


class TestOneCountPerGraph:
    def test_session_across_cluster_shapes(self, calls):
        g = make_graph()
        with Session(g, LCCConfig(nranks=4, threads=2)) as session:
            for nranks in (4, 64):
                lcc = session.run("lcc", nranks=nranks)
                tc = session.run("tc", nranks=nranks)
                np.testing.assert_array_equal(lcc.triangles_per_vertex,
                                              REF_TPV(g))
                assert tc.global_triangles == int(RAW_TMIN(g).sum())
        assert len(calls["oriented"]) == 1 and calls["oriented"][0] is g
        assert calls["tpv"] == calls["tmin"] == calls["subset"] == []

    def test_lcc_only_session_makes_one_pass(self, calls):
        with Session(make_graph(), LCCConfig(nranks=4, threads=2)) as session:
            session.run("lcc")
        assert len(calls["oriented"]) == 1
        assert calls["tpv"] == calls["tmin"] == []

    def test_two_run_kernel_calls_share_the_graphs_record(self, calls):
        g = make_graph()
        first = run_kernel("lcc", g, LCCConfig(nranks=4, threads=2))
        second = run_kernel("lcc", g, LCCConfig(nranks=8, threads=2))
        assert calls["oriented"] == [g] and calls["tpv"] == []
        assert first.lcc is second.lcc is vertex_scores(g, "lcc")
        assert first.triangles_per_vertex is vertex_scores(g, "tpv")

    def test_raw_counter_is_not_memoised(self, calls):
        g = make_graph()
        a = local.triangles_per_vertex_batched(g)
        b = local.triangles_per_vertex_batched(g)
        assert calls["work"] == 2
        assert a is not b and a.flags.writeable and g.scores == {}

    def test_oriented_pass_is_not_memoised(self, calls):
        g = make_graph()
        first = local.oriented_triangle_scores(g)
        second = local.oriented_triangle_scores(g)
        assert calls["oriented"] == [g, g] and g.scores == {}
        for a, b in zip(first, second):
            assert a is not b and a.flags.writeable
            np.testing.assert_array_equal(a, b)


class TestUnknownKind:
    def test_unknown_kind_raises_before_the_record_is_touched(self, calls):
        g = make_graph()
        vertex_scores(g, "tpv")
        child = apply_delta(g, random_update_batch(g, 10, 0.5, seed=4),
                            strict=False).graph
        for graph in (g, child):
            before = dict(graph.scores)
            with pytest.raises(ConfigError, match="tpv, tmin, lcc"):
                vertex_scores(graph, "lccc")
            assert graph.scores.keys() == before.keys()
            assert all(graph.scores[k] is before[k] for k in before)
        assert child.scores == {}
        assert calls["oriented"] == [g] and calls["subset"] == []


class TestReadOnlyResults:
    def test_writing_into_a_result_raises(self):
        res = run_kernel("lcc", make_graph(), LCCConfig(nranks=4, threads=2))
        with pytest.raises(ValueError, match="read-only"):
            res.lcc[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            res.triangles_per_vertex[0] = 1

    def test_loop_oracle_returns_its_own_arrays(self):
        g = make_graph()
        cfg = LCCConfig(nranks=4, threads=2, fast_path=False)
        res = run_kernel("lcc", g, cfg)
        res.lcc[0] = 1.0  # private to the caller
        assert g.scores == {}


class TestInheritance:
    def test_undirected_update_is_one_pass_on_first_read(self, calls):
        g = make_graph()
        with Session(g, LCCConfig(nranks=4, threads=2)) as session:
            session.run("lcc")
            out = session.apply_updates(random_update_batch(g, 12, 0.25,
                                                            seed=5))
            new = session.graph
            assert out.affected.size and new.scores == {}
            post = session.run("lcc")
            tc = session.run("tc")
        # The tc read found the record the lcc read filled.
        assert post.triangles_per_vertex is vertex_scores(new, "tpv")
        assert calls["oriented"] == [g, new]
        assert calls["tpv"] == calls["tmin"] == calls["subset"] == []
        np.testing.assert_array_equal(post.triangles_per_vertex, REF_TPV(new))
        np.testing.assert_array_equal(
            post.lcc, local.lcc_from_triplets(new, REF_TPV(new)))
        assert tc.global_triangles == int(RAW_TMIN(new).sum())

    def test_directed_update_is_one_full_count_on_first_read(self, calls):
        g = make_directed()
        vertex_scores(g, "tpv")
        head = g
        for seed in (1, 2, 3):  # unread versions leave nothing behind
            res = apply_delta(head, random_update_batch(head, 10, 0.5,
                                                        seed=seed),
                              strict=False)
            head = res.graph
            assert res.affected.size and head.scores == {}
        tpv = vertex_scores(head, "tpv")
        lcc = vertex_scores(head, "lcc")
        assert calls["tpv"] == [g, head]
        assert calls["oriented"] == calls["subset"] == []
        np.testing.assert_array_equal(tpv, REF_TPV(head))
        np.testing.assert_array_equal(
            lcc, local.lcc_from_triplets(head, REF_TPV(head)))

    def test_never_scored_parent_falls_back_to_the_full_count(self, calls):
        g = make_graph()
        new = apply_delta(g, random_update_batch(g, 10, 0.5, seed=4),
                          strict=False).graph
        assert new.scores == {}
        np.testing.assert_array_equal(vertex_scores(new, "tpv"), REF_TPV(new))
        assert calls["oriented"] == [new]
        assert calls["tpv"] == calls["subset"] == []

    def test_all_skipped_batch_shares_the_record(self, calls):
        g = make_graph()
        present = g.edges()[:4]
        absent = np.array(list(islice(
            ((u, v) for u, v in combinations(range(g.n), 2)
             if not g.has_edge(u, v)), 4)))
        tpv = vertex_scores(g, "tpv")
        res = apply_delta(g, UpdateBatch.build(present, absent, n=g.n),
                          strict=False)
        assert not res.changed and res.graph is not g
        assert res.graph.scores is g.scores
        assert vertex_scores(res.graph, "tpv") is tpv
        assert calls["oriented"] == [g]
        assert calls["tpv"] == calls["subset"] == []


class TestLifetime:
    def test_record_dies_with_its_graph(self):
        g = make_graph()
        refs = [weakref.ref(vertex_scores(g, kind))
                for kind in ("tpv", "tmin", "lcc")]
        del g
        gc.collect()
        assert [r() for r in refs] == [None, None, None]

    def test_child_does_not_pin_the_parent_graph(self):
        parent = make_graph()
        vertex_scores(parent, "tpv")
        # CSRGraph has __slots__ and no __weakref__: watch its arrays.
        parent_arrays = [weakref.ref(parent.offsets),
                         weakref.ref(parent.adjacency)]
        child = apply_delta(parent, random_update_batch(parent, 10, 0.5,
                                                        seed=4),
                            strict=False).graph
        assert child.scores == {}
        del parent
        gc.collect()
        assert [r() for r in parent_arrays] == [None, None]
        np.testing.assert_array_equal(vertex_scores(child, "tpv"),
                                      REF_TPV(child))
