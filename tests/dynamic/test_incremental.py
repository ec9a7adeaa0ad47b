"""Post-update scores: each new version's record against the full oracles."""

import numpy as np
import pytest

from repro.core.local import (
    lcc_local,
    triangles_min_vertex,
    triangles_per_vertex_batched,
    triangles_per_vertex_subset,
    vertex_scores,
)
from repro.dynamic import apply_delta, random_update_batch
from repro.dynamic.delta import UpdateBatch
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, powerlaw_configuration
from repro.utils.errors import GraphFormatError


def updated(graph, batch):
    """The version ``batch`` produces from a scored ``graph``."""
    vertex_scores(graph, "tpv")
    return apply_delta(graph, batch, strict=False)


class TestSubsetKernels:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tpv_subset_matches_full(self, seed):
        g = powerlaw_configuration(150, 900, seed=seed)
        full = triangles_per_vertex_batched(g)
        vs = np.arange(0, g.n, 3, dtype=np.int64)
        np.testing.assert_array_equal(
            triangles_per_vertex_subset(g, vs), full[vs])

    def test_empty_subset(self):
        g = erdos_renyi(20, 40, seed=0)
        assert triangles_per_vertex_subset(g, np.empty(0, np.int64)).size == 0


class TestPostUpdateRecord:
    def test_single_batch_bit_identical(self):
        g = powerlaw_configuration(200, 1200, seed=5)
        new = updated(g, random_update_batch(g, 16, 0.25, seed=11)).graph
        np.testing.assert_array_equal(
            vertex_scores(new, "tpv"), triangles_per_vertex_batched(new))
        np.testing.assert_array_equal(
            vertex_scores(new, "tmin"), triangles_min_vertex(new))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tmin_after_an_update_matches_full(self, seed):
        g = erdos_renyi(120, 700, seed=seed)
        new = updated(g, random_update_batch(g, 14, 0.5, seed=seed)).graph
        np.testing.assert_array_equal(vertex_scores(new, "tmin"),
                                      triangles_min_vertex(new))

    def test_multiple_batches_with_deletes(self):
        g = powerlaw_configuration(150, 800, seed=6)
        for s in range(5):
            g = updated(g, random_update_batch(g, 14, 0.5, seed=s)).graph
            np.testing.assert_array_equal(
                vertex_scores(g, "tpv"), triangles_per_vertex_batched(g))
            np.testing.assert_array_equal(
                vertex_scores(g, "tmin"), triangles_min_vertex(g))

    def test_global_triangles_matches_both_paths(self):
        g = erdos_renyi(100, 600, seed=7)
        new = updated(g, random_update_batch(g, 10, 0.3, seed=8)).graph
        triangles = int(triangles_min_vertex(new).sum())
        assert int(vertex_scores(new, "tmin").sum()) == triangles
        assert int(vertex_scores(new, "tpv").sum()) // 6 == triangles

    def test_lcc_matches_oracle(self):
        g = powerlaw_configuration(120, 700, seed=9)
        new = updated(g, random_update_batch(g, 12, 0.25, seed=10)).graph
        np.testing.assert_array_equal(vertex_scores(new, "lcc"),
                                      lcc_local(new))

    def test_directed_graph_tpv_only(self):
        rng = np.random.default_rng(12)
        g = CSRGraph.from_edges(rng.integers(0, 60, size=(300, 2)), n=60,
                                directed=True)
        batch = UpdateBatch.build(rng.integers(0, 60, size=(8, 2)), n=60,
                                  directed=True)
        new = updated(g, batch).graph
        assert new.scores == {}
        tpv = vertex_scores(new, "tpv")
        np.testing.assert_array_equal(tpv, triangles_per_vertex_batched(new))
        assert new.scores.keys() == {"tpv"}

    def test_affected_set_is_sublinear(self):
        g = powerlaw_configuration(400, 2400, seed=13)
        res = apply_delta(g, random_update_batch(g, 8, 0.25, seed=14),
                          strict=False)
        assert 0 < res.affected.shape[0] < g.n // 2

    def test_existing_edge_insert_needs_strict_false(self):
        g = powerlaw_configuration(50, 200, seed=15)
        present = tuple(int(x) for x in g.edges()[0])
        batch = UpdateBatch.build([present], n=g.n)
        with pytest.raises(GraphFormatError):
            apply_delta(g, batch)
        res = updated(g, batch)
        assert res.n_skipped_inserts == 1 and not res.changed
        np.testing.assert_array_equal(vertex_scores(res.graph, "tpv"),
                                      triangles_per_vertex_batched(g))
