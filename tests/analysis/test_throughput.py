"""Tests pinning the vectorized throughput formulas to the scalar model."""

import numpy as np
import pytest

from repro.analysis.throughput import edge_length_pairs, edges_per_microsecond
from repro.core.threading import OpenMPModel, kernel_times_vectorized
from repro.graph.generators import rmat


class TestVectorizedMatchesScalar:
    @pytest.mark.parametrize("threads", [1, 4, 16])
    @pytest.mark.parametrize("method", ["ssi", "binary", "hybrid"])
    def test_agreement(self, threads, method):
        rng = np.random.default_rng(4)
        la = rng.integers(0, 300, 200)
        lb = rng.integers(0, 300, 200)
        model = OpenMPModel(threads=threads)
        vec = kernel_times_vectorized(model, method, la, lb)
        for i in range(la.shape[0]):
            scalar = model.kernel_time(method, int(la[i]), int(lb[i]))
            assert vec[i] == pytest.approx(scalar, rel=1e-9), (
                f"mismatch at ({la[i]}, {lb[i]})")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            kernel_times_vectorized(OpenMPModel(), "nope",
                                    np.array([1.0]), np.array([1.0]))


class TestEdgePairs:
    def test_pairs_shape_and_values(self):
        g = rmat(6, 4, seed=1)
        la, lb = edge_length_pairs(g)
        assert la.shape[0] == g.num_adjacency_entries
        # Spot check the first vertex's edges.
        deg = g.degrees()
        first_deg = int(deg[np.argmax(deg > 0)])
        v0 = int(np.argmax(deg > 0))
        start = int(g.offsets[v0])
        assert la[start] == deg[v0]
        assert lb[start] == deg[int(g.adjacency[start])]


class TestEdgesPerMicrosecond:
    def test_positive_and_method_ordering(self):
        g = rmat(8, 8, seed=1)
        h = edges_per_microsecond(g, "hybrid")
        s = edges_per_microsecond(g, "ssi")
        b = edges_per_microsecond(g, "binary")
        assert h > 0 and s > 0 and b > 0
        assert h >= max(s, b) * 0.999  # hybrid is per-pair minimum

    def test_empty_graph(self):
        from repro.graph.csr import CSRGraph

        g = CSRGraph.from_edges([], n=3)
        assert edges_per_microsecond(g, "hybrid") == 0.0
