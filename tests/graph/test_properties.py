"""Tests for graph-property helpers."""

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi, star_graph
from repro.graph.properties import (
    degree_stats,
    gini,
    top_degree_share,
)


class TestGini:
    def test_uniform_is_zero(self):
        assert gini(np.full(100, 7.0)) == pytest.approx(0.0, abs=1e-9)

    def test_extreme_skew_near_one(self):
        values = np.zeros(1000)
        values[0] = 1e6
        assert gini(values) > 0.99

    def test_empty_and_zero(self):
        assert gini(np.array([])) == 0.0
        assert gini(np.zeros(5)) == 0.0

    def test_scale_invariant(self):
        v = np.array([1.0, 2, 3, 10])
        assert gini(v) == pytest.approx(gini(v * 100))


class TestDegreeStats:
    def test_keys_and_values(self):
        g = erdos_renyi(256, 2048, seed=1)
        s = degree_stats(g)
        assert s["min"] <= s["median"] <= s["p99"] <= s["max"]
        assert s["mean"] == pytest.approx(g.degrees().mean())


class TestTopDegreeShare:
    def test_star_hub_dominates(self):
        g = star_graph(99)
        # Top 10% (10 vertices) includes the hub: most in-edges point at it.
        assert top_degree_share(g, 0.1) >= 0.5

    def test_share_bounded(self):
        g = erdos_renyi(256, 2048, seed=1)
        assert 0.1 <= top_degree_share(g, 0.1) <= 1.0
