"""Tests for the intersection kernels."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.intersect import (
    binary_search_count,
    count_common,
    count_common_above,
    edge_support,
    hybrid_count,
    intersect_values,
    ssi_count,
)

A = np.array([1, 3, 5, 7, 9], dtype=np.int32)
B = np.array([2, 3, 4, 7, 8, 10, 12], dtype=np.int32)


class TestKernelsAgree:
    def test_known_intersection(self):
        assert ssi_count(A, B) == 2
        assert binary_search_count(A, B) == 2
        assert hybrid_count(A, B) == 2

    def test_empty_lists(self):
        e = np.empty(0, dtype=np.int32)
        assert ssi_count(e, B) == 0
        assert binary_search_count(A, e) == 0
        assert hybrid_count(e, e) == 0

    def test_disjoint(self):
        a = np.array([1, 2, 3], dtype=np.int32)
        b = np.array([4, 5, 6], dtype=np.int32)
        assert ssi_count(a, b) == 0
        assert binary_search_count(a, b) == 0

    def test_identical(self):
        assert ssi_count(A, A) == 5
        assert binary_search_count(A, A) == 5

    def test_subset(self):
        sub = np.array([3, 7], dtype=np.int32)
        assert ssi_count(sub, B) == 2
        assert binary_search_count(sub, B) == 2

    def test_singletons(self):
        one = np.array([7], dtype=np.int32)
        assert binary_search_count(one, B) == 1
        assert binary_search_count(np.array([6], np.int32), B) == 0

    def test_asymmetric_lengths(self):
        short = np.array([500], dtype=np.int32)
        long_ = np.arange(0, 10_000, 2, dtype=np.int32)
        assert ssi_count(short, long_) == 1
        assert binary_search_count(short, long_) == 1
        assert binary_search_count(long_, short) == 1

    def test_random_agreement(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a = np.unique(rng.integers(0, 200, rng.integers(0, 50)))
            b = np.unique(rng.integers(0, 200, rng.integers(0, 120)))
            a, b = a.astype(np.int32), b.astype(np.int32)
            expected = len(set(a) & set(b))
            assert ssi_count(a, b) == expected
            assert binary_search_count(a, b) == expected
            assert hybrid_count(a, b) == expected


class TestDispatch:
    def test_by_name(self):
        assert count_common(A, B, "ssi") == 2
        assert count_common(A, B, "binary") == 2
        assert count_common(A, B, "hybrid") == 2

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown"):
            count_common(A, B, "magic")


class TestCountAbove:
    def test_threshold_filters(self):
        # Common: {3, 7}; above 3: only 7.
        assert count_common_above(A, B, 3) == 1
        assert count_common_above(A, B, 0) == 2
        assert count_common_above(A, B, 7) == 0

    def test_upper_triangle_semantics(self):
        # For edge (i, j) the count must exclude k <= j.
        adj_i = np.array([2, 5, 8, 9], dtype=np.int32)
        adj_j = np.array([5, 8, 9], dtype=np.int32)
        assert count_common_above(adj_i, adj_j, 5) == 2  # {8, 9}

    def test_methods_agree(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a = np.unique(rng.integers(0, 100, 40)).astype(np.int32)
            b = np.unique(rng.integers(0, 100, 40)).astype(np.int32)
            t = int(rng.integers(0, 100))
            expected = len({x for x in (set(a) & set(b)) if x > t})
            for method in ("ssi", "binary", "hybrid"):
                assert count_common_above(a, b, t, method) == expected


class TestIntersectValues:
    def test_values(self):
        np.testing.assert_array_equal(intersect_values(A, B), [3, 7])


class _CountingPattern(sp.csr_matrix):
    """Counts the strip merges ``edge_support`` runs."""

    merges = 0

    def multiply(self, other):
        _CountingPattern.merges += 1
        return super().multiply(other)


class TestEdgeSupport:
    LEAVES = 1000

    def wheel(self):
        # Hub 0 next to every leaf, leaves 1..L on a ring: every spoke
        # closes two triangles, every ring edge one.
        leaves = np.arange(1, self.LEAVES + 1)
        spokes = np.column_stack([np.zeros_like(leaves), leaves])
        ring = np.column_stack([leaves, np.roll(leaves, -1)])
        e = np.concatenate([spokes, ring])
        e = np.concatenate([e, e[:, ::-1]])
        n = self.LEAVES + 1
        return _CountingPattern(
            (np.ones(e.shape[0], dtype=np.int8), (e[:, 0], e[:, 1])),
            shape=(n, n))

    def test_strip_boundaries_inside_the_hub_row(self):
        pattern = self.wheel()
        leaves = np.arange(1, self.LEAVES + 1)
        hub = np.zeros_like(leaves)
        # Every spoke gathers L + 3 entries (hub row + a leaf row); a budget
        # of 7.5 spokes cuts the hub's own run of pairs into 134 strips.
        budget = 15 * (self.LEAVES + 3) // 2
        _CountingPattern.merges = 0
        got = edge_support(pattern, hub, leaves, budget)
        assert got.tolist() == [2] * self.LEAVES
        assert _CountingPattern.merges == -(-self.LEAVES * 2 // 15)
        # Budgeted or not, the counts agree.
        _CountingPattern.merges = 0
        np.testing.assert_array_equal(
            edge_support(pattern, hub, leaves), got)
        assert _CountingPattern.merges == 1

    def test_pair_wider_than_the_budget_is_its_own_strip(self):
        pattern = self.wheel()
        got = edge_support(pattern, np.array([0, 1, 0]), np.array([1, 2, 0]),
                           budget=1)
        assert got.tolist() == [2, 1, self.LEAVES]

    def test_no_pairs_and_empty_rows(self):
        pattern = sp.csr_matrix((3, 0), dtype=np.int8)
        none = np.zeros(0, dtype=np.int64)
        assert edge_support(pattern, none, none).shape == (0,)
        assert edge_support(pattern, np.array([0, 1]),
                            np.array([2, 2])).tolist() == [0, 0]
