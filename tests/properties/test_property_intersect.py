"""Property-based tests for the intersection kernels."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intersect import (
    binary_search_count,
    count_common_above,
    edge_support,
    hybrid_count,
    ssi_count,
)

sorted_unique_list = st.lists(
    st.integers(min_value=0, max_value=500), max_size=80
).map(lambda xs: np.array(sorted(set(xs)), dtype=np.int32))


@given(sorted_unique_list, sorted_unique_list)
def test_kernels_match_set_semantics(a, b):
    expected = len(set(a.tolist()) & set(b.tolist()))
    assert ssi_count(a, b) == expected
    assert binary_search_count(a, b) == expected
    assert hybrid_count(a, b) == expected


@given(sorted_unique_list, sorted_unique_list)
def test_kernels_symmetric(a, b):
    assert ssi_count(a, b) == ssi_count(b, a)
    assert binary_search_count(a, b) == binary_search_count(b, a)
    assert hybrid_count(a, b) == hybrid_count(b, a)


@given(sorted_unique_list)
def test_self_intersection_is_identity(a):
    assert ssi_count(a, a) == a.shape[0]
    assert binary_search_count(a, a) == a.shape[0]


@given(sorted_unique_list, sorted_unique_list)
def test_intersection_bounded(a, b):
    c = hybrid_count(a, b)
    assert 0 <= c <= min(a.shape[0], b.shape[0])


@given(sorted_unique_list, sorted_unique_list,
       st.integers(min_value=-1, max_value=501))
def test_count_above_matches_filtered_set(a, b, threshold):
    expected = len({x for x in set(a.tolist()) & set(b.tolist())
                    if x > threshold})
    for method in ("ssi", "binary", "hybrid"):
        assert count_common_above(a, b, threshold, method) == expected


@given(sorted_unique_list, sorted_unique_list,
       st.integers(min_value=0, max_value=500))
def test_count_above_monotone_in_threshold(a, b, threshold):
    assert (count_common_above(a, b, threshold)
            <= count_common_above(a, b, threshold - 1))


@st.composite
def patterns_and_pairs(draw):
    """A sorted 0/1 CSR pattern and row pairs into it, hub rows included."""
    n_rows = draw(st.integers(min_value=1, max_value=24))
    n_cols = draw(st.integers(min_value=0, max_value=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    dense = rng.random((n_rows, n_cols)) < rng.random((n_rows, 1))
    pairs = rng.integers(0, n_rows, size=(draw(st.integers(0, 60)), 2))
    pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]  # CSR edge order
    return sp.csr_matrix(dense.astype(np.int8)), pairs[:, 0], pairs[:, 1]


@given(patterns_and_pairs(), st.integers(min_value=1, max_value=96))
@settings(max_examples=200, deadline=None)
def test_edge_support_matches_scalar_kernel_at_any_budget(case, budget):
    # Budgets this small cut every non-trivial list into several strips,
    # with boundaries inside one row's run of pairs and single pairs wider
    # than the whole budget; the scalar kernel is the only oracle.
    pattern, i, j = case
    rows = [pattern.indices[pattern.indptr[r]:pattern.indptr[r + 1]]
            for r in range(pattern.shape[0])]
    expected = [ssi_count(rows[a], rows[b])
                for a, b in zip(i.tolist(), j.tolist())]
    got = edge_support(pattern, i, j, budget)
    assert got.dtype == np.int64
    assert got.tolist() == expected
    assert edge_support(pattern, i, j).tolist() == expected
