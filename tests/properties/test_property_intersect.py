"""Property-based tests for the intersection kernels."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.intersect import (
    KeySet,
    binary_search_count,
    count_common_above,
    edge_support,
    hybrid_count,
    sorted_member,
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


@st.composite
def key_sets(draw):
    """Keys of a drawn layout: ``random`` (duplicates and huge values
    included), ``one_home`` (every key hashed to one slot, so the probe
    run is as long as the set) or ``tail`` (homes in the home range's last
    slots, so the run spills past it); plus queries that mix the keys,
    their neighbours, random values and negatives."""
    layout = draw(st.sampled_from(("random", "one_home", "tail")))
    k = draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    if layout == "random":
        high = draw(st.sampled_from((4, 1000, 2**62)))
        keys = rng.integers(0, high, size=k)
    else:
        probe = KeySet(np.arange(k))  # the home range of a k-key set
        span = 1 << probe.bits
        targets = ([draw(st.integers(0, span - 1))] if layout == "one_home"
                   else span - 1 - np.arange(min(span, 3)))
        # Fibonacci hashing spreads consecutive integers evenly over the
        # homes, so eight candidates per slot and key cover every target.
        start = draw(st.integers(0, 2**40))
        candidates = np.arange(start, start + 8 * (k + 1) * span)
        keys = candidates[np.isin(probe.home(candidates), targets)][:k]
        assert keys.shape[0] == k
        rng.shuffle(keys)
    queries = np.concatenate((keys, keys + 1, keys - 1,
                              rng.integers(-3, 2**62, size=draw(
                                  st.integers(0, 40)))))
    rng.shuffle(queries)
    return keys.astype(np.int64), queries.astype(np.int64)


@given(key_sets())
@settings(max_examples=200, deadline=None)
@example((np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)))
@example((np.zeros(0, dtype=np.int64), np.array([-1, 0, 1])))
@example((np.array([0, 5, 2**62]), np.zeros(0, dtype=np.int64)))
def test_key_set_membership_equals_sorted_member(case):
    keys, queries = case
    key_set = KeySet(keys)
    got = key_set.contains(queries)
    assert got.dtype == bool and got.shape == queries.shape
    np.testing.assert_array_equal(
        got, sorted_member(np.unique(keys), queries))
    # Load <= 0.5 over the home range, and the table ends on an empty
    # slot past the last placed key, so no probe wraps.
    assert 2 * keys.shape[0] <= 1 << key_set.bits <= key_set.table.shape[0]
    assert key_set.table[-1] == -1


@given(st.lists(st.integers(0, 2**40), max_size=10),
       st.integers(-2**63, -1))
def test_key_set_rejects_a_negative_key(keys, negative):
    # -1 marks an empty slot, so no negative key can be stored.
    with pytest.raises(ValueError, match="non-negative"):
        KeySet(np.array(keys + [negative], dtype=np.int64))
