"""Property-based tests for CSR construction and transformations."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph, relabel_random, remove_low_degree_vertices
from repro.graph.partition import BlockPartition1D, CyclicPartition1D
from tests.helpers import window_parts


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=1, max_value=50))
    m = draw(st.integers(min_value=0, max_value=150))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, size=(m, 2)), n


@given(edge_lists())
def test_csr_invariants_always_hold(data):
    edges, n = data
    g = CSRGraph.from_edges(edges, n)
    g.check_invariants()
    g.check_symmetric()


@given(edge_lists())
def test_edge_roundtrip(data):
    edges, n = data
    g = CSRGraph.from_edges(edges, n)
    g2 = CSRGraph.from_edges(g.edges(), n)
    np.testing.assert_array_equal(g.offsets, g2.offsets)
    np.testing.assert_array_equal(g.adjacency, g2.adjacency)


@given(edge_lists(), st.integers(min_value=0, max_value=2**31))
def test_relabel_preserves_degree_multiset_and_triangles(data, seed):
    from repro.core.local import triangle_count_local

    edges, n = data
    g = CSRGraph.from_edges(edges, n)
    g2 = relabel_random(g, seed=seed)
    np.testing.assert_array_equal(np.sort(g.degrees()), np.sort(g2.degrees()))
    assert triangle_count_local(g) == triangle_count_local(g2)


@given(edge_lists())
def test_low_degree_removal_preserves_triangles(data):
    from repro.core.local import triangle_count_local

    edges, n = data
    g = CSRGraph.from_edges(edges, n)
    g2 = remove_low_degree_vertices(g)
    assert triangle_count_local(g2) == triangle_count_local(g)
    # Single-pass semantics (as in the paper): the *input's* low-degree
    # vertices are gone, but removal may expose new degree-1 vertices.
    assert g2.n <= g.n
    g2.check_invariants()


@given(edge_lists(), st.integers(min_value=1, max_value=8),
       st.booleans())
def test_split_csr_partitions_every_entry(data, nranks, cyclic):
    edges, n = data
    g = CSRGraph.from_edges(edges, n)
    part = (CyclicPartition1D if cyclic else BlockPartition1D)(g.n, nranks)
    offsets_parts, adjacency_parts = window_parts(g, part)
    assert sum(a.shape[0] for a in adjacency_parts) == g.num_adjacency_entries
    for r in range(nranks):
        vs = part.local_vertices(r)
        offs = offsets_parts[r]
        assert offs.shape[0] == vs.shape[0] + 1
        for li, v in enumerate(vs):
            np.testing.assert_array_equal(
                adjacency_parts[r][offs[li]:offs[li + 1]], g.adj(int(v)))


@given(st.integers(min_value=1, max_value=200),
       st.integers(min_value=1, max_value=17),
       st.booleans())
def test_partition_is_a_bijection(n, nranks, cyclic):
    part = (CyclicPartition1D if cyclic else BlockPartition1D)(n, nranks)
    seen = set()
    for r in range(nranks):
        for li, v in enumerate(part.local_vertices(r)):
            v = int(v)
            assert part.owner(v) == r
            assert part.to_local(v) == li
            seen.add(v)
    assert seen == set(range(n))
