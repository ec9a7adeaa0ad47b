"""Property tests: delta merge == from-scratch rebuild, post-update
score record == full recompute."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.local import (
    triangles_min_vertex,
    triangles_per_vertex_batched,
    vertex_scores,
)
from repro.dynamic import UpdateBatch, apply_delta
from repro.graph.csr import CSRGraph


@st.composite
def update_cases(draw):
    """A random graph plus a random insert/delete batch over it."""
    n = draw(st.integers(min_value=2, max_value=40))
    m = draw(st.integers(min_value=0, max_value=120))
    k_ins = draw(st.integers(min_value=0, max_value=20))
    k_del = draw(st.integers(min_value=0, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    base = rng.integers(0, n, size=(m, 2))
    graph = CSRGraph.from_edges(base, n)
    inserts = rng.integers(0, n, size=(k_ins, 2))
    edges = graph.edges()
    edges = edges[edges[:, 0] < edges[:, 1]]
    if k_del and edges.shape[0]:
        deletes = edges[rng.choice(edges.shape[0],
                                   size=min(k_del, edges.shape[0]),
                                   replace=False)]
    else:
        deletes = np.empty((0, 2), dtype=np.int64)
    # Drop deletes that collide with an insert (ambiguous batches are
    # rejected by design; the generators never produce them).
    if inserts.size and deletes.size:
        ik = (np.minimum(inserts[:, 0], inserts[:, 1]) * n
              + np.maximum(inserts[:, 0], inserts[:, 1]))
        dk = deletes[:, 0] * n + deletes[:, 1]
        deletes = deletes[~np.isin(dk, ik)]
    return graph, inserts, deletes


@given(update_cases())
@settings(max_examples=60, deadline=None)
def test_apply_delta_equals_rebuild(case):
    graph, inserts, deletes = case
    batch = UpdateBatch.build(inserts, deletes, n=graph.n)
    res = apply_delta(graph, batch, strict=False)
    res.graph.check_invariants()
    res.graph.check_symmetric()

    old = set(map(tuple, graph.edges()))
    ins = {(int(u), int(v)) for u, v in batch.insert_edges()}
    ins |= {(v, u) for (u, v) in ins}
    dels = {(int(u), int(v)) for u, v in batch.delete_edges()}
    dels |= {(v, u) for (u, v) in dels}
    expect_edges = sorted((old | ins) - dels)
    if expect_edges:
        e = np.array(expect_edges)
        expect = CSRGraph.from_edges(e[e[:, 0] < e[:, 1]], graph.n)
    else:
        expect = CSRGraph.from_edges([], n=graph.n)
    np.testing.assert_array_equal(res.graph.offsets, expect.offsets)
    np.testing.assert_array_equal(res.graph.adjacency, expect.adjacency)


@given(update_cases())
@settings(max_examples=40, deadline=None)
def test_post_update_record_equals_full_recompute(case):
    graph, inserts, deletes = case
    batch = UpdateBatch.build(inserts, deletes, n=graph.n)
    vertex_scores(graph, "tpv")
    new = apply_delta(graph, batch, strict=False).graph
    np.testing.assert_array_equal(
        vertex_scores(new, "tpv"), triangles_per_vertex_batched(new))
    np.testing.assert_array_equal(
        vertex_scores(new, "tmin"), triangles_min_vertex(new))


@given(update_cases())
@settings(max_examples=25, deadline=None)
def test_affected_set_covers_every_change(case):
    """Vertices outside the affected set keep their exact counts."""
    graph, inserts, deletes = case
    batch = UpdateBatch.build(inserts, deletes, n=graph.n)
    before = triangles_per_vertex_batched(graph)
    res = apply_delta(graph, batch, strict=False)
    after = triangles_per_vertex_batched(res.graph)
    unaffected = np.setdiff1d(np.arange(graph.n), res.affected)
    np.testing.assert_array_equal(before[unaffected], after[unaffected])
