"""Property tests: sustained deletion-heavy shrinkage stays exact.

The insert-dominated property suite (test_property_dynamic.py) covers
single mixed batches; this one stresses the regime the bench's
``delete_mix`` scenario models: round after round of batches that are
mostly deletes, shrinking the graph until degrees collapse below the
min-degree-2 preprocessing threshold (vertices that can no longer be in
any triangle), with every version's score record pinned bit-identical to
a full recompute at *every* round — not just at the end.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.local import (
    triangles_min_vertex,
    triangles_per_vertex_batched,
    vertex_scores,
)
from repro.dynamic import UpdateBatch, apply_delta
from repro.graph.csr import CSRGraph, remove_low_degree_vertices


@st.composite
def shrinkage_cases(draw):
    """A random graph plus a schedule of delete-dominated batches."""
    n = draw(st.integers(min_value=4, max_value=36))
    m = draw(st.integers(min_value=8, max_value=140))
    rounds = draw(st.integers(min_value=2, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    graph = CSRGraph.from_edges(rng.integers(0, n, size=(m, 2)), n)
    return graph, rounds, rng


def delete_heavy_batch(graph, rng, delete_fraction=0.8, size=12):
    """A batch that is >= 75% deletes of existing edges (plus a trickle
    of random inserts, as real churn has)."""
    n_del = max(1, int(round(size * delete_fraction)))
    n_ins = size - n_del
    edges = graph.edges()
    edges = edges[edges[:, 0] < edges[:, 1]]
    deletes = np.empty((0, 2), dtype=np.int64)
    if edges.shape[0]:
        idx = rng.choice(edges.shape[0], size=min(n_del, edges.shape[0]),
                         replace=False)
        deletes = edges[np.sort(idx)]
    inserts = (rng.integers(0, graph.n, size=(n_ins, 2))
               if n_ins else np.empty((0, 2), dtype=np.int64))
    if inserts.size and deletes.size:
        ik = (np.minimum(inserts[:, 0], inserts[:, 1]) * graph.n
              + np.maximum(inserts[:, 0], inserts[:, 1]))
        dk = deletes[:, 0] * graph.n + deletes[:, 1]
        deletes = deletes[~np.isin(dk, ik)]
    return UpdateBatch.build(inserts, deletes, n=graph.n)


@given(shrinkage_cases())
@settings(max_examples=40, deadline=None)
def test_record_equals_full_under_sustained_shrinkage(case):
    graph, rounds, rng = case
    vertex_scores(graph, "tpv")
    for _ in range(rounds):
        batch = delete_heavy_batch(graph, rng)
        graph = apply_delta(graph, batch, strict=False).graph
        np.testing.assert_array_equal(
            vertex_scores(graph, "tpv"), triangles_per_vertex_batched(graph))
        np.testing.assert_array_equal(
            vertex_scores(graph, "tmin"), triangles_min_vertex(graph))


@given(shrinkage_cases())
@settings(max_examples=40, deadline=None)
def test_delta_chain_equals_rebuild_under_shrinkage(case):
    """Chained delete-heavy apply_delta == from-scratch rebuild."""
    graph, rounds, rng = case
    current = graph
    for _ in range(rounds):
        batch = delete_heavy_batch(current, rng)
        res = apply_delta(current, batch, strict=False)
        res.graph.check_invariants()
        res.graph.check_symmetric()
        kept = set(map(tuple, current.edges()))
        ins = {(int(u), int(v)) for u, v in batch.insert_edges()}
        dels = {(int(u), int(v)) for u, v in batch.delete_edges()}
        expect = (kept | ins | {(v, u) for u, v in ins}) \
            - dels - {(v, u) for u, v in dels}
        assert set(map(tuple, res.graph.edges())) == expect
        current = res.graph


@given(shrinkage_cases())
@settings(max_examples=25, deadline=None)
def test_degree_collapse_below_min_degree_preprocessing(case):
    """Deleting every edge of some vertices must collapse them below the
    min-degree-2 preprocessing threshold without breaking the score record."""
    graph, _, rng = case
    degs = graph.degrees()
    victims = np.flatnonzero(degs > 0)[:3]
    if victims.size == 0:
        return
    rows = []
    for v in victims:
        for u in graph.adj(int(v)):
            rows.append((int(v), int(u)))
    batch = UpdateBatch.build(None, np.array(rows, dtype=np.int64),
                              n=graph.n)
    vertex_scores(graph, "tpv")
    new = apply_delta(graph, batch, strict=False).graph
    assert (new.degrees()[victims] == 0).all()
    np.testing.assert_array_equal(
        vertex_scores(new, "tpv"), triangles_per_vertex_batched(new))
    # The preprocessing pass still composes with the shrunken graph.
    pruned = remove_low_degree_vertices(new, min_degree=2)
    assert pruned.n <= new.n
