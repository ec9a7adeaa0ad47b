"""Property: the inherited score record equals the independent oracles.

Random directed and undirected graphs, random update chains in which each
version's record is read or left pending at random — so a resolve sees
patches over one batch, over a union of several, and full counts after a
never-scored parent — checked at every version against the SciPy matrix
path and the per-edge kernel path, neither of which shares a body with
``vertex_scores``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.local import (
    lcc_from_triplets,
    triangles_min_vertex,
    triangles_per_vertex_local,
    triangles_per_vertex_matrix,
    vertex_scores,
)
from repro.dynamic import DeltaBuffer, apply_delta
from repro.graph.csr import CSRGraph


@st.composite
def update_chains(draw):
    """A graph plus 1-4 ``(inserts, deletes, read_before_next)`` steps."""
    n = draw(st.integers(min_value=2, max_value=30))
    m = draw(st.integers(min_value=0, max_value=90))
    directed = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    graph = CSRGraph.from_edges(rng.integers(0, n, size=(m, 2)), n,
                                directed=directed)
    steps = [(rng.integers(0, n, size=(draw(st.integers(0, 8)), 2)),
              draw(st.integers(0, 8)), draw(st.booleans()))
             for _ in range(draw(st.integers(1, 4)))]
    return graph, draw(st.booleans()), steps, rng


def check_version(graph: CSRGraph) -> None:
    tpv = vertex_scores(graph, "tpv")
    reference = triangles_per_vertex_matrix(graph)
    np.testing.assert_array_equal(tpv, reference)
    np.testing.assert_array_equal(tpv, triangles_per_vertex_local(graph))
    np.testing.assert_array_equal(vertex_scores(graph, "lcc"),
                                  lcc_from_triplets(graph, reference))
    if not graph.directed:
        np.testing.assert_array_equal(vertex_scores(graph, "tmin"),
                                      triangles_min_vertex(graph))
    assert not tpv.flags.writeable and "pending" not in graph.scores


@given(update_chains())
@settings(max_examples=60, deadline=None)
def test_record_equals_oracles_at_every_version(case):
    graph, read_first, steps, rng = case
    versions = [graph]
    if read_first:
        check_version(graph)
    for inserts, n_del, read in steps:
        edges = graph.edges()
        deletes = edges[rng.choice(edges.shape[0],
                                   size=min(n_del, edges.shape[0]),
                                   replace=False)]
        # The buffer resolves an edge named on both sides (last op wins).
        buffer = DeltaBuffer(graph.n, graph.directed)
        buffer.insert_edges(inserts)
        buffer.delete_edges(deletes)
        batch = buffer.freeze()
        graph = apply_delta(graph, batch, strict=False).graph
        versions.append(graph)
        if read:
            check_version(graph)
    # Late reads: every version still resolves on its own, in any order.
    for version in reversed(versions):
        check_version(version)
