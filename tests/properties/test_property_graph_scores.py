"""Property: every graph version's score record equals the oracles.

Random directed and undirected graphs, random update chains in which each
version's record is read or left unread at random, checked at every
version against the SciPy matrix path and the per-edge kernel path,
neither of which shares a body with ``vertex_scores``.  A version a batch
changed starts with an empty record and one it did not shares its
parent's, so each record's first read is one full count (the oriented
pass if undirected, the per-vertex loop if directed) and no later read
counts again.  The oriented pass that fills an undirected record is
also checked on its own against the same oracles, on the shapes where its
rank tie-break and strip cuts decide: no vertices, no edges, isolated
vertices, stars, cliques, and budgets down to one wedge per strip.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import local
from repro.core.local import (
    WEDGE_BUDGET,
    lcc_from_triplets,
    oriented_triangle_scores,
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
    assert not tpv.flags.writeable


@st.composite
def shaped_graphs(draw):
    """An undirected graph of a drawn shape, on ``n`` vertices whose ids
    are shuffled (so a clique's ties fall to arbitrary ids), and a wedge
    budget from one per strip up to the module's."""
    shape = draw(st.sampled_from(("empty", "edgeless", "star", "clique",
                                  "random")))
    n = 0 if shape == "empty" else draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    ids = rng.permutation(n)
    k = draw(st.integers(1, n)) if n else 0
    if shape == "star":
        edges = [(ids[0], ids[i]) for i in range(1, k)]
    elif shape == "clique":
        edges = [(ids[i], ids[j]) for i in range(k) for j in range(i)]
    elif shape == "random":
        edges = rng.integers(0, n, size=(draw(st.integers(0, 90)), 2))
    else:
        edges = []
    graph = CSRGraph.from_edges(np.asarray(edges, dtype=np.int64)
                                .reshape(-1, 2), n)
    budget = draw(st.sampled_from((1, 2, 3, 5, WEDGE_BUDGET)))
    return graph, budget


# K5 plus a pendant: vertex 0's upward list is the other four clique
# vertices, six wedges, so a budget of four cuts them over two strips.
K5_PENDANT = CSRGraph.from_edges(
    np.array([(i, j) for i in range(5) for j in range(i)] + [(4, 5)]), 7)


@given(shaped_graphs())
@settings(max_examples=80, deadline=None)
@example((CSRGraph.from_edges(np.zeros((0, 2), dtype=np.int64), 0), 1))
@example((K5_PENDANT, 4))
def test_oriented_pass_equals_oracles(case):
    graph, budget = case
    tpv, tmin = oriented_triangle_scores(graph, budget=budget)
    np.testing.assert_array_equal(tpv, triangles_per_vertex_matrix(graph))
    np.testing.assert_array_equal(tmin, triangles_min_vertex(graph))


# A directed chain: a changed version left unread, a batch that changes
# nothing (its one insert is present) sharing that empty record, then a
# read of each; the late reads find the shared record already filled.
DIRECTED_SHARED_UNREAD = (
    CSRGraph.from_edges(np.array([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                                  (4, 5)]), 6, directed=True),
    True,
    [(np.array([(0, 3)]), 0, False), (np.array([(0, 1)]), 0, True),
     (np.array([(4, 0)]), 0, True)],
    np.random.default_rng(0))


@given(update_chains())
@settings(max_examples=60, deadline=None)
@example(DIRECTED_SHARED_UNREAD)
def test_record_equals_oracles_at_every_version(case):
    check_chain(case)


def check_chain(case):
    graph, read_first, steps, rng = case
    versions = [graph]
    loop = mock.patch.object(local, "triangles_per_vertex_batched",
                             wraps=local.triangles_per_vertex_batched)
    passes = mock.patch.object(local, "oriented_triangle_scores",
                               wraps=oriented_triangle_scores)
    with loop as full, passes as oriented:
        counts = (full, oriented) if graph.directed else (oriented, full)

        def read(version):
            fresh = not version.scores
            before = [c.call_count for c in counts]
            check_version(version)
            after = [c.call_count for c in counts]
            assert [a - b for a, b in zip(after, before)] == [int(fresh), 0]

        if read_first:
            read(graph)
        for inserts, n_del, read_now in steps:
            edges = graph.edges()
            deletes = edges[rng.choice(edges.shape[0],
                                       size=min(n_del, edges.shape[0]),
                                       replace=False)]
            # The buffer resolves an edge named on both sides (last op wins).
            buffer = DeltaBuffer(graph.n, graph.directed)
            buffer.insert_edges(inserts)
            buffer.delete_edges(deletes)
            res = apply_delta(graph, buffer.freeze(), strict=False)
            if res.affected.size:
                assert res.graph.scores == {}
            else:
                assert res.graph.scores is graph.scores
            graph = res.graph
            versions.append(graph)
            if read_now:
                read(graph)
        # Late reads: every version still resolves on its own, in any
        # order.
        for version in reversed(versions):
            read(version)
