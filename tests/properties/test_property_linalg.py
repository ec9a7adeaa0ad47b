"""Property tests: masked SpGEMM == edge-centric oracle, exactly.

Random catalogs × square grid shapes × cached/uncached × cold/warm: the
algebraic ``tc2d_spgemm`` replay must reproduce the edge-centric
``tc2d`` oracle's triangle counts and virtual clocks with exact float
equality, and ``lcc2d`` must reproduce the 1D ``lcc`` scores bit for
bit.  The SUMMA tables behind both come from per-edge row intersections
(``summa_stats``), so the scalar loops here are their only oracle: the
catalogs reach down to the empty graph and ``n < cols`` (empty panels),
and named shapes cover a star, a clique and isolated vertices.  Also
the packed-CSR wire format: ``_unpack_block`` of every packed part
``build_block`` slices is the SciPy slice of the whole matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CacheSpec, LCCConfig
from repro.core.local import (
    lcc_local,
    to_sparse,
    triangle_count_local,
    triangles_per_vertex_matrix,
)
from repro.core.tc2d import _unpack_block, build_block, run_distributed_tc_2d
from repro.graph.csr import CSRGraph
from repro.graph.generators import complete_graph
from repro.graph.partition2d import GridPartition2D
from repro.session import Session, run_kernel
from repro.utils.errors import ConfigError


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=48))
    m = draw(st.integers(min_value=0, max_value=140)) if n else 0
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m, 2))
    return CSRGraph.from_edges(edges, n)


square_nranks = st.sampled_from([1, 4, 9, 16])


def assert_tables_match_scalar_oracles(graph, nranks):
    """``tc2d_spgemm`` == the edge-centric loop, ``lcc2d`` == ``(A·Aᵀ)∘A``."""
    cfg = LCCConfig(nranks=nranks)
    oracle = run_distributed_tc_2d(graph, cfg)
    res = run_kernel("tc2d_spgemm", graph, cfg).raw
    assert res.global_triangles == oracle.global_triangles
    assert res.global_triangles == triangle_count_local(graph)
    assert res.outcome.clocks == oracle.outcome.clocks
    assert res.outcome.results == oracle.outcome.results
    assert res.outcome.traces == oracle.outcome.traces
    lcc2d = run_kernel("lcc2d", graph, cfg).raw
    np.testing.assert_array_equal(lcc2d.triangles_per_vertex,
                                  triangles_per_vertex_matrix(graph))
    np.testing.assert_array_equal(lcc2d.lcc, lcc_local(graph))
    assert lcc2d.outcome.results == oracle.outcome.results


@given(random_graphs(), square_nranks)
@settings(max_examples=50, deadline=None)
def test_spgemm_matches_oracle_uncached(graph, nranks):
    assert_tables_match_scalar_oracles(graph, nranks)


def star(leaves):
    hub = np.zeros(leaves, dtype=np.int64)
    return CSRGraph.from_edges(
        np.column_stack([hub, np.arange(1, leaves + 1)]), leaves + 1)


def clique_among_isolated():
    # Vertices 0-5 and 30-39 have no edges; 6-29 form a clique.
    edges = complete_graph(24).edges() + 6
    return CSRGraph.from_edges(edges, 40)


NAMED_SHAPES = {
    "no-vertices": CSRGraph.from_edges(np.zeros((0, 2), dtype=np.int64), 0),
    "no-edges": CSRGraph.from_edges(np.zeros((0, 2), dtype=np.int64), 7),
    "fewer-vertices-than-panels": complete_graph(3),
    "star": star(3000),  # one hub row against thousands of leaves
    "clique": complete_graph(40),
    "clique-among-isolated": clique_among_isolated(),
}


@pytest.mark.parametrize("nranks", [1, 4, 9, 16])
@pytest.mark.parametrize("shape", NAMED_SHAPES)
def test_named_shapes_match_oracle(shape, nranks):
    assert_tables_match_scalar_oracles(NAMED_SHAPES[shape], nranks)


@given(random_graphs(), st.sampled_from([4, 9]),
       st.integers(min_value=256, max_value=1 << 14))
@settings(max_examples=25, deadline=None)
def test_spgemm_matches_oracle_cached_cold_and_warm(graph, nranks,
                                                    cache_bytes):
    spec = CacheSpec(offsets_bytes=0, adj_bytes=cache_bytes)
    kw = dict(nranks=nranks, cache=spec)
    with Session(graph, LCCConfig(fast_path=True, **kw)) as fast, \
            Session(graph, LCCConfig(fast_path=False, **kw)) as loop:
        for _ in range(2):  # cold, then warm reuse
            rf = fast.run("tc2d_spgemm", keep_cache=True)
            rl = loop.run("tc2d_spgemm", keep_cache=True)
            assert rf.global_triangles == rl.global_triangles
            assert rf.outcome.clocks == rl.outcome.clocks
            assert [c.stats.snapshot() for c in fast._c2d.caches] == \
                [c.stats.snapshot() for c in loop._c2d.caches]


@given(random_graphs(), st.sampled_from([4, 9]),
       st.integers(min_value=256, max_value=1 << 14))
@settings(max_examples=25, deadline=None)
def test_cached_tc2d_batched_replay_matches_loop(graph, nranks, cache_bytes):
    spec = CacheSpec(offsets_bytes=0, adj_bytes=cache_bytes)
    kw = dict(nranks=nranks, cache=spec)
    with Session(graph, LCCConfig(fast_path=True, **kw)) as fast, \
            Session(graph, LCCConfig(fast_path=False, **kw)) as loop:
        for _ in range(2):
            rf = fast.run("tc2d", keep_cache=True)
            rl = loop.run("tc2d", keep_cache=True)
            assert rf.global_triangles == rl.global_triangles
            assert rf.outcome.clocks == rl.outcome.clocks


@given(random_graphs(), square_nranks)
@settings(max_examples=40, deadline=None)
def test_lcc2d_matches_1d_scores(graph, nranks):
    cfg = LCCConfig(nranks=nranks)
    r2 = run_kernel("lcc2d", graph, cfg)
    r1 = run_kernel("lcc", graph, cfg)
    np.testing.assert_array_equal(r2.raw.lcc, r1.raw.lcc)
    np.testing.assert_array_equal(r2.raw.triangles_per_vertex,
                                  r1.raw.triangles_per_vertex)
    assert r2.global_triangles == r1.global_triangles


@given(random_graphs(), st.sampled_from([2, 6, 8, 12]),
       st.sampled_from(["tc2d_spgemm", "lcc2d"]))
@settings(max_examples=20, deadline=None)
def test_rectangular_grids_always_rejected(graph, nranks, kernel):
    try:
        run_kernel(kernel, graph, LCCConfig(nranks=nranks))
    except ConfigError as exc:
        assert "square process grid" in str(exc)
    else:
        raise AssertionError("rectangular grid must raise ConfigError")


@given(random_graphs(), st.sampled_from([1, 2, 4, 6, 9, 12, 16]))
@settings(max_examples=120, deadline=None)
def test_unpacked_block_is_the_scipy_slice(graph, nranks):
    grid = GridPartition2D(graph.n, nranks)
    a = to_sparse(graph)
    for rank in range(nranks):
        row, col = grid.grid_coords(rank)
        (r_lo, r_hi), (c_lo, c_hi) = grid.row_range(row), grid.col_range(col)
        packed = build_block(graph, grid, rank)
        out = _unpack_block(packed, c_hi - c_lo)
        block = a[r_lo:r_hi, c_lo:c_hi]
        assert out.shape == block.shape
        assert out.nnz == block.nnz
        assert (out != block).nnz == 0  # elementwise identical
        assert out.data.dtype == np.int64
        # The wire format is self-describing: header + indptr + indices.
        assert packed.shape[0] == 2 + (block.shape[0] + 1) + block.nnz
