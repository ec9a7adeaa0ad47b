"""Counting invariants fail closed: a violated one raises SimulationError.

Each kernel checks the divisibility its triangle identity guarantees —
``6T`` triplets on an undirected graph, three closed wedges per triangle
— with an explicit raise, so the check survives ``python -O``.  Every
test here feeds one kernel a doctored input that breaks the identity.
"""

import numpy as np
import pytest

import repro.core.local as local
from repro.baselines.mapreduce import MapReduceConfig, run_mapreduce_tc
from repro.core.config import LCCConfig
from repro.core.linalg import (
    SummaStats,
    build_round_streams,
    execute_tc2d_spgemm,
    summa_stats,
)
from repro.core.tc2d import execute_tc2d
from repro.graph.csr import CSRGraph
from repro.graph.generators import complete_graph
from repro.session import Session
from repro.utils.errors import SimulationError


def test_spgemm_rejects_masked_sum_off_by_one():
    graph = complete_graph(8)
    cfg = LCCConfig(nranks=4)
    with Session(graph, cfg) as session:
        cluster = session.resident_grid()
        engine, grid, win = cluster._engine, cluster._grid, cluster._win
        good = summa_stats(graph, grid)
        masked_sum = good.masked_sum.copy()
        masked_sum[0, 0] += 1
        doctored = SummaStats(good.block_nnz, good.prod_nnz, masked_sum,
                              good.tpv)
        with pytest.raises(SimulationError, match="not divisible by 6"):
            execute_tc2d_spgemm(engine, grid, win, cfg, graph,
                                doctored, build_round_streams(grid, win))


def test_tc2d_loop_rejects_asymmetric_block():
    # A triangle with the stored edge 2 -> 0 dropped: (B·B)∘B sums to 3.
    graph = complete_graph(3)
    cfg = LCCConfig(nranks=1)
    # Packed: [n_rows, nnz, indptr..., indices...].
    block = np.array([3, 5, 0, 2, 4, 5, 1, 2, 0, 2, 1], dtype=np.int32)
    with Session(graph, cfg) as session:
        cluster = session.resident_grid()
        cluster._win.replace_part(0, block)
        with pytest.raises(SimulationError, match="not divisible by 6"):
            execute_tc2d(cluster._engine, cluster._grid, cluster._win, cfg,
                         graph)


def test_local_count_rejects_bad_triplet_total(monkeypatch):
    monkeypatch.setattr(local, "triangles_per_vertex_matrix",
                        lambda graph: np.array([1, 0, 0], dtype=np.int64))
    with pytest.raises(SimulationError, match="not divisible by 6"):
        local.triangle_count_local(complete_graph(3))


def test_mapreduce_rejects_lone_closed_wedge():
    # Flagged undirected but stored one-way (validation would refuse it):
    # 0 -> {1, 2}, 1 -> {2}.  The wedge (1, 2) at vertex 0 closes once
    # instead of three times.
    graph = CSRGraph(np.array([0, 2, 3, 3]), np.array([1, 2, 2]),
                     validate=False)
    with pytest.raises(SimulationError, match="not divisible by 3"):
        run_mapreduce_tc(graph, MapReduceConfig(nranks=2))
